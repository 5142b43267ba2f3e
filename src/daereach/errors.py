"""Exception hierarchy for the DAE verification pipeline.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto process exit codes.
"""

__all__ = [
    "DaeError",
    "ParseError",
    "DimensionMismatchError",
    "SingularMatrixError",
    "NonsingularEError",
    "IndexTooHighError",
    "IrregularPencilError",
    "InconsistentInitialSetError",
    "EmptyPredicateError",
    "UnboundedPredicateError",
    "NumericalFailureError",
]


class DaeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DaeError):
    """A model, initial-set, unsafe-set, or directions file failed to parse."""

    def __init__(self, message, path=None, field=None):
        self.path = path
        self.field = field
        detail = message
        if field is not None:
            detail = f"field {field!r}: {detail}"
        if path is not None:
            detail = f"{path}: {detail}"
        super().__init__(detail)


class DimensionMismatchError(DaeError):
    """Operand shapes are incompatible."""


class SingularMatrixError(DaeError):
    """A matrix that must be invertible is singular at the rank tolerance.

    Raised only by :func:`~daereach.decoupling.decouple`, when the
    corrected chain's terminal inverse fails its residual check: the
    computed index disagrees with the numerical rank decisions.
    """


class NonsingularEError(DaeError):
    """E is nonsingular, so the system is an ODE rather than a DAE."""


class IndexTooHighError(DaeError):
    """The matrix chain is still singular after three steps (index > 3)."""


class IrregularPencilError(DaeError):
    """det(sE - A) vanished at every probe point; the pencil is (probably)
    irregular and the system has no unique solution."""


class InconsistentInitialSetError(DaeError):
    """The initial star is not contained in the consistent space."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            "initial set is inconsistent: max residual "
            f"{certificate.max_residual:.3e} exceeds tolerance "
            f"{certificate.tolerance:.3e} (worst basis column "
            f"{certificate.worst_column}, constraint block "
            f"{certificate.worst_row_block})"
        )


class EmptyPredicateError(DaeError):
    """The coefficient polytope of a star set is empty."""


class UnboundedPredicateError(DaeError):
    """The coefficient polytope is unbounded where a bound is needed: for
    sampling it, or for a direction's extrema over it."""


class NumericalFailureError(DaeError):
    """A numerical routine failed to converge (distinct from infeasibility)."""
