"""Linear DAE systems and their conversion to autonomous form.

The model is ``E x'(t) = A x(t) + B u(t)`` with singular ``E``.  Inputs are
restricted to smooth signals generated by ``u'(t) = A_u u(t)``: stacking
``x`` and ``u`` then yields an equivalent autonomous system, which is the
only form the downstream pipeline consumes.  Piecewise-constant inputs are
deliberately inexpressible because their derivative jumps excite impulses
in high-index systems.
"""

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_matrix, numerical_rank, readonly

__all__ = [
    "DaeSystem",
    "InputModel",
    "AutonomousDae",
    "to_autonomous",
    "check_regularity",
]

_REGULARITY_SEED = 0x5EED


class DaeSystem:
    """A linear DAE ``E x' = A x + B u`` with square ``E``.

    ``B`` may be omitted for input-free systems, in which case it is the
    empty n-by-0 matrix and ``m == 0``.  Only shapes are checked here; the
    matrix chain's first SVD rejects a nonsingular ``E`` (an ODE, outside
    this package's scope) with :class:`~daereach.errors.NonsingularEError`.
    """

    __slots__ = ("E", "A", "B")

    def __init__(self, E, A, B=None):
        E = as_matrix(E, "E")
        A = as_matrix(A, "A")
        n = E.shape[0]
        if E.shape[0] != E.shape[1]:
            raise DimensionMismatchError(f"E must be square, got shape {E.shape}")
        if A.shape != (n, n):
            raise DimensionMismatchError(
                f"A must match E with shape ({n}, {n}), got {A.shape}"
            )
        if B is None:
            B = np.zeros((n, 0))
        else:
            B = as_matrix(B, "B", allow_empty_cols=True)
        if B.shape[0] != n:
            raise DimensionMismatchError(f"B must have {n} rows, got {B.shape[0]}")
        self.E = readonly(E)
        self.A = readonly(A)
        self.B = readonly(B)

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def __repr__(self):
        return f"DaeSystem(n={self.n}, m={self.m})"


class InputModel:
    """Smooth input signals driven by ``u' = A_u u``.

    ``InputModel()`` (or ``a_u=None``) is the no-input variant ``u = 0``.
    ``A_u = 0`` gives constant inputs.
    """

    __slots__ = ("a_u",)

    def __init__(self, a_u=None):
        if a_u is not None:
            a_u = as_matrix(a_u, "A_u")
            if a_u.shape[0] != a_u.shape[1]:
                raise DimensionMismatchError(
                    f"A_u must be square, got shape {a_u.shape}"
                )
            a_u = readonly(a_u)
        self.a_u = a_u

    @property
    def is_none(self):
        return self.a_u is None

    @property
    def dimension(self):
        return 0 if self.a_u is None else self.a_u.shape[0]

    def __repr__(self):
        return "InputModel(none)" if self.is_none else f"InputModel(m={self.dimension})"


class AutonomousDae:
    """An autonomous pair ``E x' = A x`` whose state may embed original
    states and inputs.

    ``n_orig`` and ``m_orig`` record the split of the stacked state into
    original coordinates and input coordinates; the original state is
    recovered as the first ``n_orig`` entries.
    """

    __slots__ = ("E", "A", "n_orig", "m_orig")

    def __init__(self, E, A, n_orig=None, m_orig=0):
        E = as_matrix(E, "E")
        A = as_matrix(A, "A")
        if E.shape[0] != E.shape[1]:
            raise DimensionMismatchError(f"E must be square, got shape {E.shape}")
        if A.shape != E.shape:
            raise DimensionMismatchError(
                f"A must match E with shape {E.shape}, got {A.shape}"
            )
        n = E.shape[0]
        if n_orig is None:
            n_orig = n - m_orig
        if n_orig + m_orig != n:
            raise DimensionMismatchError(
                f"n_orig + m_orig = {n_orig + m_orig} does not match size {n}"
            )
        self.E = readonly(E)
        self.A = readonly(A)
        self.n_orig = n_orig
        self.m_orig = m_orig

    @property
    def n(self):
        """Dimension of the stacked autonomous state."""
        return self.E.shape[0]

    def __repr__(self):
        return f"AutonomousDae(n={self.n}, n_orig={self.n_orig}, m_orig={self.m_orig})"


def to_autonomous(sys, inputs=None):
    """Stack a DAE with its input dynamics into an autonomous DAE.

    With input model ``u' = A_u u`` the stacked state ``(x, u)`` obeys::

        [E 0 ] d/dt (x, u) = [A  B ] (x, u)
        [0 I ]               [0 A_u]

    With the no-input variant the system itself is returned in autonomous
    form (``m_orig = 0``), since ``u = 0`` contributes nothing.
    """
    inputs = InputModel() if inputs is None else inputs
    if inputs.is_none:
        return AutonomousDae(sys.E, sys.A, n_orig=sys.n, m_orig=0)
    m = inputs.dimension
    if m != sys.m:
        raise DimensionMismatchError(
            f"A_u is {m}x{m} but the system has {sys.m} inputs"
        )
    n = sys.n
    e_bar = np.zeros((n + m, n + m))
    e_bar[:n, :n] = sys.E
    e_bar[n:, n:] = np.eye(m)
    a_bar = np.zeros((n + m, n + m))
    a_bar[:n, :n] = sys.A
    a_bar[:n, n:] = sys.B
    a_bar[n:, n:] = inputs.a_u
    return AutonomousDae(e_bar, a_bar, n_orig=n, m_orig=m)


def check_regularity(sys):
    """Probabilistic regularity test of the pencil ``s E - A``.

    Evaluates the pencil at 5 sample points ``s`` drawn uniformly from
    ``[-10, 10]`` by a fixed-seed generator and reports whether any sample
    is nonsingular.  Nonsingularity is decided by the relative
    singular-value cutoff rather than a raw determinant, which over- or
    underflows well before a thousand dimensions; the two tests agree
    whenever the determinant is numerically meaningful.

    A ``False`` answer means the pencil is irregular with overwhelming
    probability (an irregular pencil is singular at *every* ``s``, while a
    regular one is singular only at finitely many eigenvalues).  The
    matrix chain proves regularity whenever it ends, so the pipeline runs
    this probe only on a chain that does not.

    ``E`` and ``A`` are first scaled by the power of two that brings their
    largest entry into ``[1/2, 1)``, so every sample stays finite however
    large the entries are; the scaling is exact wherever it does not
    underflow, and the relative cutoff does not see it.
    """
    top = max(np.abs(sys.E).max(), np.abs(sys.A).max())
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    E, A = sys.E * scale, sys.A * scale
    samples = np.random.default_rng(_REGULARITY_SEED).uniform(-10.0, 10.0, size=5)
    return any(numerical_rank(s * E - A) == sys.n for s in samples)
