"""Per-step safety checking against a linear unsafe set, with falsification.

At each time step the unsafe condition ``G x <= f`` is pulled back through
the star basis and stacked with the coefficient predicate; the step is
unsafe iff the combined inequality system is feasible.  The pull-back is
one product, ``(G @ lift) @ Y`` on the ODE coordinates ``Y`` with the
instants side by side (:meth:`ReachResult.pull_back`), so the full state
bases are never formed.  The support function of every pulled-back row
at every step, taken along the instants, comes from the predicate's
:meth:`StarSet.support` -- in closed form for a box, from the vertices
of a bounded polytope with few of them -- and a step whose row minimum
already exceeds ``f`` is skipped without an LP.  Any other predicate
screens nothing.  A feasible coefficient vector is a genuine witness:
replaying it through every star basis yields a concrete simulation
trace ending in the unsafe set.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DimensionMismatchError, NumericalFailureError
from .linalg import DEFAULT_TOLERANCES, as_matrix, as_vector, readonly

__all__ = [
    "over_state",
    "UnsafeSpec",
    "VerificationOutcome",
    "feasibility_check",
    "verify",
]

SAFE = "safe"
UNSAFE = "unsafe"


def over_state(M, dim, n_orig, name):
    """``M`` as a matrix over the stacked state of dimension ``dim``.

    A matrix of ``dim`` columns is returned as is; one of ``n_orig``
    columns spans the original model states and is padded with zero
    columns over the trailing inputs.  Any other width raises
    :class:`DimensionMismatchError`.
    """
    q, cols = M.shape
    if cols == dim:
        return M
    if 0 < cols == n_orig:
        return np.hstack([M, np.zeros((q, dim - cols))])
    raise DimensionMismatchError(
        f"{name} has {cols} columns, but the state has {n_orig} original "
        f"coordinates and dimension {dim}"
    )


class UnsafeSpec:
    """The unsafe polyhedron ``G x <= f``.

    With ``on_original_state`` (the default) ``G`` may constrain only the
    original model coordinates and is then zero-extended over any
    trailing input coordinates of the stacked autonomous state.
    """

    __slots__ = ("G", "f", "on_original_state")

    def __init__(self, G, f, on_original_state=True):
        G = as_matrix(G, "G")
        f = as_vector(f, "f")
        if G.shape[0] != f.shape[0]:
            raise DimensionMismatchError(
                f"G has {G.shape[0]} rows but f has {f.shape[0]} entries"
            )
        self.G = readonly(G)
        self.f = readonly(f)
        self.on_original_state = bool(on_original_state)

    def extended(self, dim, n_orig):
        """``G`` over the stacked state of dimension ``dim`` whose first
        ``n_orig`` coordinates are the original states (see
        :func:`over_state`); without ``on_original_state`` only ``dim``
        columns are accepted."""
        return over_state(self.G, dim, n_orig if self.on_original_state else dim, "G")

    def __repr__(self):
        return f"UnsafeSpec(rows={self.G.shape[0]}, cols={self.G.shape[1]})"


@dataclass(frozen=True)
class VerificationOutcome:
    """Verdict of a bounded-time safety check.

    ``unsafe`` outcomes carry the first feasible step, the witnessing
    coefficient vector, and the full trace ``x_j = V_j alpha`` over every
    step (one row per time instant).  ``safe`` outcomes carry none.
    ``lp_calls`` counts the per-step feasibility LPs solved and
    ``screened_steps`` the steps proven safe by the support screen instead;
    together they cover every step examined before the scan stopped.
    ``support_method`` is the :class:`Support` method the screen used
    (``"box"``, ``"vertices"``, or ``"lp"`` when nothing was screened).
    """

    status: str
    first_unsafe_step: int | None = None
    alpha_feasible: np.ndarray | None = None
    unsafe_trace: np.ndarray | None = None
    lp_calls: int = 0
    screened_steps: int = 0
    support_method: str | None = None

    @property
    def is_safe(self):
        return self.status == SAFE


def feasibility_check(Gbar, fbar, tol=DEFAULT_TOLERANCES):
    """Some ``alpha`` with ``Gbar @ alpha <= fbar`` (within the slack), or
    ``None`` if the polyhedron is empty.

    Uses the built-in two-phase simplex; deterministic for fixed inputs.
    Non-convergence raises :class:`NumericalFailureError`, which is
    distinct from infeasibility.
    """
    Gbar = as_matrix(Gbar, "Gbar")
    fbar = as_vector(fbar, "fbar")
    if Gbar.shape[0] != fbar.shape[0]:
        raise DimensionMismatchError(
            f"Gbar has {Gbar.shape[0]} rows but fbar has {fbar.shape[0]} entries"
        )
    return lp.find_feasible(Gbar, fbar, tol=tol)


def _recheck(alpha, Gbar, fbar, tol, step):
    """Raise :class:`NumericalFailureError` unless ``Gbar @ alpha <= fbar``
    holds within the kernel's slack ``tol``, checked outside the solver.
    Row ``i`` may exceed ``fbar_i`` by ``100 * tol`` times the
    scale of what it sums, ``max(1, |fbar_i|, sum_j |Gbar_ij| |alpha_j|)``,
    so a row whose terms are all small cannot pass on the size of an entry
    that ``alpha`` does not use (Neumaier & Shcherbina, "Safe bounds in
    linear and mixed-integer linear programming", Math. Prog. 99, 2004)."""
    scale = np.maximum(np.maximum(1.0, np.abs(fbar)), np.abs(Gbar) @ np.abs(alpha))
    violation = Gbar @ alpha - fbar
    if np.any(violation > 100.0 * tol * scale):
        raise NumericalFailureError(
            f"solver returned an infeasible witness at step {step}: "
            f"max violation {violation.max():.3e}"
        )


def _screen(H, f, support, tol):
    """Steps not proven safe by the support function, in time order.

    ``H`` holds the pulled-back unsafe rows, shape ``(steps, q, k)``.  With
    ``c = 100 * tol``, a step is proven safe when some row's
    minimum of ``h @ alpha - c |h| @ |alpha|`` over the predicate exceeds
    ``f + c max(1, |f|)``: every ``alpha`` of the predicate then misses
    that row by more than the slack :func:`_recheck` allows it, ``c
    max(1, |f|, |h| @ |alpha|)``, so no step with a witness that passes the
    check is skipped.  The rows are copied once with the steps as the
    contiguous axis, so that the support's elementwise work runs along the
    instants, ``q k`` rows of ``J+1`` values rather than ``(J+1) q`` rows
    of ``k``.
    """
    c = 100.0 * tol
    along = np.ascontiguousarray(H.transpose(1, 2, 0))  # (q, k, steps)
    lowest = support.slack_minimum(along.transpose(2, 0, 1), c)  # (steps, q)
    proven = np.any(lowest > f + c * np.maximum(1.0, np.abs(f)), axis=1)
    return np.flatnonzero(~proven).tolist()


def verify(reach, unsafe, tol=DEFAULT_TOLERANCES, kernel=None):
    """Check every reachable step against the unsafe set.

    Screens all steps at once against the predicate's support function
    (:meth:`StarSet.support`) unless only LPs can give it, then walks the
    steps left over in time order: at the first feasible step it fixes the
    witnessing coefficients, re-validates them outside the solver, and
    reconstructs the trace through all steps from the ODE coordinates.
    ``kernel`` substitutes a different feasibility backend with the same
    call shape as :func:`feasibility_check`.

    ``tol``, the slack, lies strictly between 0 and 1 and governs the three
    decisions of the check, which must agree: the slack the kernel may take
    (it is passed to ``kernel``), the tolerance of the witness check, and
    the screen's margin, which skips only steps where no coefficient vector
    of the predicate passes that check.
    The predicate's own support function and vertices are found at
    :data:`~daereach.linalg.FEASIBILITY_TOL`, as everywhere else.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    kernel = feasibility_check if kernel is None else kernel
    C, d = reach.initial.C, reach.initial.d
    G = unsafe.extended(reach.lift.shape[0], reach.n_orig)
    f = unsafe.f
    H = reach.pull_back(G)  # (steps, q, k)

    steps = len(H)
    support = reach.initial.support(steps)
    if support.method == "lp":
        candidates = range(steps)
    else:
        candidates = _screen(H, f, support, tol)

    fbar = np.concatenate([f, d])
    first_hit = None
    lp_calls = 0
    for j in candidates:
        Gbar = np.vstack([H[j], C])
        lp_calls += 1
        try:
            alpha = kernel(Gbar, fbar, tol)
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"feasibility check failed at step {j}: {exc}")
        if alpha is not None:
            _recheck(alpha, Gbar, fbar, tol, j)
            first_hit = j
            break

    examined = steps if first_hit is None else first_hit + 1
    counters = {
        "lp_calls": lp_calls,
        "screened_steps": examined - lp_calls,
        "support_method": support.method,
    }
    if first_hit is None:
        return VerificationOutcome(status=SAFE, **counters)
    return VerificationOutcome(
        status=UNSAFE,
        first_unsafe_step=first_hit,
        alpha_feasible=alpha,
        unsafe_trace=reach.states(alpha),
        **counters,
    )
