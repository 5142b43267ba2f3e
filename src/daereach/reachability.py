"""Discrete-time reachable-set computation for autonomous DAE systems.

Only the ODE subsystem needs integrating, and it lives on the
``r``-dimensional subspace ``range(Pi)``, ``Pi = projectors[1]``: its
basis is pushed through time in the coordinates of the decoupled
system's ODE basis ``W`` by powers of one ``r x r`` transition matrix,
the exact flow of a linear time-invariant ODE up to rounding.  The
instants of the time grid are kept innermost: the ``k`` columns of every
instant sit side by side in one ``r x (J+1)k`` block, so filling a run of
instants is one wide product, the powers are built by repeated squaring
until a cost rule in ``r`` and ``J`` says a squaring no longer pays, and
the rest of the grid is marched in blocks of that width.  One fixed
``n x r`` matrix, the lift ``psi W``, sends every coordinate basis to a
full DAE state basis, and pulling rows back through it, tracing one
coefficient vector and forming the state bases are each one product on
the block.  The frame, the ``r x r`` ODE matrix and the lift come from
the decoupled system's factored operator applied to the ``n x r`` block
``W``; no ``n x n`` ``psi`` is formed.  The predicate never changes, so
the reachable set at each step is a star sharing the initial star's
constraint matrices, and the whole result is one array of ODE
coordinates, the lift and that one predicate.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .consistency import check_initial_star
from .decoupling import decouple_system
from .errors import InconsistentInitialSetError, NumericalFailureError
from .linalg import matrix_exponential
from .starset import StarSet

__all__ = [
    "ReachSettings",
    "ReachResult",
    "propagate_basis",
    "compute_reach",
]


@dataclass(frozen=True)
class ReachSettings:
    """Step size and horizon.

    ``num_steps`` steps of ``time_step`` seconds cover ``[0, T]`` with
    ``num_steps + 1`` sample instants including ``t = 0``.
    """

    time_step: float
    num_steps: int

    def __post_init__(self):
        if not 0.0 < self.time_step < np.inf:
            raise ValueError(f"time_step must be positive and finite, got {self.time_step!r}")
        steps = self.num_steps
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ValueError(f"num_steps must be an integer of at least 1, got {steps!r}")

    @property
    def time_bound(self):
        return self.time_step * self.num_steps

    @property
    def times(self):
        return np.arange(self.num_steps + 1) * self.time_step


@contextmanager
def _grid_sized(settings):
    """Raise :class:`NumericalFailureError` naming the step count when numpy
    refuses an array sized by the time grid."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise NumericalFailureError(
            f"{settings.num_steps:.3g} steps are too many for an array: {exc}"
        ) from exc


def _side_by_side(coordinates):
    """The ``r x (J+1)k`` block of ``(J+1, r, k)`` coordinates, instant
    ``j`` in columns ``jk .. jk+k-1``: a view of the coordinates
    :func:`propagate_basis` lays out, a copy of any other layout."""
    steps, r, k = coordinates.shape
    return coordinates.transpose(1, 0, 2).reshape(r, steps * k)


def _per_instant(block, steps):
    """The ``(steps, q, k)`` view of a ``q x steps k`` block."""
    return block.reshape(len(block), steps, block.shape[1] // steps).transpose(1, 0, 2)


@dataclass(frozen=True)
class ReachResult:
    """Reachable set of an autonomous DAE over a fixed time grid.

    ``ode_coordinates[j]``, shape ``(r, k)``, is the ODE-subsystem basis at
    ``j * time_step`` in the coordinates of the decoupled system's ODE
    frame, and ``lift`` (``n x r``, ``psi @ W``) sends it to the state
    basis ``bases[j] = lift @ ode_coordinates[j]``.  The coordinates are a
    ``(J+1, r, k)`` view of one ``r x (J+1)k`` block with the instants side
    by side (see :func:`propagate_basis`), and ``pull_back``, ``states``
    and ``bases`` each take one product on that block; coordinates of any
    other layout give the same values through a copy.  Every step shares
    the predicate of ``initial``, the initial star.  The first ``n_orig``
    state coordinates are the original model states, the rest are stacked
    inputs.  An array sized by the time grid that numpy cannot hold raises
    :class:`NumericalFailureError`.
    """

    ode_coordinates: np.ndarray
    lift: np.ndarray
    initial: StarSet
    settings: ReachSettings
    n_orig: int
    decoupled: object = field(repr=False)
    certificate: object = field(repr=False, default=None)
    timings: dict = field(repr=False, default_factory=dict)

    def _lifted(self, M):
        """``M @ block`` as ``(J+1, q, k)``, for ``q`` rows ``M`` over the
        ODE coordinates."""
        steps = len(self.ode_coordinates)
        with _grid_sized(self.settings):
            return _per_instant(M @ _side_by_side(self.ode_coordinates), steps)

    @cached_property
    def bases(self):
        """The state bases, ``lift @ ode_coordinates``, shape
        ``(num_steps + 1, n, k)``, a view of one ``n x (J+1)k`` product;
        built on first access and kept read-only."""
        bases = self._lifted(self.lift)
        bases.flags.writeable = False
        return bases

    def pull_back(self, M):
        """``M @ bases[j]`` for every step, shape ``(num_steps + 1, q, k)``
        for a ``(q, n)`` matrix ``M``, without forming the state bases: a
        view of ``(M @ lift) @ block``, ``q x (J+1)k``.  A product that
        overflows raises :class:`NumericalFailureError`."""
        with np.errstate(over="ignore", invalid="ignore"):
            pulled = self._lifted(M @ self.lift)
        if not np.isfinite(pulled).all():
            raise NumericalFailureError("the pull-back of the reach sets overflows")
        return pulled

    def states(self, alpha):
        """The trajectory ``bases[j] @ alpha`` of one coefficient vector,
        shape ``(num_steps + 1, n)``: the block's rows times ``alpha``, an
        ``r x (J+1)`` array, then the lift."""
        steps, r, k = self.ode_coordinates.shape
        with _grid_sized(self.settings):
            combined = _side_by_side(self.ode_coordinates).reshape(r * steps, k) @ alpha
            return combined.reshape(r, steps).T @ self.lift.T


# What reading one word of the r x r power costs a block product, in
# multiply-adds: the cost rule of propagate_basis.  Timed with one BLAS
# thread on the Stokes family at r = 121 to 961 over 100 and 1,000 steps
# (expm included), 8 came within 20% of the best of 2, 4, 8 and 16 at
# every size; with it, any r < 8 doubles to the end.
_READ_COST = 8


def propagate_basis(dec, theta0, settings, coordinates=None):
    """Bases of the ODE subsystem at every time-grid instant in the
    coordinates of ``dec.ode_basis``, shape ``(num_steps + 1, r, k)``: a
    view of one ``r x (J+1)k`` block, instant ``j`` in columns ``jk ..
    jk+k-1``.

    Only the ODE component of ``theta0`` is propagated: its coordinates
    are ``W^T (Pi V)`` (``coordinates``, when given), so a star already
    projected onto the ODE subsystem gives the same result.  Columns evolve
    independently under the linear time-invariant ``y' = W^T (N[1] W) y``,
    so the flow over ``j`` steps is
    ``phi^j`` with ``phi`` one ``r x r`` exponential of a step, exact up to
    rounding.  The instants are filled ``b`` at a time, each run of them
    one ``r x r x bk`` product ``Y[:, (j+b)k : (j+2b)k] = phi^b Y[:, jk :
    (j+b)k]``.  ``b`` starts at 1 and doubles, ``phi^b`` squared along,
    while the squaring costs less than the reads of the power it saves:
    ``r^3`` multiply-adds against ``J / 2b`` fewer products that each read
    the ``r^2`` words of the power, at ``_READ_COST`` multiply-adds a word.
    The width ``k`` does not enter: the products' multiply-adds, ``J r^2
    k`` in all, are the same for every ``b``.  Small ``r`` doubles to the
    end, ``log2 J`` products (the rotating masses, ``r = 3``, at any
    ``J``); large ``r`` stops at ``b`` between ``4 J / r`` and ``8 J / r``
    and marches the rest of the grid in blocks of ``b`` instants.  ``W @
    y`` is the basis in state coordinates.
    """
    y0 = dec.ode_coordinates(theta0.V) if coordinates is None else coordinates
    (r, k), total = y0.shape, settings.num_steps + 1
    block = np.empty((r, total * k))
    block[:, :k] = y0
    if y0.size:  # r = 0: no ODE subsystem, nothing moves
        power = matrix_exponential(dec.ode_matrix, settings.time_step)
        filled = width = 1
        while filled < total:
            count = min(width, total - filled)
            source = block[:, (filled - width) * k : (filled - width + count) * k]
            np.matmul(power, source, out=block[:, filled * k : (filled + count) * k])
            filled += count
            if filled < total and 2 * width * r < _READ_COST * settings.num_steps:
                power, width = power @ power, filled
    return _per_instant(block, total)


def compute_reach(sys, theta0, settings):
    """Reachable set of an autonomous DAE from a consistent initial star.

    Pipeline: decouple (chain, admissible projectors, subsystem
    coefficients), verify that the initial star lies in the consistent
    space (raising :class:`InconsistentInitialSetError` with the
    certificate otherwise), propagate the basis's ODE coordinates ``W^T Pi
    V``, formed once for both, and form the one lift ``psi @ W`` back to
    the full state; the state bases
    are built from it only when :attr:`ReachResult.bases` is read.  A time
    grid too long for numpy to hold, and ODE coordinates that overflow,
    raise :class:`NumericalFailureError`; the latter names the first step
    that is not finite.
    """
    started = time.perf_counter()
    dec = decouple_system(sys)
    # W^T Pi V for the check and the propagation; the check names a mismatch
    initial = dec.ode_coordinates(theta0.V) if dec.n == theta0.dim else None
    certificate = check_initial_star(dec, theta0, initial)
    decouple_seconds = time.perf_counter() - started
    if not certificate.consistent:
        raise InconsistentInitialSetError(certificate)

    started = time.perf_counter()
    with _grid_sized(settings), np.errstate(over="ignore", invalid="ignore"):
        coordinates = propagate_basis(dec, theta0, settings, initial)
    if not np.isfinite(coordinates).all():
        step = int(np.argmin(np.isfinite(coordinates).all(axis=(1, 2))))
        raise NumericalFailureError(
            f"the reach set overflows at step {step} (t = {step * settings.time_step:g}): "
            "its ODE coordinates are not finite"
        )
    lift = dec.lift
    lift.flags.writeable = coordinates.flags.writeable = False
    reach_seconds = time.perf_counter() - started
    return ReachResult(
        ode_coordinates=coordinates,
        lift=lift,
        initial=theta0,
        settings=settings,
        n_orig=sys.n_orig,
        decoupled=dec,
        certificate=certificate,
        timings={"decouple_s": decouple_seconds, "reach_s": reach_seconds},
    )
