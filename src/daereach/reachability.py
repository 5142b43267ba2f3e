"""Discrete-time reachable-set computation for autonomous DAE systems.

Only the ODE subsystem needs integrating, and it lives on the
``r``-dimensional subspace ``range(Pi)``, ``Pi = projectors[1]``: its
basis is pushed through time in the coordinates of the decoupled
system's ODE basis ``W`` by powers of one ``r x r`` transition matrix,
the exact flow of a linear time-invariant ODE up to rounding.  The
powers are built by repeated squaring, so a grid of ``J`` steps takes
``log2 J`` batched products instead of ``J`` single ones.  One fixed
``n x r`` matrix, the lift ``psi W``, sends every coordinate basis to a
full DAE state basis.  The frame, the ``r x r`` ODE matrix and the lift
come from the decoupled system's factored operator applied to the
``n x r`` block ``W``; no ``n x n`` ``psi`` is formed.  The predicate
never changes, so the reachable set at each step is a star sharing the
initial star's constraint matrices, and the whole result is one array
of ODE coordinates, the lift and that one predicate.
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
        if not self.time_step > 0.0:
            raise ValueError(f"time_step must be positive, got {self.time_step!r}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be at least 1, got {self.num_steps!r}")

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


@dataclass(frozen=True)
class ReachResult:
    """Reachable set of an autonomous DAE over a fixed time grid.

    ``ode_coordinates[j]``, shape ``(r, k)``, is the ODE-subsystem basis at
    ``j * time_step`` in the coordinates of the decoupled system's ODE
    frame, and ``lift`` (``n x r``, ``psi @ W``) sends it to the state
    basis ``bases[j] = lift @ ode_coordinates[j]``.  Every step shares the
    predicate of ``initial``, the initial star.  The first ``n_orig``
    state coordinates are the original model states, the rest are
    stacked inputs.  An array sized by the time grid that numpy cannot
    hold raises :class:`NumericalFailureError`.
    """

    ode_coordinates: np.ndarray
    lift: np.ndarray
    initial: StarSet
    settings: ReachSettings
    n_orig: int
    decoupled: object = field(repr=False)
    certificate: object = field(repr=False, default=None)
    timings: dict = field(repr=False, default_factory=dict)

    @cached_property
    def bases(self):
        """The state bases, ``lift @ ode_coordinates``, shape
        ``(num_steps + 1, n, k)``; built on first access and kept read-only."""
        with _grid_sized(self.settings):
            bases = self.lift @ self.ode_coordinates
        bases.flags.writeable = False
        return bases

    def pull_back(self, M):
        """``M @ bases[j]`` for every step, shape ``(num_steps + 1, q, k)``
        for a ``(q, n)`` matrix ``M``, without forming the state bases.  A
        product that overflows raises :class:`NumericalFailureError`."""
        with np.errstate(over="ignore", invalid="ignore"):
            projected = M @ self.lift
            with _grid_sized(self.settings):
                pulled = projected @ self.ode_coordinates
        if not np.isfinite(pulled).all():
            raise NumericalFailureError("the pull-back of the reach sets overflows")
        return pulled

    def states(self, alpha):
        """The trajectory ``bases[j] @ alpha`` of one coefficient vector,
        shape ``(num_steps + 1, n)``."""
        with _grid_sized(self.settings):
            return (self.ode_coordinates @ alpha) @ self.lift.T


def propagate_basis(dec, theta0, settings):
    """Bases of the ODE subsystem at every time-grid instant in the
    coordinates of ``dec.ode_basis``, shape ``(num_steps + 1, r, k)``.

    Only the ODE component of ``theta0`` is propagated: its coordinates
    are ``W^T (Pi V)``, so a star already projected onto the ODE subsystem
    gives the same result.  Columns evolve independently under the linear
    time-invariant ``y' = W^T (N[1] W) y``, so the flow over ``j`` steps is
    ``phi^j`` with ``phi`` one ``r x r`` exponential of a step, exact up to
    rounding.  The instants are filled in doubling blocks: with the first
    ``c`` set, ``y[c:2c] = phi^c y[0:c]`` in one batched product, and
    ``phi^c`` is squared for the next block.  ``W @ y`` is the basis in
    state coordinates.
    """
    W = dec.ode_basis
    y0 = W.T @ dec.ode_component(np.asarray(theta0.V, dtype=float))
    coordinates = np.empty((settings.num_steps + 1,) + y0.shape)
    coordinates[0] = y0
    if not y0.size:  # r = 0: no ODE subsystem, nothing moves
        return coordinates
    power = matrix_exponential(dec.ode_matrix, settings.time_step)
    filled, total = 1, len(coordinates)
    while True:
        count = min(filled, total - filled)
        np.matmul(power, coordinates[:count], out=coordinates[filled : filled + count])
        filled += count
        if filled == total:
            return coordinates
        power = power @ power


def compute_reach(sys, theta0, settings):
    """Reachable set of an autonomous DAE from a consistent initial star.

    Pipeline: decouple (chain, admissible projectors, subsystem
    coefficients), verify that the initial star lies in the consistent
    space (raising :class:`InconsistentInitialSetError` with the
    certificate otherwise), propagate the basis's ODE coordinates, and
    form the one lift ``psi @ W`` back to the full state; the state bases
    are built from it only when :attr:`ReachResult.bases` is read.  A time
    grid too long for numpy to hold, and ODE coordinates that overflow,
    raise :class:`NumericalFailureError`; the latter names the first step
    that is not finite.
    """
    started = time.perf_counter()
    dec = decouple_system(sys)
    certificate = check_initial_star(dec, theta0)
    decouple_seconds = time.perf_counter() - started
    if not certificate.consistent:
        raise InconsistentInitialSetError(certificate)

    started = time.perf_counter()
    with _grid_sized(settings), np.errstate(over="ignore", invalid="ignore"):
        coordinates = propagate_basis(dec, theta0, settings)
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
