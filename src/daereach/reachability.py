"""Discrete-time reachable-set computation for autonomous DAE systems.

Only the ODE subsystem needs integrating, and it lives on the
``r``-dimensional subspace ``range(Pi)``, ``Pi = projectors[1]``: its
basis is pushed through time in the coordinates of the decoupled
system's ODE frame ``(W, Yt)``, so the transition matrix is ``r x r``
instead of ``n x n``.  One fixed ``n x r`` matrix ``psi W`` then lifts
every coordinate basis back to a full DAE state basis.  The predicate
never changes, so the reachable set at each step is a star sharing the
initial star's constraint matrices, and the whole result is one array of
bases plus that one predicate.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .consistency import build_consistent_matrix, check_initial_star
from .decoupling import decouple_system
from .errors import InconsistentInitialSetError, NumericalFailureError
from .linalg import DEFAULT_TOLERANCES, matrix_exponential
from .starset import StarSet

__all__ = [
    "TRANSITION_MATRIX",
    "ADAPTIVE_INTEGRATOR",
    "ReachSettings",
    "ReachResult",
    "build_psi",
    "propagate_basis",
    "compute_reach",
]

TRANSITION_MATRIX = "transition_matrix"
ADAPTIVE_INTEGRATOR = "adaptive_integrator"


@dataclass(frozen=True)
class ReachSettings:
    """Step size, horizon, and propagation scheme.

    ``num_steps`` steps of ``time_step`` seconds cover ``[0, T]`` with
    ``num_steps + 1`` sample instants including ``t = 0``.  The
    transition-matrix mode computes one matrix exponential and reuses it
    every step; the adaptive mode integrates each basis column with an
    error-controlled solver at the given tolerances.
    """

    time_step: float
    num_steps: int
    propagation_mode: str = TRANSITION_MATRIX
    integrator_abs_tol: float = 1e-12
    integrator_rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.time_step > 0.0:
            raise ValueError(f"time_step must be positive, got {self.time_step!r}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be at least 1, got {self.num_steps!r}")
        if self.propagation_mode not in (TRANSITION_MATRIX, ADAPTIVE_INTEGRATOR):
            raise ValueError(f"unknown propagation mode {self.propagation_mode!r}")
        if not (self.integrator_abs_tol > 0.0 and self.integrator_rel_tol > 0.0):
            raise ValueError("integrator tolerances must be positive")

    @property
    def time_bound(self):
        return self.time_step * self.num_steps

    @property
    def times(self):
        return np.arange(self.num_steps + 1) * self.time_step


@dataclass(frozen=True)
class ReachResult:
    """Reachable set of an autonomous DAE over a fixed time grid.

    ``bases[j]`` is the state basis at ``j * time_step``, an array of shape
    ``(num_steps + 1, n, k)``; every step shares the predicate of
    ``initial``, the initial star.  ``ode_coordinates[j]``, shape
    ``(r, k)``, is the ODE-subsystem basis in the coordinates of the
    decoupled system's ODE frame, which ``psi @ W`` lifted to
    ``bases[j]``.  The first ``n_orig`` state coordinates are the original
    model states, the rest are stacked inputs.
    """

    bases: np.ndarray
    initial: StarSet
    psi: np.ndarray
    ode_coordinates: np.ndarray
    settings: ReachSettings
    n_orig: int
    decoupled: object = field(repr=False)
    certificate: object = field(repr=False, default=None)
    timings: dict = field(repr=False, default_factory=dict)

    @cached_property
    def ode_basis(self):
        """The ODE-subsystem bases in state coordinates, ``W @ ode_coordinates``,
        shape ``(num_steps + 1, n, k)``; built on first access and kept."""
        ode_basis = self.decoupled.ode_frame[0] @ self.ode_coordinates
        ode_basis.flags.writeable = False
        return ode_basis

    @cached_property
    def stars(self):
        """One :class:`StarSet` per step, built on first access and kept."""
        return tuple(self.initial.with_basis(basis) for basis in self.bases)


def build_psi(dec):
    """The matrix lifting an ODE-subsystem basis to a full-state basis.

    Sums the identity with every constraint subsystem's reconstruction
    map, so ``psi @ x_1(t)`` is the full DAE solution through ``x_1``.
    """
    maps = dec.reconstruction_maps()
    psi = np.eye(dec.n)
    for i, m in maps.items():
        if i != 1:
            psi = psi + m
    return psi


def propagate_basis(dec, theta0, settings):
    """Bases of the ODE subsystem at every time-grid instant in the
    coordinates of ``dec.ode_frame``, shape ``(num_steps + 1, r, k)``.

    Only the ODE component of ``theta0`` is propagated: its coordinates
    are ``Yt @ V`` with ``Yt = W^T Pi``, so a star already projected onto
    the ODE subsystem gives the same result.  Columns evolve
    independently under ``y' = (Yt N[1] W) y``; in transition-matrix mode
    every step multiplies by the one-step ``r x r`` exponential, in
    adaptive mode each column is integrated separately with an
    eighth-order error-controlled scheme.  ``W @ y`` is the basis in state
    coordinates.
    """
    W, Yt = dec.ode_frame
    n1 = Yt @ dec.N[1] @ W
    y0 = Yt @ np.asarray(theta0.V, dtype=float)
    steps = settings.num_steps
    if not y0.size:  # r = 0: no ODE subsystem, nothing moves
        return np.zeros((steps + 1,) + y0.shape)
    if settings.propagation_mode == TRANSITION_MATRIX:
        phi = matrix_exponential(n1, settings.time_step)
        coordinates = np.empty((steps + 1,) + y0.shape)
        coordinates[0] = y0
        for j in range(steps):
            np.matmul(phi, coordinates[j], out=coordinates[j + 1])
        return coordinates
    # imported here: scipy.integrate is about a third of the package's
    # import time, and only this mode needs it
    from scipy.integrate import solve_ivp

    times = settings.times
    columns = []
    for i in range(y0.shape[1]):
        sol = solve_ivp(
            lambda _, y: n1 @ y,
            (0.0, settings.time_bound),
            y0[:, i],
            method="DOP853",
            t_eval=times,
            atol=settings.integrator_abs_tol,
            rtol=settings.integrator_rel_tol,
        )
        if not sol.success:
            raise NumericalFailureError(
                f"basis column {i} integration failed: {sol.message}"
            )
        columns.append(sol.y)
    stacked = np.stack(columns, axis=-1)  # (r, steps + 1, k)
    return np.ascontiguousarray(stacked.transpose(1, 0, 2))


def compute_reach(sys, theta0, settings, tol=DEFAULT_TOLERANCES):
    """Reachable set of an autonomous DAE from a consistent initial star.

    Pipeline: decouple (chain, admissible projectors, subsystem
    coefficients), verify that the initial star lies in the consistent
    space (raising :class:`InconsistentInitialSetError` with the
    certificate otherwise), propagate the basis's ODE coordinates, and
    lift every propagated basis back to the full state in one batched
    product with ``psi @ W``.  A time grid too long for numpy to hold
    raises :class:`NumericalFailureError`.
    """
    started = time.perf_counter()
    dec = decouple_system(sys, tol)
    gamma = build_consistent_matrix(dec)
    certificate = check_initial_star(gamma, theta0, tol)
    decouple_seconds = time.perf_counter() - started
    if not certificate.consistent:
        raise InconsistentInitialSetError(certificate)

    started = time.perf_counter()
    try:
        coordinates = propagate_basis(dec, theta0, settings)
        psi = build_psi(dec)
        bases = (psi @ dec.ode_frame[0]) @ coordinates
    except (ValueError, MemoryError) as exc:  # numpy refused the grid's size
        raise NumericalFailureError(
            f"{settings.num_steps:.3g} steps are too many for an array: {exc}"
        ) from exc
    bases.flags.writeable = coordinates.flags.writeable = False  # shared by star views
    reach_seconds = time.perf_counter() - started
    return ReachResult(
        bases=bases,
        initial=theta0,
        psi=psi,
        ode_coordinates=coordinates,
        settings=settings,
        n_orig=sys.n_orig,
        decoupled=dec,
        certificate=certificate,
        timings={"decouple_s": decouple_seconds, "reach_s": reach_seconds},
    )
