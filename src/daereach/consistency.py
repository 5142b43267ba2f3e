"""Consistent-space construction and initial-set consistency checking.

Solutions of a DAE cannot start anywhere: the algebraic subsystems, and
their differentiated hidden constraints, pin part of the state.  Stacking
those conditions gives a single matrix ``Gamma`` whose kernel is exactly
the set of admissible initial states, so a star-set initial condition is
consistent for *all* coefficient choices iff ``Gamma`` annihilates its
basis.  The check needs only ``Gamma V``: the decoupled system's factored
projectors act on the ``n x k`` basis, and the reconstruction maps act
through the ODE frame ``W`` the reach path builds anyway, so no ``n x n``
matrix is formed.  The dense ``Gamma`` is the same product with the
identity.
"""

from dataclasses import dataclass

import numpy as np

from .decoupling import DecoupledSystem
from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOLERANCES, as_matrix

__all__ = ["ConsistencyCertificate", "build_consistent_matrix", "check_initial_star"]


@dataclass(frozen=True)
class ConsistencyCertificate:
    """Result of checking a star basis against the consistent space.

    ``max_residual`` is the entrywise max of ``Gamma @ V``; the basis is
    consistent iff it does not exceed ``tolerance``.  ``worst_column`` and
    ``worst_row_block`` locate the largest violation (block ``i`` is the
    condition pinning constraint subsystem ``i + 2``), so an inconsistent
    set comes with a pointer to the offending basis vector and constraint
    level instead of a bare failure.
    """

    max_residual: float
    consistent: bool
    tolerance: float
    worst_column: int | None = None
    worst_row_block: int | None = None


def build_consistent_matrix(dec, V=None):
    """Stack the initial-condition constraints of every AC subsystem,
    applied to ``V`` (``Gamma V``; ``Gamma`` itself when ``V`` is omitted).

    For each algebraic subsystem ``i`` the solution satisfies
    ``x_i = maps[i] @ x_1`` with the derivative terms eliminated, so an
    admissible initial state must obey
    ``projector_i x - maps[i] (projector_1 x) = 0``.  One block per
    constraint subsystem, stacked top to bottom: ``mu`` blocks of ``n``
    rows each.  The projectors act on ``V`` through the decoupled system's
    factors, and since ``projector_1 V = W y`` with ``y = W^T projector_1
    V`` for the ODE frame ``W``, ``maps[i] (projector_1 V) = (maps[i] W) y``
    (:attr:`~daereach.decoupling.DecoupledSystem.frame_maps`, which the
    lift shares).
    """
    V = np.eye(dec.n) if V is None else V
    parts = dec.apply_projectors(V)
    y = dec.ode_basis.T @ parts[1]
    maps = dec.frame_maps
    return np.vstack([parts[i] - maps[i] @ y for i in dec.subsystem_ids[1:]])


def check_initial_star(gamma, theta0, tol=DEFAULT_TOLERANCES):
    """Certificate for ``Gamma @ V(0) == 0`` over the star's basis.

    ``gamma`` is the matrix of :func:`build_consistent_matrix`, or the
    decoupled system itself, whose conditions then act on the basis
    without forming the matrix.  Never raises on inconsistency; the caller
    decides whether an inconsistent set is fatal.
    """
    factored = isinstance(gamma, DecoupledSystem)
    if not factored:
        gamma = as_matrix(gamma, "gamma")
    columns = gamma.n if factored else gamma.shape[1]
    if columns != theta0.dim:
        raise DimensionMismatchError(
            f"gamma has {columns} columns but the star lives in "
            f"dimension {theta0.dim}"
        )
    V = np.asarray(theta0.V, dtype=float)
    residual = np.abs(build_consistent_matrix(gamma, V) if factored else gamma @ V)
    max_residual = float(residual.max())
    consistent = max_residual <= tol.consistency_tol
    worst_column = worst_block = None
    if not consistent:
        row, col = np.unravel_index(np.argmax(residual), residual.shape)
        worst_column = int(col)
        worst_block = int(row // theta0.dim)
    return ConsistencyCertificate(
        max_residual=max_residual,
        consistent=consistent,
        tolerance=tol.consistency_tol,
        worst_column=worst_column,
        worst_row_block=worst_block,
    )
