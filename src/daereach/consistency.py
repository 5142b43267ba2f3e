"""Initial-set consistency checking.

Solutions of a DAE cannot start anywhere: the algebraic subsystems, and
their differentiated hidden constraints, pin part of the state.  Every
solution is its ODE component lifted, ``x = psi Pi x``, so the consistent
states are the range of the lift ``psi W`` the reach path builds anyway,
and a state is consistent iff its own lift reproduces it: ``psi W W^T Pi
v = v``.  A star-set initial condition is consistent for *all*
coefficient choices iff every column of its basis passes.  The check acts
on the ``n x k`` basis through the decoupled system's factors, so no ``n
x n`` matrix is formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import CONSISTENCY_TOL

__all__ = ["ConsistencyCertificate", "check_initial_star"]


@dataclass(frozen=True)
class ConsistencyCertificate:
    """Result of checking a star basis against the consistent space.

    ``max_residual`` is the entrywise max of the lift residual ``|psi W
    W^T Pi V - V|``; the basis is consistent iff it does not exceed
    ``tolerance``, :data:`~daereach.linalg.CONSISTENCY_TOL`.
    ``worst_column`` and ``worst_row_block`` locate the largest violation
    (block ``i`` is the residual's component in constraint subsystem ``i
    + 2``, the condition that pins that subsystem), so an inconsistent set
    comes with a pointer to the offending basis vector and constraint level
    instead of a bare failure.
    """

    max_residual: float
    consistent: bool
    tolerance: float
    worst_column: int | None = None
    worst_row_block: int | None = None


def check_initial_star(dec, theta0):
    """Certificate for ``psi W W^T Pi V(0) == V(0)`` over the star's basis.

    ``dec`` is the decoupled system.  The residual ``R = psi W W^T Pi V -
    V`` of an inconsistent basis is located by its subsystem components
    ``projectors[i] R``, ``i = 2 .. mu + 1``: with admissible projectors
    ``projectors[i] R = maps[i] Pi V - projectors[i] V``, the condition
    that subsystem ``i`` of a solution is ``maps[i]`` applied to its ODE
    component.  Never raises on inconsistency; the caller decides whether
    an inconsistent set is fatal.
    """
    if dec.n != theta0.dim:
        raise DimensionMismatchError(
            f"the system has dimension {dec.n} but the star lives in "
            f"dimension {theta0.dim}"
        )
    V = np.asarray(theta0.V, dtype=float)
    residual = dec.lift @ (dec.ode_basis.T @ dec.ode_component(V)) - V
    max_residual = float(np.abs(residual).max())
    consistent = max_residual <= CONSISTENCY_TOL
    worst_column = worst_block = None
    if not consistent:
        parts = dec.apply_projectors(residual)
        blocks = np.abs(np.stack([parts[i] for i in range(2, dec.mu + 2)]))
        block, _, col = np.unravel_index(np.argmax(blocks), blocks.shape)
        worst_column, worst_block = int(col), int(block)
    return ConsistencyCertificate(
        max_residual=max_residual,
        consistent=consistent,
        tolerance=CONSISTENCY_TOL,
        worst_column=worst_column,
        worst_row_block=worst_block,
    )
