"""Built-in benchmark systems.

Two fully specified generators ship with the package: a four-state
interconnected rotating-masses model (tractability index 2 after the
input lift) and a family of semidiscretized Stokes flows on staggered
grids (index 2 at every grid size), assembled as Kronecker products of
one-dimensional operators into matrices allocated up front, so a grid
too large to hold fails before any work.  Everything else is expected to
arrive through the model-file loader.
"""

import numpy as np

from .model import DaeSystem, InputModel
from .starset import StarSet

__all__ = [
    "build_rotating_masses",
    "rotating_masses_initial_star",
    "build_stokes",
    "stokes_center_velocity_rows",
]


def build_rotating_masses():
    """Two rotating masses coupled by torques, driven by harmonic inputs.

    States are the angular velocities of both masses followed by the two
    coupling torques; the two inputs are externally applied torques whose
    own dynamics ``u' = [[0, 1], [-1, 0]] u`` make them sine/cosine
    signals.  Inertias are 1 and 2.  The two zero rows of ``E`` encode the
    torque balance constraints, which is what pushes the index to 2.

    Returns the system together with its input model.
    """
    E = np.diag([1.0, 2.0, 0.0, 0.0])
    A = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, -1.0],
            [-1.0, 1.0, 0.0, 0.0],
        ]
    )
    B = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [0.0, 0.0],
        ]
    )
    A_u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return DaeSystem(E, A, B), InputModel(A_u)


def rotating_masses_initial_star():
    """The consistent initial star conventionally used with this benchmark.

    The two basis columns are the unit vectors along ``(0,0,5,-5,-6,3)``
    and ``(0,0,0,0,1,2)`` over the stacked (state, input) coordinates:
    both satisfy every algebraic and hidden constraint of the lifted
    system exactly, so the star is consistent for all coefficients.  The
    predicate is the box ``alpha_1 in [0.1, 0.2]``, ``alpha_2 in [1.0,
    1.2]``.
    """
    v1 = np.array([0.0, 0.0, 5.0, -5.0, -6.0, 3.0]) / np.sqrt(95.0)
    v2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0]) / np.sqrt(5.0)
    V = np.column_stack([v1, v2])
    C = np.array(
        [
            [1.0, 0.0],
            [-1.0, 0.0],
            [0.0, 1.0],
            [0.0, -1.0],
        ]
    )
    d = np.array([0.2, -0.1, 1.2, -1.0])
    return StarSet(V, C, d)


def _path(m):
    """Nearest-neighbour coupling of ``m`` points on a line."""
    return np.eye(m, k=1, dtype=np.int8) + np.eye(m, k=-1, dtype=np.int8)


def build_stokes(grid_n):
    """Semidiscretized incompressible Stokes flow on the unit square.

    Finite differences on a uniform ``grid_n x grid_n`` staggered
    (marker-and-cell) grid with zero Dirichlet velocity on the boundary.
    Horizontal velocities ``u`` live on the interior vertical cell faces,
    indexed ``(i, j)`` with ``i`` in ``1..k-1`` and ``j`` in ``0..k-1``;
    vertical velocities ``v`` on the interior horizontal faces, ``i`` in
    ``0..k-1`` and ``j`` in ``1..k-1``; pressures at the cell centres,
    with cell ``(0, 0)`` pinned to zero so the pressure, otherwise defined
    only up to a constant, has a unique representative and the pencil
    stays regular.  The state stacks ``u``, ``v`` and ``p``, each with the
    second index fastest: ``n_v = 2 k (k - 1)`` velocities and
    ``n_p = k^2 - 1`` pressures, dimension ``3 k^2 - 2 k - 1`` for
    ``k = grid_n``.  The system has the block form

        E = [[I, 0], [0, 0]],   A = [[A11, A12], [A12^T, 0]]

    and the DAE has tractability index 2 at every grid size.  ``B``
    applies a unit force at one near-centre ``u`` unknown (a single input).

    Both blocks are Kronecker products of one-dimensional operators.  Per
    velocity component ``A11`` is the 5-point Laplacian: the neighbour
    couplings are ``kron(S, I) + kron(I, S)`` (times ``1/h^2``) along the
    component's normal and tangential lines.  A missing normal neighbour
    is a boundary face carrying zero, so every normal side costs ``1/h^2``
    on the diagonal; a tangential wall face is mirrored across the wall so
    the velocity vanishes at its midpoint, and that side costs ``2/h^2``.
    Each diagonal entry sums its sides in one fixed order -- both normal
    sides (``-2/h^2`` exactly), then the lower and the upper tangential
    side -- because the plain Kronecker sum rounds differently in the
    last bit for some ``k`` (5, 7 and 10 among them).  ``A12`` is the 1-D
    face difference ``(p_{c-1} - p_c) / h`` Kronecker-multiplied with the
    identity along the face, without the pinned cell's column.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    k = grid_n
    n_u = (k - 1) * k
    n_v = 2 * n_u
    n = n_v + k * k - 1
    E = np.zeros((n, n))
    A = np.zeros((n, n))
    velocities = np.arange(n_v)
    E[velocities, velocities] = 1.0

    h = 1.0 / k
    inv_h2 = 1.0 / (h * h)
    lower = np.full(k, inv_h2)
    lower[0] = 2.0 * inv_h2
    upper = np.full(k, inv_h2)
    upper[-1] = 2.0 * inv_h2
    # both normal sides, then the lower and the upper tangential side
    diag = (-2.0 * inv_h2 - lower) - upper
    # small integer factors: a float kron writes -0.0 where a -1 meets a zero
    ones_n, ones_t = np.eye(k - 1, dtype=np.int8), np.eye(k, dtype=np.int8)
    A[:n_u, :n_u] = inv_h2 * (np.kron(_path(k - 1), ones_t) + np.kron(ones_n, _path(k)))
    A[n_u:n_v, n_u:n_v] = inv_h2 * (np.kron(ones_t, _path(k - 1)) + np.kron(_path(k), ones_n))
    A[velocities, velocities] = np.concatenate([np.tile(diag, k - 1), np.repeat(diag, k - 1)])

    # face c sits between cells c - 1 and c
    diff = np.eye(k - 1, k, dtype=np.int8) - np.eye(k - 1, k, 1, dtype=np.int8)
    inv_h = 1.0 / h
    A[:n_u, n_v:] = inv_h * np.kron(diff, ones_t)[:, 1:]
    A[n_u:n_v, n_v:] = inv_h * np.kron(ones_t, diff)[:, 1:]
    A[n_v:, :n_v] = A[:n_v, n_v:].T

    B = np.zeros((n, 1))
    B[(k // 2 - 1) * k + (k - 1) // 2, 0] = 1.0
    E.flags.writeable = A.flags.writeable = False  # kept by DaeSystem, not copied
    return DaeSystem(E, A, B)


def stokes_center_velocity_rows(grid_n):
    """State-row indices of the two velocity components nearest the centre
    cell ``(c, c)``, ``c = (k - 1) // 2``: ``u`` on its face ``(c + 1, c)``
    and ``v`` on ``(c, c + 1)``, for use in observation directions and
    unsafe sets."""
    k = grid_n
    c = (k - 1) // 2
    return c * k + c, (k - 1) * k + c * (k - 1) + c
