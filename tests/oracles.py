"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own code paths: the
matrix exponential is a scaled Taylor series instead of a Pade
approximant, exact solutions come from a canonical-form construction
instead of the projector chain, feasibility is decided by vertex
enumeration instead of simplex pivots (or by scipy's HiGHS solver, a
second LP backend), determinants over integer matrices are computed
exactly with fraction-free elimination, and the Stokes model is assembled
face by face instead of from Kronecker products.  The
reference chain takes a full SVD of every chain matrix, the terminal one
included, and inverts by LU; the reference decoupling and reach path
rebuilds the admissible chain the direct way (rank-checked rebuilt
matrices, LU inverses), multiplies out the decoupled coefficients, ``psi``
and the consistent matrix as dense products of its projectors, and
propagates the full ``n x n`` ODE subsystem or, for the ODE coordinates,
one step at a time.  The consistent space has a second oracle that shares
no projector at all: the finite right deflating subspace of the pencil
from an ordered QZ decomposition.  Two faster package paths keep the
slower form they replaced as a reference: the decoupled operator with a
dense product through every kernel basis, where the package gathers and
scatters rows for a unit-vector basis, and the terminal certificate with
an SVD of its small block, where the package takes an LU.  The chain that
stored every chain matrix it formed is kept too, as the bytes the
package's matrices rebuilt on read must equal.

The helpers at the end are conveniences rather than oracles: a reference
rank, star sampling and linear images over the package's own
:class:`~daereach.StarSet`, a star whose predicate is never checked, and
the one writer of JSON input files.
"""

import dataclasses
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from daereach.linalg import RowSparse


def expm_taylor(M, t, terms=40):
    """exp(M t) by scaled-and-squared Taylor summation."""
    M = np.asarray(M, dtype=float) * t
    norm = np.linalg.norm(M, np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    scaled = M / (2.0**squarings)
    acc = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def exact_int_det(M):
    """Exact determinant of an integer-valued matrix (Bareiss elimination)."""
    A = [[Fraction(int(round(v)), 1) for v in row] for row in np.asarray(M)]
    n = len(A)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
            A[i][k] = Fraction(0)
        prev = A[k][k]
    det = sign * A[n - 1][n - 1]
    assert det.denominator == 1
    return int(det)


def polytope_vertices(C, d, tol=1e-9):
    """All vertices of {x : C x <= d} by brute-force subset enumeration."""
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    p, k = C.shape
    slack = tol * np.maximum(1.0, np.abs(d))
    found = []
    for rows in combinations(range(p), k):
        sub = C[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12 * max(1.0, np.abs(sub).max()) ** k:
            continue
        x = np.linalg.solve(sub, d[list(rows)])
        if np.all(C @ x <= d + slack):
            found.append(x)
    if not found:
        return np.empty((0, k))
    verts = np.array(found)
    _, keep = np.unique(np.round(verts, 9), axis=0, return_index=True)
    return verts[np.sort(keep)]


def scipy_feasibility_kernel(Gbar, fbar, tol=None):
    """Some ``alpha`` with ``Gbar @ alpha <= fbar``, or ``None`` if there is
    none, from scipy's HiGHS solver; the call shape of
    :func:`daereach.feasibility_check`, so ``verify`` takes it as ``kernel``."""
    from scipy.optimize import linprog

    from daereach import NumericalFailureError

    result = linprog(
        np.zeros(Gbar.shape[1]),
        A_ub=Gbar,
        b_ub=fbar,
        bounds=[(None, None)] * Gbar.shape[1],
        method="highs",
    )
    if result.status == 0:
        return result.x
    if result.status == 2:
        return None
    raise NumericalFailureError(f"scipy linprog failed: {result.message}")


def linprog_extrema(C, d, H):
    """``(min, max)`` of ``h @ alpha`` over ``{C alpha <= d}`` for every row
    ``h`` of ``H`` (shape ``(..., k)``), from scipy's HiGHS solver; ``None``
    when some row is unbounded."""
    from scipy.optimize import linprog

    H = np.asarray(H, dtype=float)
    extrema = np.empty(H.shape[:-1] + (2,))
    free = [(None, None)] * H.shape[-1]
    for index in np.ndindex(H.shape[:-1]):
        for side, sign in enumerate((1.0, -1.0)):
            result = linprog(sign * H[index], A_ub=C, b_ub=d, bounds=free, method="highs")
            if result.status == 3:
                return None
            assert result.status == 0, result.message
            extrema[index + (side,)] = sign * result.fun
    return extrema


def random_polytope(rng, width, cuts):
    """A box around the origin cut by random halfspaces that keep a known
    interior point; bounded and nonempty by construction."""
    C = [np.eye(width), -np.eye(width)]
    d = [rng.uniform(0.5, 1.5, size=width), rng.uniform(0.5, 1.5, size=width)]
    centre = rng.uniform(-0.3, 0.3, size=width)
    for _ in range(cuts):
        row = rng.normal(size=width)
        C.append(row[None, :])
        d.append([row @ centre + rng.uniform(0.05, 1.0)])
    return np.vstack(C), np.concatenate(d)


def scrambled_box(rng, lower, upper):
    """``C alpha <= d`` for ``lower <= alpha <= upper``, written the hard way:
    every bound row scaled by a random positive factor, some duplicated,
    a looser redundant row per side, all in random order."""
    k = len(lower)
    rows, bounds = [], []
    for i in range(k):
        e = np.eye(k)[i]
        for sign, bound in ((1.0, upper[i]), (-1.0, -lower[i])):
            for extra in (0.0, rng.uniform(0.1, 2.0)):  # the bound, then a looser one
                scale = rng.uniform(0.1, 10.0)
                rows.append(scale * sign * e)
                bounds.append(scale * (bound + extra))
            if rng.random() < 0.5:  # a duplicate of the tight row
                rows.append(rows[-2].copy())
                bounds.append(bounds[-2])
    order = rng.permutation(len(rows))
    return np.array(rows)[order], np.array(bounds)[order]


def bruteforce_feasible(C, d, box=10.0, tol=1e-9):
    """Feasibility of {C x <= d} for instances known to be bounded by
    ``|x_i| <= box``; decided by vertex enumeration on the boxed system."""
    C = np.asarray(C, dtype=float)
    k = C.shape[1]
    boxed_C = np.vstack([C, np.eye(k), -np.eye(k)])
    boxed_d = np.concatenate([np.asarray(d, float), np.full(2 * k, box)])
    return polytope_vertices(boxed_C, boxed_d, tol).shape[0] > 0


def stokes_stencil(k):
    """``(E, A, B, center_rows)`` of the ``k x k`` Stokes model, assembled
    face by face from the 5-point stencil and the face difference, with
    index arithmetic on the documented ordering (``u`` faces ``(i, j)``,
    ``i`` in 1..k-1, then ``v`` faces, ``j`` in 1..k-1, then the pressures
    without cell (0, 0); the second index fastest in each).

    Each diagonal entry sums its sides as the stencil lists them: both
    normal sides (a neighbour, or a boundary face carrying zero, cost
    ``1/h^2`` each), then the lower and the upper tangential side (a wall
    face's mirrored ghost costs ``2/h^2``).
    """
    h = 1.0 / k
    inv_h2, inv_h = 1.0 / (h * h), 1.0 / h
    n_u = (k - 1) * k
    n_v = 2 * n_u
    n = n_v + k * k - 1

    def u(i, j):
        return (i - 1) * k + j if 1 <= i < k and 0 <= j < k else None

    def v(i, j):
        return n_u + i * (k - 1) + j - 1 if 0 <= i < k and 1 <= j < k else None

    def p(i, j):
        return None if (i, j) == (0, 0) else n_v + i * k + j - 1

    # (row map, face, normal sides, tangential sides, cells behind and ahead)
    faces = [
        (u, (i, j), [(i - 1, j), (i + 1, j)], [(i, j - 1), (i, j + 1)], [(i - 1, j), (i, j)])
        for i in range(1, k)
        for j in range(k)
    ] + [
        (v, (i, j), [(i, j - 1), (i, j + 1)], [(i - 1, j), (i + 1, j)], [(i, j - 1), (i, j)])
        for i in range(k)
        for j in range(1, k)
    ]
    A = np.zeros((n, n))
    for index, face, normal, tangential, cells in faces:
        row = index(*face)
        diag = 0.0
        for side in normal:
            if index(*side) is not None:
                A[row, index(*side)] = inv_h2
            diag -= inv_h2
        for side in tangential:
            if index(*side) is not None:
                A[row, index(*side)] = inv_h2
                diag -= inv_h2
            else:
                diag -= 2.0 * inv_h2
        A[row, row] = diag
        for cell, value in zip(cells, (inv_h, -inv_h)):
            if p(*cell) is not None:
                A[row, p(*cell)] = A[p(*cell), row] = value

    E = np.zeros((n, n))
    E[:n_v, :n_v] = np.eye(n_v)
    B = np.zeros((n, 1))
    B[u(max(1, k // 2), (k - 1) // 2), 0] = 1.0
    c = (k - 1) // 2
    return E, A, B, (u(c + 1, c), v(c, c + 1))


class CanonicalDae:
    """A DAE built from a canonical split into dynamic and nilpotent parts.

    ``E = S diag(I_d, N) T`` and ``A = S diag(J, I_a) T`` with ``N``
    nilpotent; the tractability index equals the largest nilpotent block,
    solutions are ``x(t) = T^{-1} [exp(J t) z1(0); 0]``, and an initial
    state is consistent iff the trailing ``a`` entries of ``T x0`` vanish.
    This gives exact references for index, consistency, and trajectories
    that never touch the package's projector machinery.

    With ``semi_explicit`` the left transform ``S`` only mixes the zero rows
    of ``diag(I_d, N)`` among themselves and the other rows among
    themselves, so ``E`` keeps one exactly-zero row per nilpotent block.
    """

    def __init__(self, rng, dynamic_dim, blocks, conditioning=2.0, semi_explicit=False):
        a = sum(blocks)
        n = dynamic_dim + a
        J = rng.normal(size=(dynamic_dim, dynamic_dim))
        # shift to keep trajectories bounded over unit-scale horizons
        J -= (np.abs(np.linalg.eigvals(J).real).max() + 0.3) * np.eye(dynamic_dim)
        N = np.zeros((a, a))
        offset = 0
        for size in blocks:
            for i in range(size - 1):
                N[offset + i, offset + i + 1] = 1.0
            offset += size
        if semi_explicit:
            zero = np.concatenate([np.zeros(dynamic_dim, bool), ~N.any(axis=1)])
            S = np.zeros((n, n))
            for rows in (np.flatnonzero(~zero), np.flatnonzero(zero)):
                block = np.linalg.qr(rng.normal(size=(rows.size, rows.size)))[0]
                S[np.ix_(rows, rows)] = block * rng.uniform(
                    1.0 / conditioning, conditioning, size=rows.size
                )
        else:
            S = np.linalg.qr(rng.normal(size=(n, n)))[0]
            S = S * rng.uniform(1.0 / conditioning, conditioning, size=n)
        T = np.linalg.qr(rng.normal(size=(n, n)))[0]
        T = T * rng.uniform(1.0 / conditioning, conditioning, size=n)[:, None]
        self.J = J
        self.dynamic_dim = dynamic_dim
        self.nilpotent_dim = a
        self.index = max(blocks)
        self.T = T
        self.T_inv = np.linalg.inv(T)
        self.E = S @ np.block(
            [[np.eye(dynamic_dim), np.zeros((dynamic_dim, a))], [np.zeros((a, dynamic_dim)), N]]
        ) @ T
        self.A = S @ np.block(
            [[J, np.zeros((dynamic_dim, a))], [np.zeros((a, dynamic_dim)), np.eye(a)]]
        ) @ T

    def consistent_point(self, rng, scale=1.0):
        z1 = scale * rng.normal(size=self.dynamic_dim)
        return self.T_inv @ np.concatenate([z1, np.zeros(self.nilpotent_dim)])

    def consistent_basis(self, rng, width, scale=1.0):
        return np.column_stack(
            [self.consistent_point(rng, scale) for _ in range(width)]
        )

    def exact_states(self, x0, times):
        """Exact solution rows at the requested times (independent
        integrator: error-controlled RK on the dynamic block)."""
        z0 = self.T @ x0
        assert np.abs(z0[self.dynamic_dim :]).max() < 1e-8, "inconsistent start"
        sol = solve_ivp(
            lambda _, z: self.J @ z,
            (0.0, float(times[-1])),
            z0[: self.dynamic_dim],
            method="DOP853",
            t_eval=times,
            rtol=1e-12,
            atol=1e-14,
        )
        assert sol.success
        z1 = sol.y  # (d, len(times))
        full = np.vstack([z1, np.zeros((self.nilpotent_dim, len(times)))])
        return (self.T_inv @ full).T


def weierstrass_auto(rng, dynamic_dim, blocks):
    """``(E, A)`` in permuted Weierstrass form: ``E = P diag(D, N) Q`` and
    ``A = P diag(J, I) Q`` with ``P``, ``Q`` permutation matrices, ``D``
    diagonal with signed entries over four orders of magnitude, ``J`` a
    random stable block and ``N`` nilpotent with Jordan blocks of the given
    sizes, so the index is the largest of them and ``E`` is a scaled column
    selection."""
    a = sum(blocks)
    n = dynamic_dim + a
    D = rng.choice([-1.0, 1.0], size=dynamic_dim) * 10.0 ** rng.uniform(-2, 2, size=dynamic_dim)
    J = rng.normal(size=(dynamic_dim, dynamic_dim))
    J -= (np.abs(np.linalg.eigvals(J).real).max() + 0.3) * np.eye(dynamic_dim)
    N = np.zeros((a, a))
    offset = 0
    for size in blocks:
        for i in range(size - 1):
            N[offset + i, offset + i + 1] = 1.0
        offset += size
    E = scipy.linalg.block_diag(np.diag(D), N)
    A = scipy.linalg.block_diag(J, np.eye(a))
    rows, cols = rng.permutation(n), rng.permutation(n)
    return E[rows][:, cols], A[rows][:, cols]


def box_star(rng, gamma, dim, width, rcond=1e-9):
    """A consistent star for the system with consistency matrix ``gamma``:
    random basis columns orthogonally projected into Ker(gamma), with a
    random box predicate around zero."""
    from scipy.linalg import null_space

    from daereach import StarSet

    kernel = null_space(gamma, rcond=rcond)
    assert kernel.shape[1] > 0, "consistent space is trivial"
    basis = kernel @ (kernel.T @ rng.normal(size=(dim, width)))
    norms = np.linalg.norm(basis, axis=0)
    assert norms.min() > 1e-10, "projected basis collapsed"
    basis /= norms
    lows = rng.uniform(-1.0, 0.0, size=width)
    highs = lows + rng.uniform(0.2, 1.0, size=width)
    C = np.vstack([np.eye(width), -np.eye(width)])
    d = np.concatenate([highs, -lows])
    return StarSet(basis, C, d)


def _orthogonal_kernel(Z, rel_tol):
    """Orthogonal kernel projector of ``Z`` and whether ``Z`` has full rank."""
    _, s, wt = np.linalg.svd(Z)
    rank = int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0.0 else 0
    basis = wt[rank:].T
    return basis @ basis.T, rank == Z.shape[0]


def _lu_inverse(Z):
    return np.linalg.solve(Z, np.eye(Z.shape[0]))


def finite_deflating_subspace(auto, cutoff=1e-3):
    """``(Z_f, finite, infinite)`` from an ordered real QZ decomposition of
    the pencil ``(A, E)`` (Moler & Stewart, SINUM 1973), with no projector
    chain: ``Z_f`` is an orthonormal basis of the right deflating subspace
    of the finite eigenvalues, the consistent initial states of ``E x' =
    A x`` (Kunkel & Mehrmann, 2006).

    With ``A`` and ``E`` scaled to unit 2-norm, an eigenvalue ``alpha /
    beta`` counts as finite when ``|beta| / hypot(alpha, beta)`` exceeds
    ``cutoff``.  An infinite eigenvalue of a nilpotent block of size
    ``nu`` is computed with ``|beta|`` up to about ``eps^(1/nu)``, so the
    cutoff sits well above ``eps^(1/3)``.  ``finite`` is the smallest
    value above the cutoff and ``infinite`` the largest at or below it
    (``0.0`` when there is none): the gap the decision relies on.
    """
    A, E = auto.A.dense(), auto.E.dense()
    A, E = A / np.linalg.norm(A, 2), E / np.linalg.norm(E, 2)

    def chordal(alpha, beta):
        return np.abs(beta) / np.hypot(np.abs(alpha), np.abs(beta))

    *_, alpha, beta, _, Z = scipy.linalg.ordqz(
        A, E, sort=lambda a, b: chordal(a, b) > cutoff, output="real"
    )
    values = chordal(alpha, beta)
    finite = values > cutoff
    return (
        Z[:, : np.count_nonzero(finite)],
        float(values[finite].min(initial=np.inf)),
        float(values[~finite].max(initial=0.0)),
    )


def _extend_chain(E, A, Q, P, q):
    Q.append(q)
    P.append(np.eye(len(q)) - q)
    E.append(E[-1] - A[-1] @ q)
    A.append(A[-1] @ P[-1])


def reference_chain(auto, rel_tol=1e-9):
    """``(E, A, Q, P, mu)`` of the raw chain of orthogonal kernel projectors,
    built to its first full-rank ``E_mu`` (``mu <= 3``) with a full SVD of
    every chain matrix, the terminal one included."""
    E, A, Q, P = [auto.E.dense()], [auto.A.dense()], [], []
    for mu in range(4):
        q, nonsingular = _orthogonal_kernel(E[-1], rel_tol)
        if nonsingular:
            break
        assert mu < 3, "index above 3"
        _extend_chain(E, A, Q, P, q)
    assert mu >= 1, "E is nonsingular"
    return E, A, Q, P, mu


class ReferenceDecoupled:
    """The dense decoupled system: ``N``, ``L3``/``L4``/``Z4``, ``projectors``,
    the reconstruction ``maps``, ``psi`` and the consistent matrix
    ``gamma``, each multiplied out as ``n x n`` products of the dense chain
    projectors (the closed forms the package applies in factored form)."""

    def __init__(self, mu, Q, P, terminal_inv, source):
        n = len(source)
        into_state = terminal_inv @ source
        self.mu, self.n = mu, n
        self.L3 = self.L4 = self.Z4 = None
        if mu == 1:
            fronts = projectors = {1: P[0], 2: Q[0]}
        elif mu == 2:
            fronts = {1: P[0] @ P[1], 2: P[0] @ Q[1], 3: Q[0] @ P[1]}
            projectors = {1: fronts[1], 2: fronts[2], 3: Q[0]}
            self.L3 = Q[0] @ Q[1]
        else:
            p0p1, p0q1, q0p1 = P[0] @ P[1], P[0] @ Q[1], Q[0] @ P[1]
            fronts = {1: p0p1 @ P[2], 2: p0p1 @ Q[2], 3: p0q1 @ P[2], 4: q0p1 @ P[2]}
            projectors = {1: fronts[1], 2: fronts[2], 3: p0q1, 4: Q[0]}
            self.L3, self.L4, self.Z4 = p0q1 @ Q[2], Q[0] @ Q[1], q0p1 @ Q[2]
        self.projectors = projectors
        self.N = {i: front @ into_state for i, front in fronts.items()}
        couplings = {"L3": self.L3, "L4": self.L4, "Z4": self.Z4}
        maps = self.maps = dense_maps(self.N, couplings)
        self.psi = sum(maps.values())
        pi = projectors[1]
        self.gamma = np.vstack([projectors[i] - maps[i] @ pi for i in sorted(maps)[1:]])


def dense_maps(N, couplings):
    """The reconstruction maps ``{i: maps[i]}`` multiplied out from dense
    coefficients ``N`` (keyed ``1 .. mu + 1``) and derivative multipliers
    ``couplings`` (``"L3"``, ``"L4"``, ``"Z4"`` as the index has them):
    each constraint component of a solution is ``maps[i] x_1``, with the
    derivative terms eliminated through the ODE dynamics ``x_1' = N[1]
    x_1``; ``psi`` is their sum."""
    mu, n1 = len(N) - 1, N[1]
    maps = {1: np.eye(n1.shape[0]), 2: N[2]}
    if mu >= 2:
        maps[3] = N[3] + couplings["L3"] @ N[2] @ n1
    if mu == 3:
        L3, L4, Z4 = couplings["L3"], couplings["L4"], couplings["Z4"]
        maps[4] = N[4] + L4 @ (N[3] @ n1 + L3 @ N[2] @ n1 @ n1) + Z4 @ N[2] @ n1
    return maps


def reference_decoupled(auto, rel_tol=1e-9):
    """The decoupled system by the direct path, as a :class:`ReferenceDecoupled`.

    The raw chain is :func:`reference_chain`, its ``E_mu`` inverted by LU;
    the admissible correction then rebuilds the chain matrices one
    corrected projector at a time, takes the index-3 intermediate kernel
    from a fresh SVD, inverts every matrix it needs by LU, and rank-checks
    the rebuilt terminal matrix before inverting it.
    """
    n = auto.n
    E, A, Q, P, mu = reference_chain(auto, rel_tol)

    raw_inv = _lu_inverse(E[mu])
    raw_Q, raw_A = list(Q), list(A)
    del E[2:], A[2:], Q[1:], P[1:]
    if mu == 2:
        _extend_chain(E, A, Q, P, -raw_Q[1] @ raw_inv @ raw_A[1])
    elif mu == 3:
        q2_tilde = -raw_Q[2] @ raw_inv @ raw_A[2]
        _extend_chain(E, A, Q, P, -raw_Q[1] @ (np.eye(n) - q2_tilde) @ raw_inv @ raw_A[1])
        q2_orth, _ = _orthogonal_kernel(E[2], rel_tol)
        e3_orth = E[2] - A[2] @ q2_orth
        assert _orthogonal_kernel(e3_orth, rel_tol)[1], "singular intermediate matrix"
        _extend_chain(E, A, Q, P, -q2_orth @ _lu_inverse(e3_orth) @ A[2])
    assert _orthogonal_kernel(E[-1], rel_tol)[1], "singular rebuilt terminal matrix"
    # index 1 feeds the original A through E_1^{-1}, higher indices A_mu
    return ReferenceDecoupled(mu, Q, P, _lu_inverse(E[-1]), A[0] if mu == 1 else A[mu])


def kernel_factors(system):
    """``[(K_j, R_j)]``: the kernel bases and the ``R_j`` of the projectors
    ``Q_j = K_j R_j`` of a package raw chain (``R_j = K_j^T``) or decoupled
    system (its corrections, and ``K_j^T`` where it keeps ``None``)."""
    raw = getattr(system, "raw", system)
    R = getattr(system, "R", (None,) * raw.mu)
    return [(step.K, step.K.T if R_j is None else R_j) for step, R_j in zip(raw.steps, R)]


def chain_projectors(system):
    """``(Q, P)``: the dense projectors ``Q_j = K_j R_j`` and ``P_j = I - Q_j``
    of a package raw chain or decoupled system, multiplied out from its
    factors (:func:`kernel_factors`)."""
    Q = [K @ R for K, R in kernel_factors(system)]
    return Q, [np.eye(system.n) - q for q in Q]


def chain_matrices(system):
    """``(E, A)``: the dense chain matrices ``E_0 .. E_mu`` and ``A_0 .. A_mu``
    rebuilt from a package raw chain's ``E_0``, ``A_0`` and kernel images
    ``A_j K_j``, with the projectors ``Q_j = K_j R_j`` of ``system``: the
    raw chain's own, or a decoupled system's corrected ones.  Each step
    subtracts ``(A_j K_j) R_j`` from both matrices."""
    raw = getattr(system, "raw", system)
    E, A = [raw.E.dense()], [raw.A.dense()]
    for step, (_, R) in zip(raw.steps, kernel_factors(system)):
        E.append(E[-1] - step.image @ R)
        A.append(A[-1] - step.image @ R)
    return E, A


def chain_sequences(chain):
    """``(E_seq, A_seq)``: the singular chain matrices ``[E_0 .. E_{mu-1}]``
    and ``[A_0 .. A_{mu-1}]`` of a package raw chain as dense arrays,
    replayed from its ``E`` and ``A`` through its steps, each ``X_{j+1} =
    X_j - (A_j K_j) K_j^T`` taken as the chain takes it
    (:meth:`~daereach.decoupling.ChainStep.applied`)."""
    sequences = []
    for X in (chain.E, chain.A):
        seq = [X]
        for step in chain.steps[:-1]:
            seq.append(step.applied(seq[-1]))
        sequences.append([x.dense() for x in seq])
    return tuple(sequences)


def stored_chain(auto):
    """``(E, A, images)``: the singular chain matrices ``E_0 .. E_{mu-1}``,
    ``A_0 .. A_{mu-1}`` and the kernel images ``A_j K_j`` as a chain that
    keeps every matrix forms them, each from the one before with the
    package's own factorizations: ``E_{j+1} = E_j - A_j Q_j`` and ``A_{j+1}
    = A_j - A_j Q_j`` with the one product ``A_j Q_j = (A_j K_j) K_j^T``
    shared, or, for a unit-vector ``K_j``, ``A_j K_j`` subtracted from the
    kernel columns of a copy.  A dense ``K_j`` meets ``A_j`` as the
    package's does, through the stored entries of ``A_j`` as
    :class:`~daereach.linalg.RowSparse`, so the products share its order of
    operations; after unit-vector steps those are the entries of ``A`` in
    the columns none of them selected (``A_j`` is exactly zero on the
    others)."""
    from daereach.linalg import kernel_basis_and_inverse, rank_factors, rank_update_inverse

    E, A, images = [auto.E.dense()], [auto.A.dense()], []
    factors = rank_factors(E[0])
    while True:
        K, _ = kernel_basis_and_inverse(factors)
        columns = factors.kernel_columns
        if columns is not None:
            images.append(A[-1][:, columns])
        else:
            images.append(RowSparse.from_dense(A[-1]) @ K)
        if rank_update_inverse(factors, images[-1])[0] is not None:
            return E, A, images
        if columns is None:
            AQ = images[-1] @ K.T
            E_next, A_next = E[-1] - AQ, A[-1] - AQ
        else:
            E_next, A_next = E[-1].copy(), A[-1].copy()
            E_next[:, columns] -= images[-1]
            A_next[:, columns] -= images[-1]
        factors = rank_factors(E_next)
        if kernel_basis_and_inverse(factors)[1] is not None:  # E_mu took its own SVD
            return E, A, images
        E.append(E_next)
        A.append(A_next)


def dense_source(dec):
    """``A_mu'``, the source of a package decoupled system, multiplied out
    densely: the rebuilt chain's ``A_mu`` of :func:`chain_matrices` with its
    corrected projectors, or ``A_0`` at index 1."""
    return dec.raw.A.dense() if dec.mu == 1 else chain_matrices(dec)[1][dec.mu]


def dense_decoupled(dec):
    """A :class:`ReferenceDecoupled` multiplied out from the dense projectors,
    terminal inverse and source of the package's own decoupled system: the
    closed forms alone, with the package's rounding shared."""
    return ReferenceDecoupled(dec.mu, *chain_projectors(dec), dec.terminal_inverse, dense_source(dec))


def dense_correction(raw):
    """``(R, inverse)``: the index-2 correction of a package raw chain
    multiplied out densely from its on-read ``E_2^{-1}``, ``R = -(K^T
    E_2^{-1}) A_1`` and the corrected inverse ``E_2^{-1} + K ((K^T - R)
    E_2^{-1})``, with ``K`` the raw chain's kernel basis of ``E_1``."""
    K = raw.steps[-1].K
    inverse = raw.terminal_inverse
    R = -(K.T @ inverse) @ chain_sequences(raw)[1][-1]
    return R, inverse + K @ ((K.T - R) @ inverse)


def dense_residual(E, X):
    """``(max|E X - I|, bound)``: the residual of ``X`` as an inverse of
    ``E`` from one dense product, and ``2 n u max(|E| |X|)``, twice the
    rounding bound ``gamma_n |E| |X|`` of a computed product (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.5), within
    which two evaluations of the residual may differ."""
    n = E.shape[0]
    residual = np.abs(E @ X - np.eye(n)).max()
    return float(residual), 2.0 * n * 2.0**-53 * float((np.abs(E) @ np.abs(X)).max())


def dense_apply(dec, words, X, owned=False, rows=None):
    """``DecoupledSystem._apply`` with the dense products ``Q_j Y = K_j (R_j
    Y)`` for every kernel basis, unit vectors included: the reference the
    package's row masks must match byte for byte.  It forms every tail as a
    new array, so it never overwrites an ``owned`` input, and it forms
    ``R_{mu-1} X`` anew rather than take the ``rows`` it is handed."""
    done = {}
    products = {}
    for key, word in words.items():
        Y = X
        for j in reversed(range(len(word))):
            tail = word[j:]
            if (j, tail) not in done:
                q_tail = (j, "Q" + tail[1:])
                if q_tail not in done:
                    K, R = kernel_factors(dec)[j]
                    done[q_tail] = K @ (R @ Y)
                if tail[0] == "P":
                    done[j, tail] = Y - done[q_tail]
            Y = done[j, tail]
        products[key] = Y
    return products


def dense_admissibility_residual(dec):
    """``max ||(R_j K_i) R_i||_F`` over ``j > i`` with the dense ``R_j K_i``."""
    return max(
        (
            float(np.linalg.norm((R_j @ K_i) @ R_i))
            for j, (_, R_j) in enumerate(kernel_factors(dec))
            for K_i, R_i in kernel_factors(dec)[:j]
        ),
        default=0.0,
    )


def svd_certificate(Z, factors, image, margin, rel_tol=1e-9):
    """``(inverse, bound)`` of ``rank_update_inverse`` on ``Z`` from
    references of its own: ``C^{-1}`` and ``||C^{-1}||_F`` from an SVD of
    ``C``, and ``T^{-1}`` assembled densely as ``W T^{-1} U^T``.  ``U`` is
    the factors' row order multiplied out (or their matrix), and ``W = [W_1,
    K]`` joins the package's kernel basis ``K`` to ``W_1`` from a Householder
    QR ``M^T = W_1 L^T`` of the nonzero rows ``M = (U^T Z)[:rank]``, so the
    lead block ``L`` is triangular and inverted by back substitution; the
    factors' ``w`` and ``lead`` are not read.  ``inverse`` is ``None`` when
    the bound fails."""
    from daereach.linalg import kernel_basis_and_inverse

    n, rank = image.shape[0], factors.rank
    U = np.eye(n)[:, factors.left] if factors.left.ndim == 1 else factors.left
    w1, r = np.linalg.qr((U.T @ Z)[:rank].T)
    W = np.hstack([w1, kernel_basis_and_inverse(factors)[0]])
    lead, lead_inv = r.T, scipy.linalg.solve_triangular(r, np.eye(rank)).T
    top, low = np.split(U.T @ image, [rank])
    C = np.diag(factors.tail) - low
    uc, c, vct = np.linalg.svd(C)
    c_inv = (vct.T / c) @ uc.T
    T = np.block([[lead, -top], [np.zeros((n - rank, rank)), C]])
    T_inv = np.block([[lead_inv, lead_inv @ top @ c_inv], [np.zeros((n - rank, rank)), c_inv]])
    norm_sq = (T**2).sum()
    inv_norm_sq = (lead_inv**2).sum() + ((lead_inv @ top @ c_inv) ** 2).sum() + (c**-2.0).sum()
    bound = np.sqrt(norm_sq * inv_norm_sq)
    return (W @ T_inv @ U.T if bound * margin * rel_tol < 1.0 else None), bound


def reference_reach_bases(dec, V0, time_step, num_steps, adaptive=False, rtol=1e-8, atol=1e-12):
    """State bases at every instant by full ``n x n`` propagation of the ODE
    subsystem of a :class:`ReferenceDecoupled`: ``Pi V0`` pushed by
    ``expm(h N[1])`` each step, or with ``adaptive`` integrated column by
    column in ``n`` dimensions, then lifted by ``psi``."""
    n1 = dec.N[1]
    v1 = dec.projectors[1] @ V0
    if adaptive:
        times = np.arange(num_steps + 1) * time_step
        columns = []
        for column in v1.T:
            sol = solve_ivp(
                lambda _, x: n1 @ x, (0.0, times[-1]), column, method="DOP853",
                t_eval=times, rtol=rtol, atol=atol,
            )
            assert sol.success
            columns.append(sol.y)
        ode = np.stack(columns, axis=-1).transpose(1, 0, 2)
    else:
        phi = scipy.linalg.expm(time_step * n1)
        ode = [v1]
        for _ in range(num_steps):
            ode.append(phi @ ode[-1])
        ode = np.stack(ode)
    return dec.psi @ ode


def sequential_coordinates(dec, V0, time_step, num_steps):
    """ODE coordinates at every instant in ``dec.ode_basis``, one product with
    the step's transition matrix per instant, each from the one before."""
    from daereach.linalg import matrix_exponential

    W = dec.ode_basis
    y = [W.T @ (dec.projectors[1] @ V0)]
    phi = matrix_exponential(W.T @ (dec.apply_N(np.eye(dec.n))[1] @ W), time_step)
    for _ in range(num_steps):
        y.append(phi @ y[-1])
    return np.stack(y)


def numerical_rank(Z, rel_tol=1e-9):
    """Number of singular values of a full SVD above ``rel_tol`` times the
    largest; the zero matrix has rank 0."""
    s = np.linalg.svd(Z, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0])) if s.size and s[0] > 0.0 else 0


def sample_coefficients(star, count, seed):
    """``count`` coefficient vectors of ``star``'s predicate, shape (count, k):
    convex mixtures of its vertices with Dirichlet weights from a generator
    seeded by ``seed``.  The LP extrema of every coefficient run first
    unless the predicate is a box, so an unbounded or empty predicate
    raises :class:`UnboundedPredicateError` or :class:`EmptyPredicateError`."""
    star.support(0).extrema(np.eye(star.width)[None])
    vertices = star.coefficient_vertices()
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(vertices)), size=count)
    return weights @ vertices


def sample_points(star, count, seed):
    """``count`` states of ``star``, shape (count, n)."""
    return sample_coefficients(star, count, seed) @ star.V.T


def linear_image(star, T):
    """The star ``{T x : x in star}``: a new basis over the same predicate."""
    from daereach import DimensionMismatchError, StarSet

    T = np.asarray(T, dtype=float)
    if T.shape[1] != star.dim:
        raise DimensionMismatchError(
            f"map has {T.shape[1]} columns but the star lives in dimension {star.dim}"
        )
    return StarSet(T @ star.V, star.C, star.d)


def unchecked_star(V, C, d):
    """A :class:`~daereach.StarSet` over ``C alpha <= d`` built without the
    constructor, so an empty predicate is not refused."""
    from daereach import StarSet
    from daereach.linalg import readonly

    star = object.__new__(StarSet)
    star.V, star.C, star.d = (readonly(np.asarray(a, dtype=float)) for a in (V, C, d))
    return star


def write_json(path, **fields):
    """Write ``fields`` as one JSON document, numpy arrays as nested lists.
    ``json`` writes every float with ``repr``, so each loads back bit-exactly."""
    document = {
        key: np.asarray(value).tolist() if isinstance(value, (np.ndarray, RowSparse)) else value
        for key, value in fields.items()
    }
    Path(path).write_text(json.dumps(document))


def square_arrays(value, n):
    """The ``n x n`` arrays in ``value``, looking into dicts, lists and
    tuples (named tuples included) and into what a
    :class:`~daereach.linalg.RowSparse` holds (its dense form when it is
    kept dense)."""
    if isinstance(value, np.ndarray):
        return [value] if value.shape == (n, n) else []
    if isinstance(value, RowSparse):
        value = [value._dense, value.columns, value.values]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in square_arrays(item, n)]
    return []


def corrupt_solve_block(dec, reached, scale=1e-3, seed=0):
    """A copy of the decoupled system ``dec`` whose corrected terminal
    inverse ``F U^T + K Z`` (blocks of a row-gather certificate) has the
    rank-one corruption ``u v^T`` added to its ``m x n`` block ``Z``, of
    ``scale`` times ``max|Z|``.  ``v`` lies in the range of the block ``Y =
    A_mu' W`` that the frame solves for when ``reached``, and is orthogonal
    to it otherwise, so that ``v^T Y = 0`` up to rounding and the frame's
    one solve does not see it."""
    Y = dec._apply_source(dec.ode_basis, on_range=True)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(Y)[0]
    g = rng.normal(size=dec.n)
    v = Q @ (Q.T @ g) if reached else g - Q @ (Q.T @ g)
    *rest, (K, Z) = dec.inverse.terms
    u = rng.normal(size=Z.shape[0])
    uv = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    Z = Z + scale * np.abs(Z).max() * uv
    return dataclasses.replace(dec, inverse=dec.inverse._replace(terms=(*rest, (K, Z))))
