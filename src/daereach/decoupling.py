"""Matrix-chain index computation, admissible projectors, and decoupling.

Starting from an autonomous pair ``(E, A)`` the chain

    E_0 = E,  A_0 = A,
    E_{j+1} = E_j - A_j Q_j,  A_{j+1} = A_j P_j,

with ``Q_j`` a projector onto ``Ker(E_j)`` and ``P_j = I - Q_j``,
terminates at the first nonsingular ``E_mu``; ``mu`` is the tractability
index.  With ``Q_j = K_j K_j^T`` for an orthonormal kernel basis ``K_j``,
both updates subtract the one rank-``m`` product ``(A_j K_j) K_j^T``.
One SVD per singular chain matrix gives its kernel basis and, through
it, its rank decision.  The terminal matrix takes no SVD of its own when
it can be certified nonsingular from the previous matrix's factors: in
them ``E_{j+1}`` is block upper triangular, so one ``m x m`` SVD gives its
inverse and a bound on its condition number
(:func:`~daereach.linalg.rank_update_inverse`).  A bound that does not
clear the rank cutoff with a margin, a singular block, and every singular
chain matrix fall back to the matrix's own SVD, which decides as it
always did.  Plain orthogonal kernel projectors generally violate
the admissibility property ``Q_j Q_i = 0`` for ``j > i`` that the
decoupled forms rely on, so they are corrected index-by-index (index 1
needs no correction) and the chain is rebuilt with the corrected
projectors.

The correction needs no new factorization of a rebuilt matrix.  If
``Q`` and ``Q'`` project onto the same kernel ``Ker E_j`` then
``E_j - A_j Q' = (E_j - A_j Q)(I - Q + Q')`` and
``(I - Q + Q')^{-1} = I + Q - Q'`` (Lamour, Maerz & Tischendorf, *DAEs:
A Projector Based Analysis*, 2013).  So the rebuilt chain's kernels and
terminal inverse follow from the raw chain's by products of rank ``m``
(every corrected projector is ``K_j R_j``); a residual
``max|E_mu' E_mu'^{-1} - I|`` checks the result.

Decoupling then splits the system into one ODE subsystem and ``mu``
algebraic-constraint subsystems with closed-form coefficient matrices.
The ODE subsystem lives on ``range(Pi)``, ``Pi = projectors[1]``, of
dimension ``r = trace(Pi)``; :attr:`DecoupledSystem.ode_basis` gives
``r``-dimensional coordinates on it.  Only indices 1 through 3 are
supported; higher indices raise.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    IndexTooHighError,
    IrregularPencilError,
    NonsingularEError,
    SingularMatrixError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    kernel_basis_and_inverse,
    rank_update_inverse,
    solve_inverse,
    svd_factors,
)
from .model import check_regularity

__all__ = [
    "MatrixChain",
    "DecoupledSystem",
    "compute_index_and_chain",
    "make_admissible",
    "decouple",
    "decouple_system",
]

MAX_SUPPORTED_INDEX = 3

# fixes the Gaussian test matrix behind the ODE frame, so every run of one
# system gets the same frame; no answer depends on the value
_FRAME_SEED = 0xF2A3E


@dataclass(frozen=True)
class MatrixChain:
    """The chain matrices and projectors up to the terminal index.

    ``E_seq`` and ``A_seq`` have length ``mu + 1`` (positions 0..mu), and
    ``Q_seq``/``P_seq`` have length ``mu``.  ``terminal_inverse`` is
    ``E_mu^{-1}``; ``E_mu``'s own SVD or the certificate on the previous
    matrix's factors proved it nonsingular.  ``admissible`` records whether the projectors satisfy
    ``Q_j Q_i = 0`` for ``j > i``; the chain built from raw orthogonal
    projectors is kept on ``raw`` after correction so both stages stay
    inspectable.  ``kernel_bases`` holds the orthonormal basis ``K_j``
    behind each orthogonal ``Q_j`` of a raw chain and ``kernel_images`` the
    products ``A_j K_j`` (both empty once corrected).
    ``condition_bound`` is the certified bound on ``cond_2(E_mu)`` of a raw
    chain whose terminal matrix took no SVD of its own, and ``None`` when
    that SVD decided (and on a corrected chain; see ``raw``).
    ``inverse_residual`` is the checked ``max|E_mu E_mu^{-1} - I|`` of a
    corrected chain (``None`` before).
    """

    E_seq: list
    A_seq: list
    Q_seq: list
    P_seq: list
    mu: int
    terminal_inverse: np.ndarray = field(repr=False)
    admissible: bool = False
    raw: "MatrixChain | None" = field(default=None, repr=False)
    kernel_bases: list = field(default=(), repr=False)
    kernel_images: list = field(default=(), repr=False)
    condition_bound: float | None = None
    inverse_residual: float | None = None

    @property
    def n(self):
        return self.E_seq[0].shape[0]


@dataclass(frozen=True)
class DecoupledSystem:
    """Coefficient matrices of the decoupled subsystems.

    Subsystem 1 is the ODE part ``x_1' = N[1] x_1``; subsystems 2..mu+1
    are algebraic constraints.  ``L3``, ``L4`` and ``Z4`` multiply
    derivative terms of lower constraint subsystems and are present only
    where the index calls for them.  ``projectors[i]`` extracts subsystem
    ``i``'s component from the full state; the projectors sum to the
    identity.
    """

    mu: int
    N: dict
    L3: np.ndarray | None
    L4: np.ndarray | None
    Z4: np.ndarray | None
    projectors: dict
    chain: MatrixChain = field(repr=False)

    @property
    def n(self):
        return self.N[1].shape[0]

    @property
    def subsystem_ids(self):
        return tuple(sorted(self.N))

    @cached_property
    def ode_basis(self):
        """``W``: coordinates on the ODE subspace ``range(Pi)``,
        ``Pi = projectors[1]``.

        ``Pi`` is a projector, so its rank is ``r = round(trace(Pi))``.
        ``W`` (``n x r``, orthonormal columns) is the thin QR factor of
        ``Pi`` times a fixed-seed Gaussian ``n x r`` matrix, so that
        ``Pi = W W^T Pi``: the ODE component ``Pi v`` has coordinates
        ``W^T (Pi v)``.  ``N[1]`` maps into ``range(Pi)``, so ``x_1 = W y``
        solves the ODE subsystem exactly when ``y' = W^T (N[1] W) y``.
        Built on the first call.
        """
        pi = self.projectors[1]
        r = int(round(np.trace(pi)))
        omega = np.random.default_rng(_FRAME_SEED).standard_normal((self.n, r))
        return np.linalg.qr(pi @ omega)[0]

    def reconstruction_maps(self):
        """Maps sending the ODE component to every solution component.

        Derivative terms of the constraint subsystems are eliminated
        analytically using the ODE dynamics, so each component ``x_i(t)``
        of a solution equals ``maps[i] @ x_1(t)``; their sum is the
        reachable-set projector.  Built on the first call; later calls
        return the same dict, so Gamma and psi share one set of maps.
        """
        return self._maps

    @cached_property
    def _maps(self):
        n1 = self.N[1]
        maps = {1: np.eye(self.n)}
        maps[2] = self.N[2]
        if self.mu >= 2:
            maps[3] = self.N[3] + self.L3 @ self.N[2] @ n1
        if self.mu == 3:
            maps[4] = (
                self.N[4]
                + self.L4 @ (self.N[3] @ n1 + self.L3 @ self.N[2] @ n1 @ n1)
                + self.Z4 @ self.N[2] @ n1
            )
        return maps


def _extend(E_seq, A_seq, Q_seq, P_seq, K, R, AK):
    """Append the step of the projector ``Q = K R`` onto ``Ker E_seq[-1]``,
    given ``AK = A_seq[-1] K``: both chain matrices subtract ``A Q = AK R``,
    a product of rank ``m = K.shape[1]``."""
    Q = K @ R
    AQ = AK @ R
    Q_seq.append(Q)
    P_seq.append(np.eye(len(Q)) - Q)
    E_seq.append(E_seq[-1] - AQ)
    A_seq.append(A_seq[-1] - AQ)


def _swap_inverse(K, R, inverse):
    """``(I + Q - Q') E^{-1}`` for ``Q = K K^T`` and ``Q' = K R`` projecting
    onto one kernel: the inverse of ``E' = E (I - Q + Q')``."""
    return inverse + K @ ((K.T - R) @ inverse)


def compute_index_and_chain(sys, tol=DEFAULT_TOLERANCES):
    """Build the matrix chain with orthogonal projectors and find the index.

    Each chain matrix past ``E_0`` is first offered to
    :func:`~daereach.linalg.rank_update_inverse` with the previous matrix's
    SVD factors; a certified one ends the chain with no SVD of its own and
    keeps its bound on ``condition_bound``.  Any other takes its own SVD,
    which decides its rank and, when it is singular, gives its kernel
    basis.  The certificate accepts only a matrix that SVD would also find
    nonsingular, so it changes no index.

    A chain that ends proves the pencil regular: each step satisfies
    ``s E_{j+1} - A_{j+1} = (s E_j - A_j)(P_j + s Q_j)`` with
    ``det(P_j + s Q_j) = s^{rank Q_j}``, so a nonsingular ``E_mu`` makes
    ``det(s E - A)`` a polynomial that is not identically zero (Lamour,
    Maerz & Tischendorf, *DAEs: A Projector Based Analysis*, 2013).  The
    regularity probe therefore runs only when ``E_3`` is still singular.

    Raises :class:`NonsingularEError` if ``E`` is already nonsingular (the
    system is an ODE), and, when ``E_3`` is singular,
    :class:`IrregularPencilError` if the regularity probe fails and
    :class:`IndexTooHighError` otherwise.
    """
    E_seq, A_seq, Q_seq, P_seq = [sys.E], [sys.A], [], []
    kernel_bases, kernel_images = [], []
    for mu in range(MAX_SUPPORTED_INDEX + 1):
        inverse = bound = None
        if mu:
            inverse, bound = rank_update_inverse(factors, kernel_images[-1], tol)
        if inverse is None:  # the matrix's own SVD decides
            bound = None
            factors = svd_factors(E_seq[-1], tol)
            kernel_basis, inverse = kernel_basis_and_inverse(factors)
        if inverse is not None:  # E_mu is nonsingular
            if mu == 0:
                raise NonsingularEError(
                    "E is nonsingular: the system is an ODE and needs no decoupling"
                )
            return MatrixChain(
                E_seq,
                A_seq,
                Q_seq,
                P_seq,
                mu,
                inverse,
                kernel_bases=kernel_bases,
                kernel_images=kernel_images,
                condition_bound=bound,
            )
        if mu < MAX_SUPPORTED_INDEX:
            kernel_bases.append(kernel_basis)
            kernel_images.append(A_seq[-1] @ kernel_basis)
            _extend(E_seq, A_seq, Q_seq, P_seq, kernel_basis, kernel_basis.T, kernel_images[-1])
    if not check_regularity(sys, tol):
        raise IrregularPencilError(
            "det(sE - A) vanished at every sample point; the pencil has no "
            "unique solution for any initial condition"
        )
    raise IndexTooHighError(
        f"E_{MAX_SUPPORTED_INDEX} is still singular; the tractability index "
        f"exceeds {MAX_SUPPORTED_INDEX}, which is unsupported"
    )


def make_admissible(chain, tol=DEFAULT_TOLERANCES):
    """Correct the chain projectors so that ``Q_j Q_i = 0`` for ``j > i``.

    Index 1 keeps its projector (a single projector is trivially
    admissible).  For index 2 the corrected ``Q_1`` is ``-Q_1 E_2^{-1}
    A_1``; for index 3 the kernel projector of an intermediate rebuilt
    chain supplies the corrected ``Q_2``.  Each corrected projector still
    projects onto the kernel of its (rebuilt) chain matrix, and has the
    form ``K_j R_j`` with ``K_j`` that kernel's orthonormal basis, so the
    chain updates reuse the raw chain's ``A_j K_j``.  The returned chain is
    extended one corrected projector at a time and keeps the original on
    ``.raw``.

    No rebuilt chain matrix is factored to find its kernel or inverse: the
    projector swap ``E' = E (I - Q + Q')`` gives ``E'^{-1} = (I + Q - Q')
    E^{-1}`` and ``Ker E_2' = (I + Q_1 - Q_1') Ker E_2``.  Only the index-3
    intermediate ``E_2' - A_2' Q_2`` is inverted anew, since nothing proves
    it nonsingular.  The terminal inverse is then checked: a residual
    ``max|E_mu' E_mu'^{-1} - I|`` above ``sqrt(rank_rel_tol)`` raises
    :class:`SingularMatrixError`; the residual is kept on
    ``inverse_residual``.
    """
    if chain.admissible:
        return chain
    if chain.mu == 1:
        E_seq, A_seq, Q_seq, P_seq = chain.E_seq, chain.A_seq, chain.Q_seq, chain.P_seq
        inverse = chain.terminal_inverse
    else:
        # Q_0 is never corrected, so the raw E_0, E_1 prefix is the rebuilt one
        E_seq, A_seq = chain.E_seq[:2], chain.A_seq[:2]
        Q_seq, P_seq = chain.Q_seq[:1], chain.P_seq[:1]
        raw_inv, A1, K1 = chain.terminal_inverse, chain.A_seq[1], chain.kernel_bases[1]
        if chain.mu == 2:
            R1 = -(K1.T @ raw_inv) @ A1  # Q_1' = -Q_1 E_2^{-1} A_1 = K_1 R_1
            _extend(E_seq, A_seq, Q_seq, P_seq, K1, R1, chain.kernel_images[1])
            inverse = _swap_inverse(K1, R1, raw_inv)
        else:
            K2 = chain.kernel_bases[2]
            R2 = -(K2.T @ raw_inv) @ chain.A_seq[2]  # -Q_2 E_3^{-1} A_2 = K_2 R_2
            # Q_1' = -Q_1 (I - K_2 R_2) E_3^{-1} A_1 = K_1 R_1
            R1 = -((K1.T - (K1.T @ K2) @ R2) @ raw_inv) @ A1
            _extend(E_seq, A_seq, Q_seq, P_seq, K1, R1, chain.kernel_images[1])
            K2_orth = np.linalg.qr(K2 + K1 @ ((K1.T - R1) @ K2))[0]
            AK2 = A_seq[2] @ K2_orth
            E3_orth_inv = solve_inverse(E_seq[2] - AK2 @ K2_orth.T, tol)
            R2_adm = -(K2_orth.T @ E3_orth_inv) @ A_seq[2]
            _extend(E_seq, A_seq, Q_seq, P_seq, K2_orth, R2_adm, AK2)
            inverse = _swap_inverse(K2_orth, R2_adm, E3_orth_inv)

    residual = float(np.abs(E_seq[-1] @ inverse - np.eye(chain.n)).max())
    if not residual <= np.sqrt(tol.rank_rel_tol):
        raise SingularMatrixError(
            f"the corrected chain's terminal inverse has residual {residual:.3e}; the "
            "index classification is unreliable at this tolerance"
        )
    return MatrixChain(
        E_seq,
        A_seq,
        Q_seq,
        P_seq,
        chain.mu,
        inverse,
        admissible=True,
        raw=chain,
        inverse_residual=residual,
    )


def decouple(chain):
    """Split an admissibly-projected chain of an autonomous system into its
    subsystem coefficients.

    Inputs are stacked into the state by :func:`~daereach.model.to_autonomous`
    beforehand, so there are no input coefficients.  No tolerance is
    needed: the chain carries its terminal inverse, proven by its own rank
    decision and checked by its residual.
    """
    if not chain.admissible:
        raise ValueError("decouple requires an admissible chain; call make_admissible")
    if not 1 <= chain.mu <= MAX_SUPPORTED_INDEX:
        raise IndexTooHighError(f"unsupported index {chain.mu}")
    terminal_inv = chain.terminal_inverse
    # index 1 feeds the original A through E_1^{-1}; higher indices feed the
    # terminal chain matrix A_mu (the two differ off the ODE subspace)
    source = chain.A_seq[0] if chain.mu == 1 else chain.A_seq[chain.mu]
    into_state = terminal_inv @ source
    P = chain.P_seq
    Q = chain.Q_seq

    if chain.mu == 1:
        fronts = projectors = {1: P[0], 2: Q[0]}
        L3 = L4 = Z4 = None
    elif chain.mu == 2:
        fronts = {1: P[0] @ P[1], 2: P[0] @ Q[1], 3: Q[0] @ P[1]}
        projectors = {1: fronts[1], 2: fronts[2], 3: Q[0]}
        L3 = Q[0] @ Q[1]
        L4 = Z4 = None
    else:
        p0p1, p0q1, q0p1 = P[0] @ P[1], P[0] @ Q[1], Q[0] @ P[1]
        fronts = {1: p0p1 @ P[2], 2: p0p1 @ Q[2], 3: p0q1 @ P[2], 4: q0p1 @ P[2]}
        projectors = {1: fronts[1], 2: fronts[2], 3: p0q1, 4: Q[0]}
        L3 = p0q1 @ Q[2]
        L4 = Q[0] @ Q[1]
        Z4 = q0p1 @ Q[2]

    N = {i: front @ into_state for i, front in fronts.items()}
    return DecoupledSystem(
        mu=chain.mu, N=N, L3=L3, L4=L4, Z4=Z4, projectors=projectors, chain=chain
    )


def decouple_system(sys, tol=DEFAULT_TOLERANCES):
    """The decoupled form of an autonomous DAE: chain, admissible
    correction and decoupling in one call.

    Raises what :func:`compute_index_and_chain`, :func:`make_admissible`
    and :func:`decouple` raise.
    """
    chain = compute_index_and_chain(sys, tol)
    return decouple(make_admissible(chain, tol))
