"""Matrix-chain index computation, admissible projectors, and decoupling.

Starting from an autonomous pair ``(E, A)`` the chain

    E_0 = E,  A_0 = A,
    E_{j+1} = E_j - A_j Q_j,  A_{j+1} = A_j P_j,

with ``Q_j`` a projector onto ``Ker(E_j)`` and ``P_j = I - Q_j``,
terminates at the first nonsingular ``E_mu``; ``mu`` is the tractability
index.  With ``Q_j = K_j K_j^T`` for an orthonormal kernel basis ``K_j``,
both updates subtract the one rank-``m`` product ``(A_j K_j) K_j^T``.
One factorization per singular chain matrix
(:func:`~daereach.linalg.rank_factors`) gives its kernel basis and,
through it, its rank decision: a certified QR of its nonzero rows when it
has exactly-zero rows, as the chain matrices of a semi-explicit system
such as Stokes do, and an SVD otherwise.  The terminal matrix takes no
factorization of its own when it can be certified nonsingular from the
previous matrix's factors: in them ``E_{j+1}`` is block upper triangular,
so one ``m x m`` SVD gives its inverse and a bound on its condition
number (:func:`~daereach.linalg.rank_update_inverse`).  A bound that does
not clear the rank cutoff with a margin, a singular block, and every
singular chain matrix fall back to the matrix's own factors, which
decide as its SVD would.  The chain records every decision and its
margin (:attr:`MatrixChain.decisions`).  Plain orthogonal kernel
projectors generally violate the admissibility property ``Q_j Q_i = 0``
for ``j > i`` that the decoupled forms rely on, so they are corrected
index-by-index (index 1 needs no correction) and the chain is rebuilt
with the corrected projectors.

The correction factors nothing, at any index.  If ``Q`` and ``Q'``
project onto the same kernel ``Ker E_j`` then ``E_j - A_j Q' = (E_j -
A_j Q)(I - Q + Q')`` and ``(I - Q + Q')^{-1} = I + Q - Q'`` (Lamour, Maerz
& Tischendorf, *DAEs: A Projector Based Analysis*, 2013); at index 3 the
intermediate ``E_2' - A_2' Q_2`` is ``E_3 (I - X)`` with ``X^2 = 0`` (see
:func:`make_admissible`).  So the rebuilt chain's kernels are the raw
chain's and its terminal inverse is the raw one times corrections of
rank ``m`` (every corrected projector is ``K_j R_j``); a residual
``max|E_mu' E_mu'^{-1} - I|`` checks the result.

Decoupling then splits the system into one ODE subsystem and ``mu``
algebraic-constraint subsystems with closed-form coefficient matrices,
each a word in the projectors times ``E_mu^{-1} A_mu``.  Since every
projector is ``I - K_j R_j`` or ``K_j R_j``, :class:`DecoupledSystem` keeps
those factors and applies the coefficients to ``n x c`` blocks right to
left, at ``O(n^2 c)`` each; that operator is its only form, and a dense
coefficient or projector is the operator applied to the identity.  The
ODE subsystem lives on ``range(Pi)``, ``Pi = projectors[1]``, of
dimension ``r = n - sum_j rank Q_j``; :attr:`DecoupledSystem.ode_basis`
gives ``r``-dimensional coordinates on it, and the reach path reads only
blocks of ``r`` or ``k`` columns.  Only indices 1 through 3 are
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
    rank_factors,
    rank_update_inverse,
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

    ``E_seq`` and ``A_seq`` have length ``mu + 1`` (positions 0..mu).  The
    projectors are kept in factored form: ``factors[j] = (K_j, R_j)`` with
    ``Q_j = K_j R_j`` and ``K_j`` an orthonormal basis of ``Ker E_j`` (``R_j
    = K_j^T`` on a raw chain), and ``kernel_images[j] = A_j K_j``.
    ``terminal_inverse`` is ``E_mu^{-1}``; ``E_mu``'s own SVD or the
    certificate on the previous matrix's factors proved it nonsingular.
    ``admissible`` records whether the projectors satisfy ``Q_j Q_i = 0``
    for ``j > i``; the chain built from raw orthogonal projectors is kept
    on ``raw`` after correction so both stages stay inspectable.
    ``decisions`` holds, for each raw chain matrix ``E_0 .. E_mu``, what
    decided its rank and by what margin: the ``decision`` of its own
    :class:`~daereach.linalg.Factors` (``"qr"`` or ``"svd"``), or
    ``{"method": "certificate", "bound": ...}`` for a terminal matrix
    certified from the previous one's factors; a corrected chain has none
    (see ``raw``).  ``condition_bound`` is that certified bound on
    ``cond_2(E_mu)``, ``None`` when ``E_mu``'s own SVD decided.
    ``inverse_residual`` is the checked ``max|E_mu E_mu^{-1} - I|`` of a
    corrected chain (``None`` before).
    """

    E_seq: list
    A_seq: list
    factors: list
    kernel_images: list = field(repr=False)
    mu: int
    terminal_inverse: np.ndarray = field(repr=False)
    admissible: bool = False
    raw: "MatrixChain | None" = field(default=None, repr=False)
    decisions: tuple = ()
    inverse_residual: float | None = None

    @property
    def n(self):
        return self.E_seq[0].shape[0]

    @property
    def condition_bound(self):
        last = self.decisions[-1] if self.decisions else {}
        return last["bound"] if last.get("method") == "certificate" else None

    @property
    def admissibility_residual(self):
        """``max ||Q_j Q_i||_F`` over ``j > i``, 0 at index 1.  ``K_j`` has
        orthonormal columns, so ``||Q_j Q_i||_F = ||(R_j K_i) R_i||_F``, an
        ``m_j x n`` product."""
        return max(
            (
                float(np.linalg.norm((R_j @ K_i) @ R_i))
                for j, (_, R_j) in enumerate(self.factors)
                for K_i, R_i in self.factors[:j]
            ),
            default=0.0,
        )


# The subsystem projectors as words in the chain's projectors: letter j is
# P_j or Q_j, and a word acts right to left, so "PQ" is P_0 Q_1.
# Subsystem i >= 2 ends at the Q of its level; its coefficient front is
# the word padded with P to the index ("Q" -> "QP" at index 2).
_PROJECTOR_WORDS = {
    1: {1: "P", 2: "Q"},
    2: {1: "PP", 2: "PQ", 3: "Q"},
    3: {1: "PPP", 2: "PPQ", 3: "PQ", 4: "Q"},
}
_COUPLING_WORDS = {1: {}, 2: {"L3": "QQ"}, 3: {"L3": "PQQ", "L4": "QQ", "Z4": "QPQ"}}


@dataclass(frozen=True)
class DecoupledSystem:
    """The decoupled subsystems, kept in the factored form of their chain.

    Subsystem 1 is the ODE part ``x_1' = N[1] x_1``; subsystems 2..mu+1
    are algebraic constraints.  Every coefficient is a word in the
    admissible projectors ``P_j = I - K_j R_j``, ``Q_j = K_j R_j`` times
    ``S = E_mu^{-1} A_mu`` (``E_1^{-1} A_0`` at index 1), so the class holds
    only the ``factors``, the ``terminal_inverse`` and the ``source``
    ``A_mu`` (``A_0``), and applies the one operator ``X -> {i: N_i X}``
    to blocks right to left: ``S X = E_mu^{-1} (A_mu X)``, ``P_j X = X -
    K_j (R_j X)``, ``Q_j X = K_j (R_j X)``.  An ``n x c`` block costs
    ``O(n^2 c)``; no ``n x n x n`` product is taken.

    The reach path needs only thin blocks: the ODE frame ``ode_basis``
    ``W``, the reduced matrix ``ode_matrix`` ``W^T N[1] W``, the maps on the
    frame ``frame_maps`` and the ``lift`` ``psi W``.  A dense form is the
    operator applied to the identity: ``apply_N(I)`` gives the
    coefficients ``N``, ``apply_couplings(I)`` the multipliers
    ``L3``/``L4``/``Z4`` of derivative terms of lower constraint
    subsystems, and ``apply_projectors(I)`` the ``projectors``
    (``projectors[i]`` extracts subsystem ``i``'s component; they sum to
    the identity), which :attr:`projectors` keeps.
    """

    mu: int
    factors: tuple = field(repr=False)
    terminal_inverse: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    chain: MatrixChain = field(repr=False)

    @property
    def n(self):
        return self.source.shape[0]

    @property
    def subsystem_ids(self):
        return tuple(range(1, self.mu + 2))

    @property
    def ode_rank(self):
        """``r = n - sum m_j``: the admissible projectors' kernels add up
        directly to ``Ker Pi``, so this is the rank of ``Pi``."""
        return self.n - sum(K.shape[1] for K, _ in self.factors)

    def _apply(self, words, X):
        """``{key: word X}`` for projector words (see ``_PROJECTOR_WORDS``);
        words sharing a tail share its products, and ``P_j Y = Y - Q_j Y``
        reuses ``Q_j Y = K_j (R_j Y)``."""
        done = {}  # (j, tail): the tail, covering chain positions j.., applied to X
        products = {}
        for key, word in words.items():
            Y = X
            for j in reversed(range(len(word))):
                tail = word[j:]
                if (j, tail) not in done:
                    q_tail = (j, "Q" + tail[1:])
                    if q_tail not in done:
                        K, R = self.factors[j]
                        done[q_tail] = K @ (R @ Y)
                    if tail[0] == "P":
                        done[j, tail] = Y - done[q_tail]
                Y = done[j, tail]
            products[key] = Y
        return products

    def apply_projectors(self, X):
        """``{i: projectors[i] X}`` for an ``n x c`` block ``X``."""
        return self._apply(_PROJECTOR_WORDS[self.mu], X)

    def apply_couplings(self, X):
        """``{name: word X}`` for the derivative multipliers of the index
        (``"L3"`` at index 2; ``"L3"``, ``"L4"`` and ``"Z4"`` at index 3;
        none at index 1)."""
        return self._apply(_COUPLING_WORDS[self.mu], X)

    def ode_component(self, X):
        """``Pi X``, ``Pi = projectors[1]``."""
        return self._apply({1: "P" * self.mu}, X)[1]

    def apply_N(self, X):
        """``{i: N[i] X}``: ``S X = E_mu^{-1} (A_mu X)`` through every
        subsystem's front."""
        fronts = {i: w.ljust(self.mu, "P") for i, w in _PROJECTOR_WORDS[self.mu].items()}
        return self._apply(fronts, self.terminal_inverse @ (self.source @ X))

    def apply_maps(self, X, NX, M):
        """``{i: maps[i] X}`` for the reconstruction maps, given ``NX =
        apply_N(X)`` and ``M`` with ``N[1] X = X M`` (the ODE frame ``W``
        with ``ode_matrix``, or ``X = I`` with ``M = N[1]``).

        The derivative terms of the constraint subsystems are eliminated
        through the ODE dynamics, so each component ``x_i(t)`` of a solution
        is ``maps[i] x_1(t)`` and their sum is ``psi``.  ``maps[3] = N[3] +
        L3 N[2] N[1]`` and ``maps[4] = N[4] + L4 (N[3] N[1] + L3 N[2]
        N[1]^2) + Z4 N[2] N[1]`` need ``N[i]`` applied to ``X``, ``N[1] X``
        and ``N[1]^2 X``, which are ``(N[i] X) M^p``, so the operator is
        applied once.
        """
        blocks = [NX]  # blocks[p][i] = N_i N_1^p X; level p feeds N_2 .. N_{mu+1-p}
        for p in range(1, self.mu):
            blocks.append({i: blocks[-1][i] @ M for i in range(2, self.mu + 2 - p)})
        words = _COUPLING_WORDS[self.mu]

        def couple(name, Y):
            return self._apply({name: words[name]}, Y)[name]

        maps = {1: X, 2: blocks[0][2]}
        if self.mu >= 2:
            maps[3] = blocks[0][3] + couple("L3", blocks[1][2])
        if self.mu == 3:
            inner = blocks[1][3] + couple("L3", blocks[2][2])
            maps[4] = blocks[0][4] + couple("L4", inner) + couple("Z4", blocks[1][2])
        return maps

    @cached_property
    def ode_basis(self):
        """``W``: coordinates on the ODE subspace ``range(Pi)``.

        ``W`` (``n x r``, orthonormal columns, ``r = ode_rank``) is the thin
        QR factor of ``Pi`` times a fixed-seed Gaussian ``n x r`` matrix, so
        that ``Pi = W W^T Pi``: the ODE component ``Pi v`` has coordinates
        ``W^T (Pi v)``.  ``N[1]`` maps into ``range(Pi)``, so ``x_1 = W y``
        solves the ODE subsystem exactly when ``y' = ode_matrix y``.
        """
        omega = np.random.default_rng(_FRAME_SEED).standard_normal((self.n, self.ode_rank))
        return np.linalg.qr(self.ode_component(omega))[0]

    @cached_property
    def _frame_blocks(self):
        return self.apply_N(self.ode_basis)

    @cached_property
    def ode_matrix(self):
        """``W^T N[1] W``, the ODE subsystem in the coordinates of ``W``."""
        return self.ode_basis.T @ self._frame_blocks[1]

    @cached_property
    def frame_maps(self):
        """``{i: maps[i] W}``, every reconstruction map on the ODE frame."""
        return self.apply_maps(self.ode_basis, self._frame_blocks, self.ode_matrix)

    @cached_property
    def lift(self):
        """``psi W``: the sum of :attr:`frame_maps` (``maps[1] W = W``)."""
        return sum(self.frame_maps.values())

    @cached_property
    def projectors(self):
        return self.apply_projectors(np.eye(self.n))


def _extend(E_seq, A_seq, factors, images, K, R, AK):
    """Append the step of the projector ``Q = K R`` onto ``Ker E_seq[-1]``,
    given ``AK = A_seq[-1] K``: both chain matrices subtract ``A Q = AK R``,
    a product of rank ``m = K.shape[1]``."""
    AQ = AK @ R
    factors.append((K, R))
    images.append(AK)
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
    factors; a certified one ends the chain with no factorization of its
    own and keeps its bound on ``condition_bound``.  Any other takes its
    own :func:`~daereach.linalg.rank_factors` (a certified QR or an SVD),
    which decides its rank and, when it is singular, gives its kernel
    basis.  Both certificates accept only what the SVD would also decide,
    so neither changes an index.  ``decisions`` records, per matrix, which
    one decided and by what margin.

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
    E_seq, A_seq, factors, images, decisions = [sys.E], [sys.A], [], [], []
    for mu in range(MAX_SUPPORTED_INDEX + 1):
        inverse = None
        if mu:
            inverse, bound = rank_update_inverse(current, images[-1], tol)
        if inverse is None:  # the matrix's own factors decide
            current = rank_factors(E_seq[-1], tol)
            decisions.append(current.decision)
            kernel_basis, inverse = kernel_basis_and_inverse(current)
        else:
            decisions.append({"method": "certificate", "bound": bound})
        if inverse is not None:  # E_mu is nonsingular
            if mu == 0:
                raise NonsingularEError(
                    "E is nonsingular: the system is an ODE and needs no decoupling"
                )
            return MatrixChain(
                E_seq, A_seq, factors, images, mu, inverse, decisions=tuple(decisions)
            )
        if mu < MAX_SUPPORTED_INDEX:
            image = A_seq[-1] @ kernel_basis
            _extend(E_seq, A_seq, factors, images, kernel_basis, kernel_basis.T, image)
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
    admissible).  At index ``mu >= 2`` the last projector is corrected to
    ``Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}``, with ``E_mu`` and
    ``A_{mu-1}`` those of the chain rebuilt with the corrected earlier
    projectors; index 3 first corrects ``Q_1' = -Q_1 (I - Q_2^*) E_3^{-1}
    A_1``, ``Q_2^* = -Q_2 E_3^{-1} A_2``.  Each corrected projector still
    projects onto the kernel of its (rebuilt) chain matrix and has the form
    ``K_j R_j`` with the raw chain's orthonormal kernel basis ``K_j``, so
    the chain updates reuse the raw chain's ``A_j K_j``.  The returned
    chain is extended one corrected projector at a time and keeps the
    original on ``.raw``.

    No matrix is factored or solved: every inverse is the raw chain's
    ``E_mu^{-1}`` times rank-``m`` corrections.  The projector swap ``E' =
    E (I - Q + Q')`` gives ``E'^{-1} = (I + Q - Q') E^{-1}``.  At index 3,
    ``(Q_1 - Q_1') Q_2 = 0``, so ``Ker E_2' = Ker E_2``, ``A_2' K_2 = A_2
    K_2`` and the intermediate ``E_2' - A_2' Q_2 = E_3 (I - X)`` with ``X =
    P_2 (Q_1 - Q_1')`` and ``X^2 = 0``: it is nonsingular exactly when
    ``E_3`` is, with inverse ``(I + X) E_3^{-1}`` (Lamour, Maerz &
    Tischendorf, *DAEs: A Projector Based Analysis*, 2013).  The terminal
    inverse is then checked: a residual ``max|E_mu' E_mu'^{-1} - I|`` above
    ``sqrt(rank_rel_tol)`` raises :class:`SingularMatrixError`; the
    residual is kept on ``inverse_residual``.
    """
    if chain.admissible:
        return chain
    mu, inverse = chain.mu, chain.terminal_inverse
    # Q_0 is never corrected, so the raw E_0, E_1 prefix is the rebuilt one
    E_seq, A_seq = chain.E_seq[:2], chain.A_seq[:2]
    factors, images = chain.factors[:1], chain.kernel_images[:1]
    if mu == 3:
        (K1, _), (K2, _) = chain.factors[1:]
        R2 = -(K2.T @ inverse) @ chain.A_seq[2]  # Q_2^* = K_2 R_2
        R1 = -((K1.T - (K1.T @ K2) @ R2) @ inverse) @ A_seq[1]  # Q_1' = K_1 R_1
        _extend(E_seq, A_seq, factors, images, K1, R1, chain.kernel_images[1])
        # (I + X) E_3^{-1}, X = P_2 (Q_1 - Q_1') = (K_1 - K_2 K_2^T K_1)(K_1^T - R_1)
        inverse = inverse + (K1 - K2 @ (K2.T @ K1)) @ ((K1.T - R1) @ inverse)
    if mu > 1:
        K = chain.factors[mu - 1][0]
        R = -(K.T @ inverse) @ A_seq[-1]  # Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}
        _extend(E_seq, A_seq, factors, images, K, R, chain.kernel_images[mu - 1])
        inverse = _swap_inverse(K, R, inverse)

    residual = float(np.abs(E_seq[-1] @ inverse - np.eye(chain.n)).max())
    if not residual <= np.sqrt(tol.rank_rel_tol):
        raise SingularMatrixError(
            f"the corrected chain's terminal inverse has residual {residual:.3e}; the "
            "index classification is unreliable at this tolerance"
        )
    return MatrixChain(
        E_seq,
        A_seq,
        factors,
        images,
        mu,
        inverse,
        admissible=True,
        raw=chain,
        inverse_residual=residual,
    )


def decouple(chain):
    """The decoupled system of an admissibly-projected chain of an
    autonomous system: its projector factors, terminal inverse and source
    matrix, with every coefficient applied on demand (no product is taken
    here).

    Inputs are stacked into the state by :func:`~daereach.model.to_autonomous`
    beforehand, so there are no input coefficients.  No tolerance is
    needed: the chain carries its terminal inverse, proven by its own rank
    decision and checked by its residual.
    """
    if not chain.admissible:
        raise ValueError("decouple requires an admissible chain; call make_admissible")
    if not 1 <= chain.mu <= MAX_SUPPORTED_INDEX:
        raise IndexTooHighError(f"unsupported index {chain.mu}")
    # index 1 feeds the original A through E_1^{-1}; higher indices feed the
    # terminal chain matrix A_mu (the two differ off the ODE subspace)
    source = chain.A_seq[0] if chain.mu == 1 else chain.A_seq[chain.mu]
    return DecoupledSystem(
        mu=chain.mu,
        factors=tuple(chain.factors),
        terminal_inverse=chain.terminal_inverse,
        source=source,
        chain=chain,
    )


def decouple_system(sys, tol=DEFAULT_TOLERANCES):
    """The decoupled form of an autonomous DAE: chain, admissible
    correction and decoupling in one call.

    Raises what :func:`compute_index_and_chain`, :func:`make_admissible`
    and :func:`decouple` raise.
    """
    chain = compute_index_and_chain(sys, tol)
    return decouple(make_admissible(chain, tol))
