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
through it, its rank decision.  A chain matrix with exactly-zero rows, as
those of a semi-explicit system such as Stokes, takes a closed form when
it is a scaled column selection (Stokes ``E_0 = diag(I, 0)``), whose
kernel basis is unit vectors, so both updates change only the kernel
columns and take no product; it takes a certified QR of its nonzero rows
otherwise (Stokes ``E_1``), and any other matrix takes an SVD.  The
terminal matrix takes no factorization of its own when it can be
certified nonsingular from the previous matrix's factors: in them
``E_{j+1}`` is block upper triangular, so one ``m x m`` LU gives its
inverse and a bound on its condition number
(:func:`~daereach.linalg.rank_update_inverse`).  A bound that does not
clear the rank cutoff with a margin, a singular block, and every
singular chain matrix fall back to the matrix's own factors, which
decide as its SVD would.  The chain records every decision and its
margin (:attr:`MatrixChain.decisions`).  The chain keeps only the
matrices it factored, ``E_0 .. E_{mu-1}`` and ``A_0 .. A_{mu-1}``: the
terminal ``E_mu``, and the product ``A_{mu-1} Q_{mu-1}`` it needs, are
formed only when the certificate declines it, and ``A_mu`` never.

Plain orthogonal kernel projectors generally violate the admissibility
property ``Q_j Q_i = 0`` for ``j > i`` that the decoupled forms rely on,
so :func:`decouple` corrects them index-by-index (index 1 needs no
correction) and decouples in the same step.  The correction factors
nothing, at any index.  If ``Q`` and ``Q'`` project onto the same kernel
``Ker E_j`` then ``E_j - A_j Q' = (E_j - A_j Q)(I - Q + Q')`` and ``(I -
Q + Q')^{-1} = I + Q - Q'`` (Lamour, Maerz & Tischendorf, *DAEs: A
Projector Based Analysis*, 2013); at index 3 the intermediate ``E_2' -
A_2' Q_2`` is ``E_3 (I - X)`` with ``X^2 = 0`` (see :func:`decouple`).
So the corrected chain's kernels are the raw chain's and its terminal
inverse is the raw one times corrections of rank ``m`` (every corrected
projector is ``K_j R_j``); a residual ``max|E_mu' E_mu'^{-1} - I|``
checks the result.

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
    RANK_REL_TOL,
    kernel_basis_and_inverse,
    rank_factors,
    rank_update_inverse,
)
from .model import check_regularity

__all__ = [
    "MatrixChain",
    "DecoupledSystem",
    "compute_index_and_chain",
    "decouple",
    "decouple_system",
]

MAX_SUPPORTED_INDEX = 3

# fixes the Gaussian test matrix behind the ODE frame, so every run of one
# system gets the same frame; no answer depends on the value
_FRAME_SEED = 0xF2A3E


@dataclass(frozen=True)
class MatrixChain:
    """The raw chain: the matrices it factored and their orthogonal projectors.

    ``E_seq`` and ``A_seq`` hold ``E_0 .. E_{mu-1}`` and ``A_0 ..
    A_{mu-1}``, the singular chain matrices, so ``len(E_seq) == len(A_seq)
    == len(factors) == mu``.  The projectors are kept in factored form:
    ``factors[j] = (K_j, K_j^T)`` with ``Q_j = K_j K_j^T`` and ``K_j`` an
    orthonormal basis of ``Ker E_j``, and ``kernel_images[j] = A_j K_j``.
    ``kernel_columns[j]`` is ``E_j``'s
    :attr:`~daereach.linalg.Factors.kernel_columns`: the columns whose unit
    vectors are ``K_j`` when its closed form decided it, else ``None``.
    ``terminal_inverse`` is ``E_mu^{-1}``; ``E_mu``'s own SVD or the
    certificate on the previous matrix's factors proved it nonsingular.
    ``decisions`` holds, for each chain matrix ``E_0 .. E_mu``, what
    decided its rank and by what margin: the ``decision`` of its own
    :class:`~daereach.linalg.Factors` (``"diagonal"``, ``"qr"`` or
    ``"svd"``), or
    ``{"method": "certificate", "bound": ...}`` for a terminal matrix
    certified from the previous one's factors.  ``condition_bound`` is
    that certified bound on ``cond_2(E_mu)``, ``None`` when ``E_mu``'s own
    SVD decided.
    """

    E_seq: list
    A_seq: list
    factors: list
    kernel_images: list = field(repr=False)
    kernel_columns: tuple = field(repr=False)
    mu: int
    terminal_inverse: np.ndarray = field(repr=False)
    decisions: tuple

    @property
    def n(self):
        return self.E_seq[0].shape[0]

    @property
    def condition_bound(self):
        last = self.decisions[-1]
        return last["bound"] if last["method"] == "certificate" else None


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
    ``S = E_mu'^{-1} A_mu'`` (``E_1^{-1} A_0`` at index 1), so the class
    holds only the corrected ``factors``, the ``terminal_inverse``
    ``E_mu'^{-1}`` and the ``source`` ``A_mu'`` (``A_0``), with the ``raw``
    chain they came from (the index ``mu`` is its) and the checked
    ``inverse_residual`` ``max|E_mu' E_mu'^{-1} - I|``.  It applies the
    one operator ``X -> {i: N_i X}``
    to blocks right to left: ``S X = E_mu^{-1} (A_mu X)``, ``P_j X = X -
    K_j (R_j X)``, ``Q_j X = K_j (R_j X)``.  An ``n x c`` block costs
    ``O(n^2 c)``; no ``n x n x n`` product is taken.  Where ``K_j`` is the
    unit vectors of the raw chain's ``kernel_columns[j]`` (Stokes ``K_0``),
    ``Q_j X`` takes no product through it: it is ``R_j X`` scattered to
    those rows, and for an uncorrected ``R_j = K_j^T`` just ``X`` with
    every other row zeroed, bit for bit the dense products.

    The reach path needs only thin blocks: the ODE frame ``ode_basis``
    ``W``, the reduced matrix ``ode_matrix`` ``W^T N[1] W`` and the
    ``lift`` ``psi W``, the sum of the maps on the frame, whose range is
    the consistent space.  A dense form is the operator applied to the
    identity: ``apply_N(I)`` gives the coefficients ``N``,
    ``apply_couplings(I)`` the multipliers ``L3``/``L4``/``Z4`` of
    derivative terms of lower constraint subsystems, and
    ``apply_projectors(I)`` the ``projectors``
    (``projectors[i]`` extracts subsystem ``i``'s component; they sum to
    the identity), which :attr:`projectors` keeps.
    """

    raw: MatrixChain = field(repr=False)
    factors: tuple = field(repr=False)
    terminal_inverse: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    inverse_residual: float

    @property
    def mu(self):
        return self.raw.mu

    @property
    def n(self):
        return self.source.shape[0]

    @property
    def admissibility_residual(self):
        """``max ||Q_j Q_i||_F`` over ``j > i``, 0 at index 1.  ``K_j`` has
        orthonormal columns, so ``||Q_j Q_i||_F = ||(R_j K_i) R_i||_F``, an
        ``m_j x n`` product; a unit-vector ``K_i`` makes ``R_j K_i`` a
        gather of the columns of ``R_j``."""
        return max(
            (
                float(np.linalg.norm((R_j @ K_i if c is None else R_j[:, c]) @ R_i))
                for j, (_, R_j) in enumerate(self.factors)
                for (K_i, R_i), c in zip(self.factors[:j], self.raw.kernel_columns)
            ),
            default=0.0,
        )

    @property
    def ode_rank(self):
        """``r = n - sum m_j``: the admissible projectors' kernels add up
        directly to ``Ker Pi``, so this is the rank of ``Pi``."""
        return self.n - sum(K.shape[1] for K, _ in self.factors)

    def _kernel_product(self, j, Y):
        """``Q_j Y = K_j (R_j Y)``.  For a unit-vector ``K_j`` each entry of
        the dense product is one entry of ``R_j Y`` times 1.0 plus exact
        zeros, so scattering the rows of ``R_j Y`` to the kernel columns
        gives the same bytes; and while ``R_j`` is still the raw chain's
        ``K_j^T``, ``R_j Y`` is those rows of ``Y``."""
        K, R = self.factors[j]
        columns = self.raw.kernel_columns[j]
        if columns is None:
            return K @ (R @ Y)
        QY = np.zeros(np.shape(Y))
        QY[columns] = Y[columns] if R is self.raw.factors[j][1] else R @ Y
        return QY

    def _apply(self, words, X):
        """``{key: word X}`` for projector words (see ``_PROJECTOR_WORDS``);
        words sharing a tail share its products, and ``P_j Y = Y - Q_j Y``
        reuses ``Q_j Y``."""
        done = {}  # (j, tail): the tail, covering chain positions j.., applied to X
        products = {}
        for key, word in words.items():
            Y = X
            for j in reversed(range(len(word))):
                tail = word[j:]
                if (j, tail) not in done:
                    q_tail = (j, "Q" + tail[1:])
                    if q_tail not in done:
                        done[q_tail] = self._kernel_product(j, Y)
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
    def lift(self):
        """``psi W``: the sum of the reconstruction maps on the ODE frame,
        ``maps[i] W`` (``maps[1] W = W``); its range is the consistent
        space."""
        return sum(self.apply_maps(self.ode_basis, self._frame_blocks, self.ode_matrix).values())

    @cached_property
    def projectors(self):
        return self.apply_projectors(np.eye(self.n))


def _minus_kernel_product(X, image, columns, AQ):
    """``X - A_j Q_j`` with ``A_j Q_j = image K_j^T``: ``X - AQ``, or, when
    ``K_j`` is the unit vectors of ``columns``, ``X`` with ``image``
    subtracted from those columns: the same matrix, since every other
    column of ``image K_j^T`` is zero and each of those is a column of
    ``image``, neither rounded."""
    if columns is None:
        return X - AQ
    X = X.copy()
    X[:, columns] -= image
    return X


def compute_index_and_chain(sys):
    """Build the matrix chain with orthogonal projectors and find the index.

    Each chain matrix past ``E_0`` is first offered to
    :func:`~daereach.linalg.rank_update_inverse` with the previous matrix's
    factors; a certified one ends the chain with no factorization of its
    own and keeps its bound on ``condition_bound``.  Any other takes its
    own :func:`~daereach.linalg.rank_factors` (a closed form, a certified
    QR or an SVD), which decides its rank and, when it is singular, gives
    its kernel basis.  The closed form and both certificates decide only
    as the SVD would, so none changes an index.  ``decisions`` records, per
    matrix, which one decided and by what margin.  Only what is read is
    formed: ``E_{j+1} = E_j - (A_j K_j) K_j^T`` when its own factors
    decide it and ``A_{j+1}`` likewise when ``E_{j+1}`` is singular, so a
    certified terminal matrix is never formed, ``A_mu`` never is, and
    neither is the product ``A_mu Q_mu`` before it.  A closed-form kernel
    basis is the unit vectors of some columns: ``A_j K_j`` gathers them
    and both updates subtract it from them, with no product.

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
    E_seq, A_seq, factors, images, kernel_columns, decisions = [], [], [], [], [], []
    E, A = sys.E, sys.A  # E_mu and A_mu once formed
    for mu in range(MAX_SUPPORTED_INDEX + 1):
        inverse = None
        if mu:
            inverse, bound = rank_update_inverse(current, images[-1])
        if inverse is None:  # the matrix's own factors decide
            if mu:
                # A_{mu-1} Q_{mu-1}, of rank m: formed only now, and not at
                # all for a unit-vector kernel basis
                AQ = images[-1] @ factors[-1][1] if columns is None else None
                E = _minus_kernel_product(E_seq[-1], images[-1], columns, AQ)
            current = rank_factors(E)
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
                E_seq, A_seq, factors, images, tuple(kernel_columns), mu, inverse, tuple(decisions)
            )
        if mu < MAX_SUPPORTED_INDEX:
            if mu:
                A = _minus_kernel_product(A_seq[-1], images[-1], columns, AQ)
            E_seq.append(E)
            A_seq.append(A)
            factors.append((kernel_basis, kernel_basis.T))
            columns = current.kernel_columns
            kernel_columns.append(columns)
            images.append(A @ kernel_basis if columns is None else A[:, columns])
    if not check_regularity(sys):
        raise IrregularPencilError(
            "det(sE - A) vanished at every sample point; the pencil has no "
            "unique solution for any initial condition"
        )
    raise IndexTooHighError(
        f"E_{MAX_SUPPORTED_INDEX} is still singular; the tractability index "
        f"exceeds {MAX_SUPPORTED_INDEX}, which is unsupported"
    )


def decouple(chain):
    """The decoupled system of a raw chain: its projectors corrected so that
    ``Q_j Q_i = 0`` for ``j > i``, its terminal inverse and its source
    matrix, with every coefficient applied on demand.

    Index 1 keeps its projector (a single projector is trivially
    admissible).  At index ``mu >= 2`` the last projector is corrected to
    ``Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}``, with ``E_mu`` and
    ``A_{mu-1}`` those of the chain rebuilt with the corrected earlier
    projectors; index 3 first corrects ``Q_1' = -Q_1 (I - Q_2^*) E_3^{-1}
    A_1``, ``Q_2^* = -Q_2 E_3^{-1} A_2``.  Each corrected projector still
    projects onto the kernel of its rebuilt chain matrix and has the form
    ``K_j R_j`` with the raw chain's orthonormal kernel basis ``K_j``, so
    the rebuilt chain reuses the raw chain's ``A_j K_j``, and of its
    matrices only ``E_mu'`` (for the residual check) and ``A_mu'`` (the
    source) are formed.  Index 1 feeds the original ``A_0`` through
    ``E_1^{-1}`` instead: the two differ off the ODE subspace.

    No matrix is factored or solved: every inverse is the raw chain's
    ``E_mu^{-1}`` times rank-``m`` corrections.  The projector swap ``E' =
    E (I - Q + Q')`` gives ``E'^{-1} = (I + Q - Q') E^{-1}``.  At index 3,
    ``(Q_1 - Q_1') Q_2 = 0``, so ``Ker E_2' = Ker E_2``, ``A_2' K_2 = A_2
    K_2`` and the intermediate ``E_2' - A_2' Q_2 = E_3 (I - X)`` with ``X =
    P_2 (Q_1 - Q_1')`` and ``X^2 = 0``: it is nonsingular exactly when
    ``E_3`` is, with inverse ``(I + X) E_3^{-1}`` (Lamour, Maerz &
    Tischendorf, *DAEs: A Projector Based Analysis*, 2013).  The terminal
    inverse is then checked: a residual ``max|E_mu' E_mu'^{-1} - I|`` above
    ``sqrt(RANK_REL_TOL)`` raises :class:`SingularMatrixError`; the
    residual is kept on ``inverse_residual``.

    Inputs are stacked into the state by :func:`~daereach.model.to_autonomous`
    beforehand, so there are no input coefficients.
    """
    mu, inverse = chain.mu, chain.terminal_inverse
    factors, images = list(chain.factors), chain.kernel_images
    # Q_0 is never corrected, so below index 3 the raw E_{mu-1} and A_{mu-1}
    # are the rebuilt ones
    E, A = chain.E_seq[-1], chain.A_seq[-1]
    if mu == 3:
        (K1, _), (K2, _) = factors[1:]
        R2 = -(K2.T @ inverse) @ A  # Q_2^* = K_2 R_2
        R1 = -((K1.T - (K1.T @ K2) @ R2) @ inverse) @ chain.A_seq[1]  # Q_1' = K_1 R_1
        factors[1] = (K1, R1)
        AQ = images[1] @ R1
        E, A = chain.E_seq[1] - AQ, chain.A_seq[1] - AQ  # E_2', A_2'
        # (I + X) E_3^{-1}, X = P_2 (Q_1 - Q_1') = (K_1 - K_2 K_2^T K_1)(K_1^T - R_1)
        inverse = inverse + (K1 - K2 @ (K2.T @ K1)) @ ((K1.T - R1) @ inverse)
    K, R = factors[-1]
    if mu > 1:
        R = -(K.T @ inverse) @ A  # Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}
        factors[-1] = (K, R)
        inverse = inverse + K @ ((K.T - R) @ inverse)  # (I + Q - Q') E_mu^{-1}
    AQ = images[-1] @ R

    residual = (E - AQ) @ inverse
    residual.flat[:: chain.n + 1] -= 1.0
    residual = float(np.abs(residual, out=residual).max())
    if not residual <= np.sqrt(RANK_REL_TOL):
        raise SingularMatrixError(
            f"the corrected chain's terminal inverse has residual {residual:.3e}; the "
            "index classification is unreliable at this tolerance"
        )
    return DecoupledSystem(
        raw=chain,
        factors=tuple(factors),
        terminal_inverse=inverse,
        source=A if mu == 1 else A - AQ,
        inverse_residual=residual,
    )


def decouple_system(sys):
    """The decoupled form of an autonomous DAE:
    :func:`compute_index_and_chain`, then :func:`decouple`; raises what
    they raise."""
    return decouple(compute_index_and_chain(sys))
