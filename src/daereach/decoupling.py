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
kernel basis is the unit vectors of its zero columns ``c_j``, so both
updates change only those columns and take no product: ``A_{j+1}[:, c_j]``
is exactly zero and ``E_{j+1}[:, c_j] = -A_j[:, c_j]``, and while every
step so far was such a one, ``A_j K_j`` is taken from the other columns of
``A`` with no ``A_j`` formed; Gram factors from one small Cholesky when
each nonzero row still owns a column (Stokes ``E_1 = [I | -G]``); a
certified QR of its nonzero rows otherwise; and any other matrix takes an
SVD.  The terminal matrix takes no factorization of its own when it can be
certified nonsingular from the previous matrix's factors: in them
``E_{j+1}`` is block upper triangular, so one ``m x m`` LU gives its
inverse and a bound on its condition number
(:func:`~daereach.linalg.rank_update_inverse`).  A bound that does not
clear the rank cutoff with a margin, a singular block, and every
singular chain matrix fall back to the matrix's own factors, which
decide as its SVD would.  The chain records every decision and its
margin (:attr:`MatrixChain.decisions`).  The chain keeps no chain matrix
past ``E_0 = E`` and ``A_0 = A``, the system's own arrays: each step
``X_{j+1} = X_j - (A_j K_j) K_j^T`` is recorded as one :class:`ChainStep`
of its thin factors, ``E_j`` and ``A_j`` (``j >= 1``) are formed from
``E_0`` and ``A_0`` through those steps only while ``E_j``'s own factors
decide it and ``A_j K_j`` needs ``A_j`` whole, and are dropped then; the
terminal ``E_mu`` is formed only when the certificate declines it, and
``A_mu`` never.  A certified ``E_mu^{-1}`` is kept as the certificate's
small blocks (:class:`~daereach.linalg.InverseBlocks`) where the factors
gather rows, and no ``n x n`` inverse is formed: :func:`decouple` keeps the
corrected one as blocks too.

Plain orthogonal kernel projectors generally violate the admissibility
property ``Q_j Q_i = 0`` for ``j > i`` that the decoupled forms rely on,
so :func:`decouple` corrects them index-by-index (index 1 needs no
correction) and decouples in the same step, factoring nothing: if ``Q``
and ``Q'`` project onto the same kernel ``Ker E_j`` then ``E_j - A_j Q' =
(E_j - A_j Q)(I - Q + Q')`` and ``(I - Q + Q')^{-1} = I + Q - Q'``
(Lamour, Maerz & Tischendorf, *DAEs: A Projector Based Analysis*, 2013).
So the corrected chain's kernels are the raw chain's, and its terminal
inverse is the raw one times rank-``m`` updates (every corrected
projector is ``K_j R_j``), kept as the chain's blocks and one ``m x n``
block more, or written over its dense inverse.  It is checked where it
is used: the frame's one solve ``E_mu'^{-1} (A_mu' W)`` is checked by its
residual, taken from the factors, and ``--mode decouple``, which forms
the dense inverse, checks all ``n^2`` entries of ``E_mu' E_mu'^{-1} -
I``.

Decoupling then splits the system into one ODE subsystem and ``mu``
algebraic-constraint subsystems with closed-form coefficient matrices,
each a word in the projectors times ``E_mu'^{-1} A_mu'``.  Since every
projector is ``I - K_j R_j`` or ``K_j R_j`` and ``A_mu' = A_0 - sum_j (A_j
K_j) R_j``, :class:`DecoupledSystem` keeps the corrections ``R_j`` beside
the chain's steps and applies the
coefficients to ``n x c`` blocks right to left, at ``O(n^2 c)`` each; that
operator is its only form, and a dense coefficient or projector is the
operator applied to the identity.  The
ODE subsystem lives on ``range(Pi)``, ``Pi = projectors[1]``, of
dimension ``r = n - sum_j rank Q_j``; :attr:`DecoupledSystem.ode_basis`
gives ``r``-dimensional coordinates on it, and the reach path reads only
blocks of ``r`` or ``k`` columns: admissibility makes each word of the
lift one word of length ``mu``, applied once.  After a closed-form first
step, ``P_0`` is the last letter of ``Pi`` and ``Q_0`` is never
corrected, so ``range(Pi)`` is exactly zero on the rows ``c_0`` (Stokes:
the pressures): the frame is drawn and factored on the other rows, ``A_mu'
W`` reads only the other columns of ``A`` and drops the exactly-zero term
``(A_0 K_0)(W[c_0])``, and the residual check forms ``E_mu'`` from ``E``
and ``A_0[:, c_0]`` with no ``E_1``; only products by exact zeros are
skipped.  Only indices 1 through 3 are supported; higher indices raise.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import (
    IndexTooHighError,
    IrregularPencilError,
    NonsingularEError,
    SingularMatrixError,
)
from .linalg import (
    RANK_REL_TOL,
    InverseBlocks,
    kernel_basis_and_inverse,
    rank_factors,
    rank_update_inverse,
    row_blocks,
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


class ChainStep(NamedTuple):
    """One step ``X_{j+1} = X_j - (A_j K_j) K_j^T`` of the chain: ``K`` an
    orthonormal basis of ``Ker E_j``, ``image = A_j K_j`` and ``columns``,
    whose unit vectors are ``K`` when ``E_j``'s closed form decided it
    (:attr:`~daereach.linalg.Factors.kernel_columns`), else ``None``.  Each
    product through ``K`` is a method that decides between the two forms:
    for unit vectors each entry of the dense product is one entry times 1.0
    plus exact zeros, so a gather or a scatter of ``columns`` gives its bits
    with no product.
    """

    K: np.ndarray
    image: np.ndarray
    columns: np.ndarray | None

    @classmethod
    def taken(cls, A_j, K, columns):
        """The step of kernel basis ``K`` on ``A_j``, given as rows: its
        ``image`` ``A_j K`` is a gather of ``columns`` for unit vectors, else
        a product that reads only ``A_j``'s stored entries."""
        return cls(K, A_j @ K if columns is None else A_j.column_block(columns), columns)

    def rows(self, Y, R=None):
        """``R Y``, with ``R = K^T`` for ``None``: then the rows ``columns``
        of ``Y`` for unit vectors."""
        if R is not None:
            return R @ Y
        return self.K.T @ Y if self.columns is None else Y[self.columns]

    def expand(self, Z):
        """``K Z``: for unit vectors, ``Z`` scattered to the rows
        ``columns`` of zeros."""
        if self.columns is None:
            return self.K @ Z
        KZ = np.zeros(self.K.shape[:1] + np.shape(Z)[1:])
        KZ[self.columns] = Z
        return KZ

    def times(self, R):
        """``R K``: for unit vectors, the columns ``columns`` of ``R``."""
        return R @ self.K if self.columns is None else R[:, self.columns]

    def applied(self, X):
        """``X - image K^T`` for rows ``X``, as new rows: for unit vectors
        ``image`` subtracted from the columns ``columns``, the same matrix
        with no dense ``n x n`` array, as every other column of ``image
        K^T`` is zero and each of those is a column of ``image`` (Stokes
        ``A_1`` is ``A`` with those columns exactly zero, which drops them),
        else a dense product, stored as rows."""
        if self.columns is None:
            return X.minus(self.image @ self.K.T)
        return X.minus_columns(self.columns, self.image)


@dataclass
class MatrixChain:
    """The raw chain: ``E_0 = E`` and ``A_0 = A``, its ``steps`` and the
    terminal inverse.

    ``steps[j]`` is the :class:`ChainStep` of the singular chain matrix
    ``E_j``, ``j < mu``: its orthonormal kernel basis ``K_j``, so that the
    projector ``Q_j = K_j K_j^T`` is kept factored, the image ``A_j K_j``
    and the kernel columns of a closed form.  No chain matrix past ``E``
    and ``A`` is kept: ``E_j`` and ``A_j`` are ``E`` and ``A`` through the
    first ``j`` steps.  ``mu``, the index, is the number of steps.
    ``inverse`` holds ``E_mu^{-1}`` as :class:`~daereach.linalg.InverseBlocks`:
    the certificate's blocks ``C^{-1}`` and ``t = lead^{-1} top C^{-1}``
    when it proved ``E_mu`` nonsingular from row-gather (QR, Gram or
    closed-form) factors of ``E_{mu-1}``, else the dense inverse from the
    certificate on SVD factors or from ``E_mu``'s own SVD;
    ``terminal_inverse`` is a new dense ``E_mu^{-1}``, formed on read from
    them and ``K_{mu-1}``.  A chain decouples once: :func:`decouple` takes
    the inverse, keeps the corrected one as blocks or writes it over the
    dense inverse, and sets ``inverse`` to ``None``, so a second
    :func:`decouple` or a later ``terminal_inverse`` raises
    :class:`ValueError`.
    ``decisions`` holds, for each chain matrix ``E_0 .. E_mu``, what
    decided its rank and by what margin: the ``decision`` of its own
    :class:`~daereach.linalg.Factors` (``"diagonal"``, ``"gram"``,
    ``"qr"`` or ``"svd"``), or
    ``{"method": "certificate", "bound": ...}`` for a terminal matrix
    certified from the previous one's factors.  ``condition_bound`` is
    that certified bound on ``cond_2(E_mu)``, ``None`` when ``E_mu``'s own
    SVD decided.
    """

    E: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    steps: list = field(repr=False)
    inverse: InverseBlocks | None = field(repr=False)
    decisions: tuple

    @property
    def mu(self):
        return len(self.steps)

    @property
    def n(self):
        return self.E.shape[0]

    def _held_inverse(self):
        """``inverse``, unless :func:`decouple` took it."""
        if self.inverse is None:
            raise ValueError("decouple took this chain's terminal inverse: a chain decouples once")
        return self.inverse

    @property
    def terminal_inverse(self):
        """The dense ``E_mu^{-1}``, a new array formed on read: the
        certificate's blocks are corrected with ``R = K^T`` first."""
        inverse = self._held_inverse()
        if inverse.c_inv is not None:
            K = self.steps[-1].K
            inverse = inverse.corrected(K, K.T)
        return inverse.dense()

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


@cache
def _tails(words):
    """``(children, roots)`` of projector ``words``: ``children[j, tail]``
    is ``[P + tail, Q + tail]``, each of them ``""`` unless a word has it as
    its tail from chain position ``j - 1`` on; ``roots`` are the words'
    lengths, where their empty tails stand."""
    children = {}
    for word in words:
        for j in range(len(word)):
            pair = children.setdefault((j + 1, word[j + 1 :]), ["", ""])
            pair[word[j] == "Q"] = word[j:]
    return children, [j for j, tail in children if not tail]


@dataclass(frozen=True)
class DecoupledSystem:
    """The decoupled subsystems, kept in the factored form of their chain.

    Subsystem 1 is the ODE part ``x_1' = N[1] x_1``; subsystems 2..mu+1
    are algebraic constraints.  Every coefficient is a word in the
    admissible projectors ``P_j = I - K_j R_j``, ``Q_j = K_j R_j`` times
    ``S = E_mu'^{-1} A_mu'`` (``E_1^{-1} A_0`` at index 1), so the class
    holds only the ``raw`` chain (the index ``mu``, ``A_0 = A``, ``E_0 = E``
    and the steps' ``K_j`` and ``A_j K_j`` are its), the corrections ``R``,
    one per step and ``None`` where ``Q_j`` is the raw ``K_j K_j^T``
    (:func:`decouple` never corrects ``Q_0``), and the ``inverse``
    ``E_mu'^{-1}`` (:class:`~daereach.linalg.InverseBlocks` from
    :func:`decouple`: the certificate's blocks and the ``m x n``
    correction, with no ``n x n`` array, or dense on SVD factors);
    ``terminal_inverse`` is a new dense ``E_mu'^{-1}``, formed on read.  It
    applies the one operator ``X -> {i: N_i X}`` to blocks right to left:
    ``S X = E_mu'^{-1} (A_mu' X)`` with ``A_mu' X = A X - sum_j (A_j
    K_j)(R_j X)`` (``A X`` at index 1), ``P_j X = X - K_j (R_j X)``, ``Q_j X
    = K_j (R_j X)``, each product through ``K_j`` taken by its
    :class:`ChainStep`.  An ``n x c`` block costs ``O(n^2 c)``; no ``n x n
    x n`` product is taken.  Where ``K_j`` is unit vectors (Stokes
    ``K_0``), ``R_j X`` is rows of ``X`` while ``R_j`` is the raw ``K_j^T``,
    and ``Q_j X`` is ``R_j X`` scattered to those rows; both are bit for bit
    the dense products.  While ``R_0`` is that raw ``K_0^T``, ``range(Pi)``
    is exactly zero on the rows ``c_0`` (see ``_range_rows``), and the frame
    is formed and applied on the others.

    The reach path needs only thin blocks, and they are all that is cached:
    the ODE frame ``ode_basis`` ``W``, the reduced matrix ``ode_matrix``
    ``W^T N[1] W`` and the ``lift`` ``psi W``, the sum of the maps on the
    frame, whose range is the consistent space.  Both are formed together
    from the ``2^mu`` projector words of length ``mu`` applied once to ``S
    W`` (see ``_frame``), which are not kept; the words
    overwrite each product they no longer read (``P_j Y = Y - Q_j Y`` over
    ``Y``) and drop each tail once its words are formed.  ``S W``, the one
    solve the reach path takes, is checked when it is taken: its relative
    residual ``solve_residual`` must not exceed ``sqrt(RANK_REL_TOL)`` (see
    :meth:`_checked_solve`), or reading the frame raises
    :class:`SingularMatrixError`.  ``inverse_residual`` is that check at
    ``Y = I``, over all ``n^2`` entries of the dense inverse, taken only
    when read (``--mode decouple`` and the tests).  A dense form is
    the operator applied to the identity: ``apply_N(I)`` gives the
    coefficients ``N``, ``apply_couplings(I)`` the multipliers
    ``L3``/``L4``/``Z4`` of derivative terms of lower constraint
    subsystems, and ``apply_projectors(I)`` the ``projectors``
    (``projectors[i]`` extracts subsystem ``i``'s component; they sum to
    the identity), which :attr:`projectors` keeps.
    """

    raw: MatrixChain = field(repr=False)
    R: tuple = field(repr=False)
    inverse: InverseBlocks = field(repr=False)

    @property
    def terminal_inverse(self):
        """The dense ``E_mu'^{-1}``, a new array formed on read."""
        return self.inverse.dense()

    @property
    def mu(self):
        return self.raw.mu

    @property
    def n(self):
        return self.raw.n

    @property
    def admissibility_residual(self):
        """``max ||Q_j Q_i||_F`` over ``j > i``, 0 at index 1.  ``K_j`` has
        orthonormal columns, so ``||Q_j Q_i||_F = ||(R_j K_i) R_i||_F``, an
        ``m_j x n`` product."""
        steps = self.raw.steps
        R = [step.K.T if R_j is None else R_j for step, R_j in zip(steps, self.R)]
        return max(
            (
                float(np.linalg.norm(steps[i].times(R[j]) @ R[i]))
                for j in range(self.mu)
                for i in range(j)
            ),
            default=0.0,
        )

    @property
    def ode_rank(self):
        """``r = n - sum m_j``: the admissible projectors' kernels add up
        directly to ``Ker Pi``, so this is the rank of ``Pi``."""
        return self.n - sum(step.K.shape[1] for step in self.raw.steps)

    def _kernel_rows(self, j, Y):
        """``R_j Y``."""
        return self.raw.steps[j].rows(Y, self.R[j])

    def _apply(self, words, X, owned=False, rows=None):
        """``{key: word X}`` for projector words (see ``_PROJECTOR_WORDS``).
        Words sharing a tail share its products, and ``P_j Y = Y - Q_j Y``
        reuses ``Q_j Y``; the tails are taken depth first, each dropped once
        its children are formed, and ``P_j Y`` overwrites ``Y`` where ``Y``
        is a product of its own, or the ``owned`` input of the only tail.
        ``rows``, when given, is a list holding ``R_{mu-1} X``, which the
        words of length ``mu`` then take in place of their first product;
        it is popped there, so the block is dropped once used."""
        children, roots = _tails(tuple(words.values()))
        stack = [(j, "", X, owned and len(roots) == 1) for j in roots]
        products = {}
        while stack:  # the Q child of a tail is popped first, then its P child
            j, tail, Y, writable = stack.pop()
            if not j:
                products[tail] = Y
                continue
            p_tail, q_tail = children[j, tail]
            RY = rows.pop() if rows and not tail and j == self.mu else None
            QY = self.raw.steps[j - 1].expand(self._kernel_rows(j - 1, Y) if RY is None else RY)
            if p_tail:
                stack.append((j - 1, p_tail, np.subtract(Y, QY, out=Y) if writable else Y - QY, True))
            if q_tail:
                stack.append((j - 1, q_tail, QY, True))
        return {key: products[word] for key, word in words.items()}

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

    def ode_coordinates(self, X):
        """``W^T Pi X``: the coordinates of the ODE component of an ``n x
        c`` block ``X`` in the frame ``W = ode_basis``."""
        return self.ode_basis.T @ self.ode_component(np.asarray(X, dtype=float))

    def _apply_source(self, X, on_range=False):
        """``A_mu' X = A X - sum_j (A_j K_j)(R_j X)`` over ``j < mu`` from the
        raw chain's ``A`` (sparse rows, so ``A X`` reads only its entries)
        and steps; ``A X`` at index 1.  A block ``X`` ``on_range`` of ``Pi``
        (the frame ``W``) is exactly zero off ``_range_rows``, so the ``j =
        0`` term, ``(A_0 K_0)`` times the zero rows ``R_0 X = X[c_0]``, is
        exactly zero and not taken; every ``j >= 1`` term is kept."""
        skip_first = on_range and self._range_rows is not None
        AX = self.raw.A @ X
        if self.mu > 1:
            for j, step in enumerate(self.raw.steps):
                if j or not skip_first:
                    AX -= step.image @ self._kernel_rows(j, X)
        return AX

    def _checked_solve(self, Y):
        """``(X, rho, RX)``: ``X = E_mu'^{-1} Y``, its relative residual
        ``rho = max|E_mu' X - Y| / max|Y|`` (``max|E_mu' X - Y|`` for ``Y =
        0``), and ``RX = R_{mu-1} X``, the check's last term, which is also
        the first product of every projector word of length ``mu`` applied
        to ``X`` (``None`` at index 1, where the check takes no such term).
        A ``rho`` above ``sqrt(RANK_REL_TOL)``, or NaN, raises
        :class:`SingularMatrixError`.

        ``E_mu' X`` is taken from the factors, a block of rows at a time, as
        ``E X - sum_j (A_j K_j)(R_j X)`` over ``j < mu``.  ``E`` is sparse
        rows, so ``E X`` gathers the rows of ``X`` its entries name (Stokes
        ``E = diag(I, 0)``: a copy of the velocity rows), and after a
        closed-form first step ``R_0 X = K_0^T X`` is the rows ``c_0`` of
        ``X``.  No ``n x n`` array is formed for an ``n x r`` ``Y``."""
        X = self.inverse.apply(Y)
        terms = [(step.image, self._kernel_rows(j, X)) for j, step in enumerate(self.raw.steps)]
        top = 0.0
        for rows in row_blocks(self.n) if Y.size else ():
            block = self.raw.E[rows] @ X
            for image, RX in terms:
                block -= image[rows] @ RX
            block -= Y[rows]
            block_top = float(np.abs(block, out=block).max())
            if top == top and not block_top <= top:  # a NaN is kept
                top = block_top
        scale = float(np.abs(Y).max()) if Y.size else 0.0
        rho = top / scale if scale > 0.0 else top + scale  # a NaN in Y is kept
        if not rho <= np.sqrt(RANK_REL_TOL):
            raise SingularMatrixError(
                f"the corrected chain's terminal solve has residual {rho:.3e}; the "
                "index classification is unreliable at this tolerance"
            )
        return X, rho, terms[-1][1] if self.mu > 1 else None

    @cached_property
    def inverse_residual(self):
        """``max|E_mu' E_mu'^{-1} - I|`` over all ``n^2`` entries: the solve
        check of :meth:`_checked_solve` at ``Y = I``, which forms the dense
        ``E_mu'^{-1}``; raises as that check does.  The reach path reads
        only ``solve_residual``."""
        return self._checked_solve(np.eye(self.n))[1]

    def apply_N(self, X):
        """``{i: N[i] X}``: ``S X = E_mu'^{-1} (A_mu' X)`` through every
        subsystem's front."""
        fronts = {i: w.ljust(self.mu, "P") for i, w in _PROJECTOR_WORDS[self.mu].items()}
        return self._apply(fronts, self.inverse.apply(self._apply_source(X)), owned=True)

    @cached_property
    def _range_rows(self):
        """The rows on which ``range(Pi)`` may be nonzero: all but the
        kernel columns ``c_0`` of a unit-vector ``K_0`` while ``R_0`` is the
        raw ``K_0^T``, else ``None`` (every row).  ``P_0`` is the last letter
        applied in ``Pi``, and ``P_0 Y = Y - Q_0 Y`` is then ``Y[c_0] -
        Y[c_0]``, exactly zero, on rows ``c_0``."""
        columns = self.raw.steps[0].columns
        if columns is None or self.R[0] is not None:
            return None
        kept = np.ones(self.n, dtype=bool)
        kept[columns] = False
        kept = np.flatnonzero(kept)
        if kept.size and kept[-1] - kept[0] == kept.size - 1:  # contiguous: a view
            return slice(int(kept[0]), int(kept[-1]) + 1)
        return kept

    @cached_property
    def ode_basis(self):
        """``W``: coordinates on the ODE subspace ``range(Pi)``.

        ``W`` (``n x r``, orthonormal columns, ``r = ode_rank``) is the thin
        QR factor of ``Pi`` times a fixed-seed Gaussian ``n x r`` matrix, so
        that ``Pi = W W^T Pi``: the ODE component ``Pi v`` has coordinates
        ``W^T (Pi v)``.  ``N[1]`` maps into ``range(Pi)``, so ``x_1 = W y``
        solves the ODE subsystem exactly when ``y' = ode_matrix y``.  Where
        ``range(Pi)`` is zero off ``_range_rows`` (Stokes: the velocities),
        the Gaussian is drawn on those rows only and the thin QR factor of
        those rows of ``Pi`` times it is written over them: the other rows
        are ``P_0``'s exact zeros, whatever the factorization does.
        """
        rows = self._range_rows
        rows = slice(None) if rows is None else rows
        omega = np.zeros((self.n, self.ode_rank))
        omega[rows] = np.random.default_rng(_FRAME_SEED).standard_normal(omega[rows].shape)
        W = self._apply({1: "P" * self.mu}, omega, owned=True)[1]  # exactly zero off rows
        W[rows] = np.linalg.qr(W[rows])[0]
        return W

    def _frame(self, name):
        """``ode_matrix`` and ``lift`` from the ``2^mu`` words of length
        ``mu`` applied once to ``S W``.  ``M = W^T (P..P) S W`` gives ``N[1]
        W = W M``, so the maps' terms ``N_i N[1]^p W`` are ``(N_i W) M^p``,
        and ``Q_j P_i = Q_j`` (``j > i``) collapses each coupling word times
        ``N_i`` to one word (``L3 N[2] = Q_0 Q_1``): ``psi W = W + sum_q G_q
        M^{q-1}`` by Horner, ``G_q`` the sum of the words with ``q`` letters
        ``Q``.  ``A_mu' W`` keeps its terms ``(A_j K_j)(R_j W)``, which vanish
        on ``range(Pi)`` only in exact arithmetic: ``M`` amplifies them.  Only
        a unit-vector ``K_0``'s term is dropped, as ``W[c_0]`` is exactly
        zero (see :meth:`_apply_source`).  The words' first product, ``R_{mu-1}
        S W``, is the one the check of the solve took."""
        W, mu = self.ode_basis, self.mu
        words = {word: word for word in map("".join, product("PQ", repeat=mu))}
        # A_mu' W is passed, not named, so that it is dropped once checked, and
        # S W is let go once applied: the words overwrite it with P..P S W,
        # which is dropped once M is formed; R_{mu-1} S W is handed over in a
        # list the words empty, so that it is dropped once they have used it
        SW, residual, *rows = self._checked_solve(self._apply_source(W, on_range=True))
        blocks = self._apply(words, SW, owned=True, rows=rows)
        del SW
        M = W.T @ blocks.pop("P" * mu)
        G = {}  # G[q]: the words with q letters Q, summed in place over the first
        for word, block in blocks.items():
            q = word.count("Q")
            G[q] = np.add(G[q], block, out=G[q]) if q in G else block
        lift = G[mu]
        for q in range(mu - 1, 0, -1):
            lift = np.add(lift @ M, G[q], out=G[q])
        lift += W
        vars(self).update(ode_matrix=M, lift=lift, solve_residual=residual)
        return vars(self)[name]

    @cached_property
    def ode_matrix(self):
        """``W^T N[1] W``, the ODE subsystem in the coordinates of ``W``."""
        return self._frame("ode_matrix")

    @cached_property
    def lift(self):
        """``psi W``: the sum of the reconstruction maps on the ODE frame,
        ``maps[i] W`` (``maps[1] W = W``); its range is the consistent
        space."""
        return self._frame("lift")

    @cached_property
    def solve_residual(self):
        """The checked residual of the one solve the frame takes, ``S W =
        E_mu'^{-1} (A_mu' W)``: ``max|E_mu' S W - A_mu' W| / max|A_mu' W|``
        (see :meth:`_checked_solve`), formed with ``lift``."""
        return self._frame("solve_residual")

    @cached_property
    def projectors(self):
        return self.apply_projectors(np.eye(self.n))


def _chain_rows(X, steps, rows=None):
    """Rows ``rows`` (every row for ``None``) of ``X_j`` for ``X_0 = X``,
    through the ``j`` :class:`ChainStep` ``steps``, each taken on the rows
    of its ``image`` (:meth:`ChainStep.applied`), as a new
    :class:`~daereach.linalg.RowSparse`."""
    if rows is not None:
        X, steps = X[rows], [step._replace(image=step.image[rows]) for step in steps]
    for step in steps:
        X = step.applied(X)
    return X


def compute_index_and_chain(sys):
    """Build the matrix chain with orthogonal projectors and find the index.

    Each chain matrix past ``E_0`` is first offered to
    :func:`~daereach.linalg.rank_update_inverse` with the previous matrix's
    factors; a certified one ends the chain with no factorization of its
    own and keeps its bound on ``condition_bound``.  Any other takes its
    own :func:`~daereach.linalg.rank_factors` (a closed form, Gram
    factors, a certified QR or an SVD), which decides its rank and, when it
    is singular, gives its kernel basis.  The closed form and the three
    certificates decide only as the SVD would, so none changes an index.
    ``decisions`` records, per matrix, which one decided and by what
    margin.  Only what is read is formed, and kept only while it is read:
    ``E_{j+1}`` and ``A_{j+1}`` come from ``E`` and ``A`` through the
    recorded steps (:func:`_chain_rows`), ``E_{j+1}`` only when its own
    factors decide it and ``A_{j+1}`` only when ``E_{j+1}`` is singular
    after a step with a dense kernel basis, and each is dropped once
    factored or once ``A_{j+1} K_{j+1}`` is taken.  So a certified terminal
    matrix is never formed, ``A_mu`` never is, and neither is the product
    ``A_mu Q_mu`` before it.  A closed-form kernel basis is the unit vectors
    of some columns: ``A_j K_j`` gathers them and both updates subtract it
    from them, with no product, which leaves those columns of ``A_{j+1}``
    exactly zero; after only such steps ``A_{j+1} K_{j+1}`` is ``A``'s other
    columns times those rows of ``K_{j+1}`` (:meth:`ChainStep.taken`), and
    the products by the zero columns are not taken.

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
    steps, decisions = [], []
    for mu in range(MAX_SUPPORTED_INDEX + 1):
        inverse = None
        if mu:
            inverse, bound = rank_update_inverse(current, steps[-1].image)
        if inverse is None:  # the matrix's own factors decide
            current = rank_factors(_chain_rows(sys.E, steps))
            decisions.append(current.decision)
            kernel_basis, inverse = kernel_basis_and_inverse(current)
        else:
            decisions.append({"method": "certificate", "bound": bound})
        if inverse is not None:  # E_mu is nonsingular
            if mu == 0:
                raise NonsingularEError(
                    "E is nonsingular: the system is an ODE and needs no decoupling"
                )
            return MatrixChain(sys.E, sys.A, steps, inverse, tuple(decisions))
        if mu < MAX_SUPPORTED_INDEX:  # A_mu K_mu; A_mu is not kept
            A_mu = _chain_rows(sys.A, steps)
            steps.append(ChainStep.taken(A_mu, kernel_basis, current.kernel_columns))
            del A_mu
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
    ``Q_j Q_i = 0`` for ``j > i`` and its terminal inverse, with every
    coefficient applied on demand.

    Index 1 keeps its projector (a single projector is trivially
    admissible).  At index ``mu >= 2`` the last projector is corrected to
    ``Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}``, with ``E_mu`` and
    ``A_{mu-1}`` those of the chain rebuilt with the corrected earlier
    projectors; index 3 first corrects ``Q_1' = -Q_1 (I - Q_2^*) E_3^{-1}
    A_1``, ``Q_2^* = -Q_2 E_3^{-1} A_2``.  Each corrected projector still
    projects onto the kernel of its rebuilt chain matrix and has the form
    ``K_j R_j`` with the raw chain's orthonormal kernel basis ``K_j``, so
    the rebuilt chain reuses the raw chain's ``A_j K_j``: ``E_mu'`` and
    ``A_mu'`` are ``E_0`` and ``A_0`` minus ``sum_j A_j K_j R_j``, with
    ``R_0 = K_0^T``.  Neither is formed whole: :meth:`DecoupledSystem.apply_N`
    applies ``A_mu'`` from those terms, or the original ``A_0`` at index 1
    (the two differ off the ODE subspace), and what the correction reads is
    formed from ``E_0`` and ``A_0`` through the chain's steps, in the chain's
    own order of operations: the rows of ``A_{mu-1}`` it reads; at index 3
    ``S A_1`` is ``S A_0`` (see the comment there).

    No matrix is factored or solved.  The chain's ``E_mu^{-1}`` is taken
    from it, so the chain decouples once (see :class:`MatrixChain`), and
    the swap ``I + Q - Q'`` (with index 3's ``I + X`` before it) is applied
    once by :meth:`~daereach.linalg.InverseBlocks.corrected`: kept with the
    certificate's blocks as one ``m x n`` block ``Z`` (and index 3's ``J``
    and ``Y``), so that no ``n x n`` array is formed, or written over a
    dense inverse.  A QR's ``W_1`` is copied out of its ``n x n`` ``W``
    first, and ``W`` dropped.  Where the certificate kept
    ``C^{-1}``, ``K^T E_mu^{-1} = [0, C^{-1}] U^T``, so ``R`` reads only
    the rows ``left[rank:]`` of ``A_{mu-1}``.  At index 3, ``(Q_1 - Q_1')
    Q_2 = 0``, so ``Ker E_2' = Ker E_2``, ``A_2' K_2 = A_2 K_2``, and the
    intermediate ``E_2' - A_2' Q_2`` is ``E_3 (I - X)``, ``X = P_2 (Q_1 -
    Q_1')``, ``X^2 = 0``, with inverse ``(I + X) E_3^{-1}``; ``Q_2' = Q_2^*``, since
    ``K_2^T X = 0`` and ``E_3^{-1} A_1 Q_1 = -P_2 Q_1`` make ``K_2^T
    E_3^{-1}`` map ``A_2``, ``A_1`` and ``A_2' = A_1 - A_1 Q_1'`` alike.

    The terminal inverse is not checked here but where it is used, as a
    computed solve should be (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 7 and 14; Rigal & Gaches, JACM 14, 1967): the
    frame checks the residual of its one solve ``E_mu'^{-1} (A_mu' W)``, the
    ``r`` columns the verdict rests on (:attr:`DecoupledSystem.solve_residual`),
    and ``--mode decouple`` all ``n^2`` entries of ``E_mu' E_mu'^{-1} - I``
    (:attr:`DecoupledSystem.inverse_residual`); either raises
    :class:`SingularMatrixError` above ``sqrt(RANK_REL_TOL)``.

    Inputs are stacked into the state by :func:`~daereach.model.to_autonomous`
    beforehand, so there are no input coefficients.
    """
    mu, steps, inverse = chain.mu, chain.steps, chain._held_inverse()
    chain.inverse = None
    if inverse.B is None and inverse.N.ndim == 2:
        # W_1 copied out of a QR's W, so that the n x n W is dropped now
        inverse = inverse._replace(N=inverse.N.copy())
    R = [None] * mu
    K = steps[-1].K
    index_3 = ()  # (J, Y) of the index-3 step
    if mu > 1:
        # K^T E_mu^{-1} Y = KtE @ Y[tail] (every row for None), [0, C^{-1}] U^T
        # where C^{-1} was kept
        if inverse.c_inv is None:
            KtE, tail = K.T @ inverse.B, None
        else:
            KtE, tail = inverse.c_inv, inverse.left[chain.n - inverse.c_inv.shape[0] :]
        # Q_{mu-1}' = -Q_{mu-1} E_mu^{-1} A_{mu-1}, from the rows tail of A_{mu-1}
        R[-1] = -(KtE @ _chain_rows(chain.A, steps[:-1], tail))
        if mu == 3:
            K1 = steps[1].K
            # Q_1' = K_1 R_1, R_1 = -S A_1, S = K_1^T (I - Q_2^*) E_3^{-1}; S A_1 = S A_0,
            # as S A_0 Q_0 = 0 in the raw chain: E_3^{-1} A_0 Q_0 = -Q_0 + P_2 Q_1 Q_0 +
            # Q_2 Q_0 and (I - Q_2^*) Q_2 = 0, so (I - Q_2^*) P_2 = I - Q_2^* and, with
            # K_1^T P_1 = 0, S A_0 Q_0 = -K_1^T (I - Q_2^*) P_1 Q_0 = K_1^T Q_2^* P_1 Q_0,
            # where Q_2^* P_1 Q_0 = -Q_2 E_3^{-1} A_1 P_1 Q_0 = Q_2 E_3^{-1} A_1 Q_1 Q_0 =
            # -Q_2 P_2 Q_1 Q_0 = 0 by A_1 Q_0 = 0, E_3^{-1} A_1 Q_1 = -P_2 Q_1, Q_2 P_2 = 0
            R[1] = -(inverse.right_product(K1.T - (K1.T @ K) @ R[-1]) @ chain.A)
            # (I + X) E_3^{-1}, X = P_2 (Q_1 - Q_1') = J (K_1^T - R_1) and
            # (K_1^T - R_1) K_2 = 0, so Y = (K_1^T - R_1) E_3^{-1} reads F U^T
            index_3 = (K1 - K @ (K.T @ K1), inverse.right_product(K1.T - R[1]))
    if mu > 1 or inverse.B is None:  # (I + Q - Q')(I + X) E_mu^{-1}
        inverse = inverse.corrected(K, K.T if R[-1] is None else R[-1], *index_3)
    return DecoupledSystem(raw=chain, R=tuple(R), inverse=inverse)


def decouple_system(sys):
    """The decoupled form of an autonomous DAE:
    :func:`compute_index_and_chain`, then :func:`decouple`; raises what
    they raise."""
    return decouple(compute_index_and_chain(sys))
