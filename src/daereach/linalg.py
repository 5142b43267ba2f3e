"""Dense real-matrix primitives and the package's numerical thresholds.

Rank decisions, kernel bases, chain-matrix inverses, and matrix
exponentials for the rest of the package, on numpy alone; every chain
inverse comes from a chain matrix's own factors or a certified update of
them.  All rank-like decisions go through one relative
singular-value cutoff, :data:`RANK_REL_TOL`; the package's other two
thresholds live beside it: :data:`CONSISTENCY_TOL` for the initial-star
check and :data:`FEASIBILITY_TOL` for the LPs over star predicates.  Only
the safety check takes its slack as an argument, a float that defaults to
:data:`DEFAULT_TOLERANCES`.

The matrix chain factors each chain matrix at most once, into one
:class:`Factors` format ``Z = U [[lead, 0], [0, diag(tail)]] W^T``: the
kernel basis it yields also decides the rank (an empty basis means the
matrix is nonsingular), so a chain matrix's index step and its projector
cannot disagree, and a nonsingular matrix's inverse is formed from the
same factors, ``W diag(1/s) U^T``, with no LU solve, and kept as an
:class:`InverseBlocks`.

:func:`rank_factors` picks one of four factorizations.  A matrix of at
least ``_QR_MIN_N`` rows that has exactly-zero rows (the constraint rows
of a semi-explicit DAE) and whose every nonzero row owns a column, being
its only nonzero, has nonzero rows ``M = [D | -X]`` up to row and column
order, with ``D`` diagonal.  A scaled column selection (``X = 0``, as
Stokes ``E = diag(I, 0)``) is factored in closed form: its singular values
are the magnitudes of its nonzero entries, so the rank is decided with no
arithmetic.  Otherwise (Stokes ``E_1 = [I | -G]``) one small Cholesky
factor gives its kernel and, by Woodbury, the right inverse of ``M``,
accepted when ``||M||_F / min|d|`` proves that the SVD would find the same
rank.  Any other such matrix, and one whose Gram matrix is too badly
conditioned, takes a complete QR of its nonzero rows, accepted only when a
Frobenius-norm bound proves the same; any other matrix takes an SVD.

A chain matrix that differs from an already factored one by a product
through the latter's kernel basis can skip its own factorization:
:func:`rank_update_inverse` writes it in the old factors as a block upper
triangular matrix, inverts it through the inverse of the small diagonal
block, and accepts it as nonsingular only when a Frobenius-norm bound on its
condition number clears the rank cutoff by :data:`CERTIFICATE_MARGIN`.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .rows import RowSparse

__all__ = [
    "RANK_REL_TOL",
    "CONSISTENCY_TOL",
    "FEASIBILITY_TOL",
    "CERTIFICATE_MARGIN",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "as_vector",
    "readonly",
    "RowSparse",
    "as_rows",
    "Factors",
    "svd_factors",
    "rank_factors",
    "kernel_basis_and_inverse",
    "InverseBlocks",
    "rank_update_inverse",
    "triangular_inverse",
    "general_inverse",
    "matrix_exponential",
]


# relative singular-value cutoff for every rank decision
RANK_REL_TOL = 1e-9
# allowed max-norm residual of an initial star's lift
CONSISTENCY_TOL = 1e-8
# allowed constraint slack in the LPs over a star's predicate
FEASIBILITY_TOL = 1e-9

# factor by which a certified condition bound must clear the rank cutoff
# 1 / RANK_REL_TOL; it covers the rounding between the factored form and
# the SVD the certificate stands in for
CERTIFICATE_MARGIN = 2.0


# the default slack of a safety check (safety.verify)
DEFAULT_TOLERANCES = FEASIBILITY_TOL


def as_matrix(a, name="matrix", allow_empty_cols=False):
    """Coerce ``a`` to a dense, finite float64 2-D array.

    Rejects empty matrices (0 rows, or 0 columns unless
    ``allow_empty_cols``) and non-finite entries.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or (arr.shape[1] < 1 and not allow_empty_cols):
        raise ValueError(f"{name} must have positive dimensions, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name="vector"):
    """Coerce ``a`` to a finite float64 1-D array (column vectors are flattened)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def readonly(arr):
    """A read-only version of ``arr``: copied if the input is writeable,
    shared as-is if it is already frozen."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def as_rows(a, name="matrix"):
    """``a`` as a :class:`RowSparse`: kept when it is one, else checked by
    :func:`as_matrix` and stored.  Rejects an empty shape and a non-finite
    entry as :func:`as_matrix` does."""
    if not isinstance(a, RowSparse):
        return RowSparse.from_dense(as_matrix(a, name))
    if min(a.shape) < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {a.shape}")
    if not a.finite:
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(arr, name):
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")


def _rank(s):
    """Count of the descending singular values ``s`` above the cutoff."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


class Factors(NamedTuple):
    """A square matrix in the form ``Z = U [[lead, 0], [0, diag(tail)]] W^T``.

    ``U`` and ``W`` are orthogonal, ``lead`` is a nonsingular ``rank x
    rank`` block and every entry of ``tail`` lies at or below the rank
    cutoff, so the trailing ``n - rank`` columns of ``W`` are the kernel
    basis.  Four factorizations give this form:

    * :func:`svd_factors`: ``left`` is ``U``, ``lead`` the vector of the
      singular values above the cutoff (a diagonal block), ``tail`` the
      rest and ``w`` is ``W``;
    * the certified QR of :func:`rank_factors`: ``left`` is the row order
      for ``U`` (``U^T x = x[left]``), ``lead`` the lower triangular ``L``,
      ``lead_inv`` its inverse, ``tail`` zero and ``w`` is ``W``;
    * the Gram factors of :func:`_gram_factors`: ``left`` is the row order,
      ``lead`` is ``d`` of the nonzero rows ``M = D [I | Y]``, ``tail`` is
      zero, ``w`` the kernel basis alone and ``gram`` is ``(V, cols,
      ||M||_F^2)``; ``W_1`` and ``L`` are never formed, but ``||L||_F =
      ||M||_F`` and ``||L^{-1}||_F = ||M^+||_F``;
    * the closed form of :func:`rank_factors` for a scaled column
      selection: ``left`` is the row order, ``lead`` the signed vector
      ``d`` of the nonzero entries (a diagonal block, ``Z[left[i], w[i]] =
      d[i]``), ``tail`` is zero, and ``w`` is the column order that stands
      for ``W`` (``W^T x = x[w]``), so the kernel basis is the unit vectors
      of the columns ``kernel_columns = w[rank:]``.

    ``decision`` records which of the four decided the rank and its
    margin: ``{"method": "svd", "kept": s_r / s_1, "dropped": s_{r+1} /
    s_1}`` (the smallest singular value kept and the largest dropped,
    relative to the largest; ``None`` where there is none), ``{"method":
    "diagonal", "kept": min|d| / max|d|, "dropped": 0.0}``, the same two
    ratios of the same singular values, ``{"method": "qr", "bound":
    ||L||_F ||L^{-1}||_F}`` or ``{"method": "gram", "bound": ||M||_F /
    min|d|}``; each bound is at least ``s_1 / s_rank``.
    """

    left: np.ndarray
    lead: np.ndarray
    tail: np.ndarray
    w: np.ndarray
    rank: int
    decision: dict
    lead_inv: np.ndarray | None = None
    gram: tuple | None = None

    def left_t(self, X):
        """``U^T X``; a row order gathers the rows."""
        return X[self.left] if self.left.ndim == 1 else self.left.T @ X

    def lead_solve(self, X):
        """``lead^{-1} X``."""
        return X / self.lead[:, None] if self.lead.ndim == 1 else self.lead_inv @ X

    @property
    def kernel_columns(self):
        """The columns whose unit vectors are the kernel basis when ``w`` is
        a column order, else ``None``."""
        return self.w[self.rank :] if self.w.ndim == 1 else None

    @property
    def owned_columns(self):
        """``cols``, ``M[:, cols] = diag(lead)``, for Gram and closed form, else ``None``."""
        if self.gram is not None:
            return self.gram[1]
        return self.w[: self.rank] if self.w.ndim == 1 else None

    @property
    def lead_inv_norm_sq(self):
        """``||lead^{-1}||_F^2``; ``||M^+||_F^2 = trace((M M^T)^{-1})`` for Gram."""
        if self.gram is not None:
            return ((1.0 - (self.gram[0] ** 2).sum(axis=1)) / self.lead**2).sum()
        return (self.lead**-2.0).sum() if self.lead.ndim == 1 else (self.lead_inv**2).sum()


def svd_factors(Z):
    """The :class:`Factors` of a square matrix from its SVD ``Z = U diag(s)
    W^T``, with the numerical rank from the cutoff.  ``Z`` is not checked:
    it comes from :func:`rank_factors`, which checks it, or from the
    package's own algebra."""
    u, s, wt = np.linalg.svd(Z)
    rank = _rank(s)
    top = float(s[0])
    decision = {
        "method": "svd",
        "kept": float(s[rank - 1]) / top if rank else None,
        "dropped": float(s[rank]) / top if top > 0.0 and rank < s.size else None,
    }
    return Factors(u, s[:rank], s[rank:], wt.T, rank, decision)


# Below this size an SVD decides a rank about as fast as the certified QR
# path (zero-row scan, complete QR, triangular inverse) or faster.  One BLAS
# thread, best of three medians of 300 calls on random matrices with a
# third of their rows zero, SVD against QR: 23-31 us against 42-74 us at
# n = 6, about 50 us each at n = 16, 75-104 us against 51-55 us at n = 20,
# 140-175 us against 63-64 us at n = 32 (two runs on a shared 2-vCPU host).
_QR_MIN_N = 20


def rank_factors(Z):
    """The :class:`Factors` that decide the rank of a square matrix: a
    closed form, Gram factors or a certified QR where one applies, else
    :func:`svd_factors`.

    The first three need ``n >= _QR_MIN_N`` and ``n - p > 0`` exactly-zero
    rows, and the first two also that each of the ``p`` nonzero rows owns a
    column in which it is the only nonzero, ``d_i`` its entry there: up to
    row and column order the nonzero rows are ``M = [D | -X]`` with ``D =
    diag(d)``.

    When ``X = 0``, ``Z`` is a scaled column selection: its singular values
    are ``|d|`` and ``n - p`` zeros, and its kernel is spanned by the unit
    vectors of the ``n - p`` columns it does not select (Golub & Van Loan,
    *Matrix Computations*, 4th ed., 2.4).  When ``min|d| > RANK_REL_TOL *
    max|d|`` that is the SVD's own rank decision, with no margin band, and
    the factors are the row order, ``d`` and the column order; otherwise
    ``Z`` takes the SVD at once, since the QR's bound below is at least
    ``max|d| / min|d|`` and cannot certify.

    When ``X != 0`` it takes the Gram factors of :func:`_gram_factors`
    where they certify the rank and are accurate, and else, like any other
    such ``Z``, factors its nonzero rows ``M`` as ``M^T = Q R`` (a complete
    Householder QR): ``Z = Pi [[L, 0], [0, 0]] Q^T`` with ``L = R^T`` and
    ``Pi`` the row order that puts the nonzero rows first, and ``R^{-1}``
    comes from :func:`triangular_inverse`.  The nonzero singular values of
    ``Z`` are those of ``L``, so ``||L||_F ||L^{-1}||_F`` bounds ``s_1 /
    s_p``; when that bound is below ``1 / (CERTIFICATE_MARGIN *
    RANK_REL_TOL)``, ``s_p`` clears the cutoff and the rest are exactly 0,
    so the SVD would also find rank ``p`` (Golub & Van Loan, *Matrix
    Computations*, 4th ed., 5.4: complete orthogonal decompositions).  A
    zero on the diagonal of ``R``, a bound in the margin band, a matrix
    with no zero row (or no nonzero one) and a small ``n`` take the SVD,
    which decides as always.
    """
    Z = as_rows(Z, "Z")
    _require_square(Z, "Z")
    factors = _row_factors(Z) if Z.shape[0] >= _QR_MIN_N else None
    return svd_factors(Z.dense()) if factors is None else factors


def _row_factors(Z):
    """The closed form, Gram factors or certified QR of :func:`rank_factors`
    for an ``n x n`` :class:`RowSparse` ``Z``, or ``None`` where none
    applies, read from its rows' structure (:meth:`RowSparse.row_owners`)."""
    n = Z.shape[0]
    count, owner, entry = Z.row_owners()
    nonzero = count > 0
    p = int(np.count_nonzero(nonzero))
    if not 0 < p < n:
        return None
    order = np.concatenate([np.flatnonzero(nonzero), np.flatnonzero(~nonzero)])
    top = order[:p]
    if (owner[top] >= 0).all():  # every row owns a column: M = [D | -X]
        cols, d = owner[top], entry[top]
        rest = np.ones(n, dtype=bool)
        rest[cols] = False
        rest = np.flatnonzero(rest)
        if count[top].sum() == p:  # X = 0: a scaled column selection
            low, high = np.abs(d).min(), np.abs(d).max()
            if not low > RANK_REL_TOL * high:
                return None  # the QR's bound is at least high / low: it cannot certify
            decision = {"method": "diagonal", "kept": float(low / high), "dropped": 0.0}
            w = np.concatenate([cols, rest])
            return Factors(order, d, np.zeros(n - p), w, p, decision)
        factors = _gram_factors(order, Z[top], cols, rest, d)
        if factors is not None:
            return factors
    q, r = np.linalg.qr(Z[top].dense().T, mode="complete")
    r_inv = triangular_inverse(r[:p])
    if r_inv is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        bound = math.sqrt((r[:p] ** 2).sum() * (r_inv**2).sum())
    if not bound * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
        return None
    # a copy of the p x p block, in its memory order: a view would keep the
    # whole n x p R alive with the factors
    lead = r[:p].T.copy(order="K")
    return Factors(order, lead, np.zeros(n - p), q, p, {"method": "qr", "bound": bound}, r_inv.T)


_UNIT_ROUNDOFF = 2.0**-53


def _gram_factors(order, rows, cols, rest, d):
    """Gram :class:`Factors` of a matrix ``Z`` from one ``m x m`` Cholesky
    factorization and no QR, or ``None`` when they cannot certify its rank
    or would be inaccurate.

    ``rows = Z[order[:p]]`` are the nonzero rows ``M`` of ``Z`` (the rest of
    ``order`` its zero rows), as :class:`RowSparse`; row ``i`` is the only
    nonzero ``d_i`` of column ``cols[i]``, and ``rest`` lists the other
    ``m`` columns.  In the column order ``[cols, rest]``, ``M = D [I | Y]``
    with ``D = diag(d)`` and ``Y = D^{-1} M[:, rest]``, the one dense ``p x
    m`` block formed, scattered from the rows' entries in ``rest``.  The
    kernel of ``M`` is the range of ``[-Y; I]``, made orthonormal by
    CholeskyQR (Yamamoto, Nakatsukasa,
    Yanagisawa & Fukaya, ETNA 44, 2015): ``R_2^T R_2 = I + Y^T Y`` gives ``K
    = [-V; R_2^{-1}]``, ``V = Y R_2^{-1}``, and by Woodbury ``(I + Y
    Y^T)^{-1} = I - V V^T`` (Golub & Van Loan, *Matrix Computations*, 4th
    ed., 2.1.4) gives the norms of ``M``'s right inverse ``M^+`` that the
    certificate reads: ``||M^+||_F^2 = sum_i (1 - ||V_i||^2) / d_i^2`` and
    ``||M^+ D x||^2 = ||x||^2 - ||V^T x||^2``.
    ``M M^T = D (I + Y Y^T) D`` is at least ``D^2``, so ``s_p >= min|d|``
    and ``bound = ||M||_F / min|d|`` bounds ``s_1 / s_p``; it must clear the
    rank cutoff by ``CERTIFICATE_MARGIN``, as the QR's bound must.
    CholeskyQR loses orthogonality like the unit roundoff times ``1 +
    ||Y||_2^2``, the Gram matrix's condition number, so ``2^-53 (1 +
    ||Y||_F^2)`` must also stay at or below ``RANK_REL_TOL``; a matrix that
    fails either test returns ``None``, and the caller takes the QR.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow declines
        Y = rows.column_block(rest)
        Y /= d[:, None]
        m_norm = rows.norm()
        bound = float(m_norm / np.abs(d).min())
        y_norm_sq = (Y**2).sum()
    if not (
        bound * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0
        and (1.0 + y_norm_sq) * _UNIT_ROUNDOFF <= RANK_REL_TOL
    ):
        return None
    gram = Y.T @ Y
    gram.flat[:: rest.size + 1] += 1.0
    r2_inv = triangular_inverse(np.linalg.cholesky(gram).T)
    V = Y @ r2_inv
    kernel = np.empty((rows.shape[1], rest.size))  # K, its rows scattered to the columns
    kernel[cols], kernel[rest] = -V, r2_inv
    decision = {"method": "gram", "bound": bound}
    gram = (V, cols, m_norm**2)
    return Factors(order, d, np.zeros(rest.size), kernel, d.size, decision, None, gram)


@cache
def row_blocks(n):
    """Slices of ``range(n)``: 4 of them, or fewer of 64 rows.  Products are
    added to or formed in ``n x n`` arrays a block of rows at a time, so no
    ``n x n`` product exists; 2 to 8 blocks timed alike at Stokes k = 12 to
    24 (1 BLAS thread), and each block costs microseconds of numpy calls,
    which doubled ``decouple``'s time at n = 6 without the 64-row floor."""
    step = max(-(-n // 4), 64)
    return tuple(slice(start, start + step) for start in range(0, n, step))


class InverseBlocks(NamedTuple):
    """A nonsingular matrix's inverse ``Z'^{-1}``, dense or kept as blocks.

    ``B`` is the dense inverse, or ``None`` for blocks.  When
    :func:`rank_update_inverse` certified ``Z' = Z - image K^T`` from
    row-gather (QR, Gram or closed-form) factors of ``Z``, ``left`` is
    their row order, which stands for ``U`` (``U^T x = x[left]``), and the
    blocks of ``T^{-1}`` are kept: ``c_inv = C^{-1}`` and ``t = lead^{-1}
    top C^{-1}``; the factors are not, so a caller keeps ``K``.  ``N`` is
    ``W_1`` (QR) or the columns ``cols``
    that the nonzero rows ``M`` own (Gram and closed form: the unit vectors
    of ``cols`` stand for ``N``), so that ``M N = lead``; ``lead`` is the
    vector ``d`` of a diagonal ``lead = diag(d)``, or for QR the matrix
    ``lead^{-1}``.  ``F = N [lead^{-1} | t]`` differs from ``Z'^{-1} U = W
    T^{-1}`` only in ``range K``, and ``K^T Z'^{-1} = [0 | C^{-1}] U^T``, so
    for any ``R`` with ``R K = I``, ``(I - K R) F U^T`` is ``(I - K R)
    Z'^{-1}``, and :meth:`corrected` keeps ``(I + K K^T - K R) Z'^{-1}`` as
    ``F U^T + K Z`` with one ``m x n`` block ``Z`` in ``terms``
    (``Z'^{-1}`` itself for ``R = K^T``).  Such corrected blocks keep only
    what :meth:`apply` reads: ``left``, ``N``, ``lead``, ``t`` and the ``(L,
    Z)`` pairs of ``terms``, no ``n x n`` array.  Only a dense or corrected
    inverse is applied, and every dense form handed out is a new array.
    """

    B: np.ndarray | None
    left: np.ndarray | None = None
    c_inv: np.ndarray | None = None
    t: np.ndarray | None = None
    N: np.ndarray | None = None
    lead: np.ndarray | None = None
    terms: tuple = ()

    def apply(self, X):
        """``Z'^{-1} X`` of a dense or corrected inverse: ``B X``, or ``sum L
        (Z X)`` over the ``(L, Z)`` of ``terms`` plus ``N (lead^{-1} X_1 + t
        X_2)``, ``X_1`` and ``X_2`` the rows ``left[:rank]`` and
        ``left[rank:]`` of ``X``, which for Gram and closed-form factors is
        added to the rows ``cols``; no ``n x n`` array is formed."""
        if self.B is not None:
            return self.B @ X
        rank = self.t.shape[0]
        top = self._lead_solve(X[self.left[:rank]])
        top += self.t @ X[self.left[rank:]]
        (K, Z), *rest = reversed(self.terms)
        out = K @ (Z @ X)
        for L, Y in rest:
            out += L @ (Y @ X)
        if self.N.ndim == 2:
            out += self.N @ top
        else:
            out[self.N] += top
        return out

    def _lead_solve(self, X):
        """``lead^{-1} X``."""
        return X / self.lead[:, None] if self.lead.ndim == 1 else self.lead @ X

    def right_product(self, X):
        """``X F U^T`` for an ``m x n`` block ``X`` (``X Z'^{-1}`` for a
        dense ``B``): ``[X N lead^{-1} | (X N) t]`` with its columns
        scattered to ``left``, ``X N`` a gather of columns for Gram and
        closed-form factors."""
        if self.B is not None:
            return X @ self.B
        rank = self.t.shape[0]
        XN = X @ self.N if self.N.ndim == 2 else X[:, self.N]
        out = np.empty((X.shape[0], self.left.size))
        out[:, self.left[:rank]] = XN / self.lead if self.lead.ndim == 1 else XN @ self.lead
        out[:, self.left[rank:]] = XN @ self.t
        return out

    def corrected(self, K, R, J=None, Y=None):
        """``(I - K R)(Z'^{-1} + J Y) + K K^T Z'^{-1}`` for ``K^T J = 0`` (no
        ``J Y`` by default): ``F U^T + J Y + K Z`` with ``Z = K^T Z'^{-1} - R
        F U^T - (R J) Y``, one ``m x n`` block, in which ``K^T Z'^{-1} - R F
        U^T`` is ``(K^T - R) B`` for a dense ``B`` and ``([0 | C^{-1}] - R F)
        U^T`` for the blocks.  A dense ``B`` is written over, a block of rows
        at a time; the blocks are kept as corrected blocks, with ``J Y`` and
        ``K Z`` as ``terms``."""
        Z = self.right_product(R if self.B is None else K.T - R)
        if self.B is None:  # -R F U^T + [0 | C^{-1}] U^T
            np.negative(Z, out=Z)
            Z[:, self.left[self.t.shape[0] :]] += self.c_inv
        if J is not None:
            Z -= (R @ J) @ Y
        terms = ((K, Z),) if J is None else ((J, Y), (K, Z))
        if self.B is None:
            return self._replace(c_inv=None, terms=terms)
        B = self.B
        for L, Z in terms:
            for rows in row_blocks(B.shape[0]):
                B[rows] += L[rows] @ Z
        return InverseBlocks(B)

    def dense(self):
        """``Z'^{-1}``, a new array: a copy of ``B``, or the corrected blocks
        applied to the identity."""
        if self.B is not None:
            return self.B.copy()
        return self.apply(np.eye(self.left.size))


def kernel_basis_and_inverse(factors):
    """Orthonormal kernel basis of a square matrix and, when the kernel is
    trivial, its inverse, both from its :class:`Factors`.

    The basis is a copy of the trailing ``n - rank`` columns of ``W``, an
    ``(n, n - rank)`` array in ``W``'s memory order (a view would keep all
    of ``W`` alive as long as the chain keeps the basis); for a column order
    ``w`` it is the unit vectors of ``kernel_columns``, for Gram factors
    ``w`` itself.  For a nonsingular matrix it has no columns and the
    inverse is the dense :class:`InverseBlocks` ``W diag(1/s) U^T``: only an
    SVD finds a matrix nonsingular, since the other three factorizations
    need a zero row.  For a singular matrix the inverse is ``None``.
    """
    w, rank = factors.w, factors.rank
    columns = factors.kernel_columns
    if columns is not None:
        basis = np.zeros((w.size, columns.size))
        basis[columns, np.arange(columns.size)] = 1.0
        return basis, None
    if factors.gram is not None:  # w is the kernel basis alone
        return w, None
    inverse = InverseBlocks((w / factors.lead) @ factors.left.T) if rank == w.shape[0] else None
    return w[:, rank:].copy(order="K"), inverse


def rank_update_inverse(factors, image):
    """``(inverse, bound)`` of ``Z' = Z - image @ K^T`` from the factors of
    ``Z``, with ``inverse`` an :class:`InverseBlocks`, ``None`` unless
    ``Z'`` is certified nonsingular.

    ``factors`` are the :class:`Factors` of ``Z = U [[lead, 0], [0,
    diag(tail)]] W^T``, ``K`` is its kernel basis (the trailing ``m``
    columns of ``W``) and ``image`` an ``(n, m)`` array.  Because ``K^T W =
    [0, I]``, ``T = U^T Z' W`` is block upper triangular::

        T = [[lead, -top], [0, C]],   C = diag(tail) - low,

    with ``top``/``low`` the leading ``rank`` and trailing ``m`` rows of
    ``U^T image``.  One pivoted LU of the ``m x m`` block ``C``
    (:func:`general_inverse`) gives ``C^{-1}`` and through it ``T^{-1} =
    [[lead^{-1}, t], [0, C^{-1}]]``, ``t = lead^{-1} top C^{-1}``, and
    ``Z'^{-1} = W T^{-1} U^T`` (Lamour, Maerz & Tischendorf, *DAEs: A
    Projector Based Analysis*, 2013).  ``bound = ||T||_F ||T^{-1}||_F`` is
    at least ``cond_2(Z')``, and is decided from small blocks: ``||lead||_F
    = ||M||_F``, ``||lead^{-1}||_F = ||M^+||_F`` and ``||W_1 t||_F^2``,
    which is ``||t||_F^2``, less ``||V^T t||_F^2`` for Gram factors (see
    :func:`_gram_factors`).  When it is below ``1 / (CERTIFICATE_MARGIN *
    RANK_REL_TOL)``, ``Z'``'s own SVD would also find it nonsingular at the
    cutoff, and the inverse is returned: for QR, Gram and closed-form
    factors, whose ``U^T`` gathers rows, as the blocks ``C^{-1}`` and ``t``,
    which are corrected and applied as blocks
    (:meth:`InverseBlocks.corrected`); for SVD factors as the dense ``W
    (T^{-1} U^T)``.  The bound reads only ``C^{-1}`` and ``||C^{-1}||_F``,
    and a computed inverse from a pivoted LU is as accurate as one from an
    SVD (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 14).  Otherwise, and when the LU meets an exactly zero pivot
    (``bound`` is then infinite) or gives a non-finite inverse, only the
    bound is returned, and the caller decides from ``Z'``'s own factors.
    ``||T||_F / ||C||_F`` is a lower bound on ``bound``; when it already
    fails the test, ``C`` takes no LU and that lower bound is returned, so a
    singular chain step (whose ``C`` is often near zero) declines for the
    price of ``U^T image``.
    """
    rank = factors.rank
    top, low = np.split(factors.left_t(image), [rank])
    C = np.diag(factors.tail) - low
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow declines
        c_norm_sq = (C**2).sum()
        lead_sq = (factors.lead**2).sum() if factors.gram is None else factors.gram[-1]  # ||M||^2
        norm_sq = lead_sq + (top**2).sum() + c_norm_sq
        # ||T^{-1}||_F >= ||C^{-1}||_F >= 1 / ||C||_F, so the bound is at
        # least ||T||_F / ||C||_F; when that already fails the test, skip
        # C's LU
        floor = math.sqrt(norm_sq / c_norm_sq) if c_norm_sq > 0.0 else math.inf
    if not floor * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
        return None, floor
    c_inv = general_inverse(C)
    if c_inv is None:  # an exactly zero pivot
        return None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular C declines
        t = factors.lead_solve(top) @ c_inv
        inv_norm_sq = factors.lead_inv_norm_sq + (t**2).sum() + (c_inv**2).sum()
        if factors.gram is not None:  # ||W_1 t||_F^2 = ||t||_F^2 - ||V^T t||_F^2
            inv_norm_sq -= ((factors.gram[0].T @ t) ** 2).sum()
        bound = math.sqrt(norm_sq * inv_norm_sq)
    if not bound * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
        return None, bound
    if factors.left.ndim == 1:
        cols = factors.owned_columns
        N = factors.w[:, :rank] if cols is None else cols
        lead = factors.lead if factors.lead.ndim == 1 else factors.lead_inv
        return InverseBlocks(None, factors.left, c_inv, t, N, lead), bound
    u_top, u_low = factors.left[:, :rank], factors.left[:, rank:]
    rows = np.empty_like(factors.left)  # T^{-1} U^T
    rows[:rank] = factors.lead_solve(u_top.T) + t @ u_low.T
    rows[rank:] = c_inv @ u_low.T
    return InverseBlocks(factors.w @ rows), bound


# Below this size an upper triangular inverse is one pivoted LU; above it
# the block recursion of :func:`triangular_inverse` does its work in GEMM.
# One BLAS thread, best of 7 x 20 calls on the R of a random QR, shared
# 2-vCPU host: 0.51 ms at p = 264 against 3.1 ms for one LU of the whole
# and 0.72 ms for LAPACK's triangular inverse (dtrtri); leaves of 24 to 64
# rows time alike, 96 is 40% slower.
_TRIANGULAR_LEAF = 48


def triangular_inverse(R):
    """The inverse of a square upper triangular ``R``, or ``None`` when its
    diagonal holds an exact zero.

    Splits ``R = [[A, B], [0, D]]`` in halves, so that ``R^{-1} = [[A^{-1},
    -A^{-1} B D^{-1}], [0, D^{-1}]]``, down to blocks of at most
    ``_TRIANGULAR_LEAF`` rows, which take a pivoted LU each; on a triangular
    matrix it pivots on the diagonal and is the back substitution (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 14.2: block
    methods for triangular inversion).
    """
    if not np.diagonal(R).all():
        return None
    inverse = np.zeros(R.shape)
    _fill_triangular_inverse(R, inverse)
    return inverse


def _fill_triangular_inverse(R, out):
    p = R.shape[0]
    if p <= _TRIANGULAR_LEAF:
        out[...] = np.linalg.inv(R)
        return
    h = p // 2
    a, d = out[:h, :h], out[h:, h:]
    _fill_triangular_inverse(R[:h, :h], a)
    _fill_triangular_inverse(R[h:, h:], d)
    np.matmul(-(a @ R[:h, h:]), d, out=out[:h, h:])


def general_inverse(C):
    """``C^{-1}`` from a pivoted LU, or ``None`` when the LU meets an exactly
    zero pivot."""
    try:
        return np.linalg.inv(C)
    except np.linalg.LinAlgError:
        return None


# Pade [m/m] approximants of exp for scaling and squaring, m = 3, 5, 7, 9,
# 13: the largest 1-norm theta_m at which the approximant's backward error
# is at most the unit roundoff, and the coefficients b_0..b_m of its
# numerator p(A) = sum b_i A^i (the denominator is p(-A)); Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM
# J. Matrix Anal. Appl. 26(4), 2005, tables 2.3 and 2.4
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (
        9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    ),
    (
        2.097847961257068,
        (
            17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0,
        ),
    ),
    (
        5.371920351148152,
        (
            64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
        ),
    ),
)


def _pade_parts(A, b):
    """``U`` and ``V``, the odd and even parts of the Pade numerator
    ``p(A) = V + U`` of degree ``m = len(b) - 1``, so that ``p(-A) = V - U``."""
    ident = np.eye(A.shape[0])
    A2 = A @ A
    if len(b) < 14:
        odd, even = b[3] * A2 + b[1] * ident, b[2] * A2 + b[0] * ident
        power = A2
        for i in range(4, len(b), 2):
            power = power @ A2
            odd += b[i + 1] * power
            even += b[i] * power
        return A @ odd, even
    A4 = A2 @ A2
    A6 = A4 @ A2
    odd = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
    odd += b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident
    even = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    even += b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    return A @ odd, even


def matrix_exponential(M, t=1.0):
    """Evaluate ``exp(M * t)`` by scaling and squaring with a Pade
    approximant.

    With ``A = M t``, the approximant of the lowest degree ``m`` in 3, 5, 7,
    9, 13 whose threshold ``theta_m`` bounds ``||A||_1`` gives ``exp(A)``
    to the unit roundoff in backward error; above ``theta_13``, ``A / 2^s``
    takes the degree-13 approximant, with ``s`` the fewest halvings that
    bring the norm to ``theta_13``, and the result is squared ``s`` times
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, algorithm 2.3).  A
    1 x 1 matrix takes ``exp`` directly.  ``t == 0`` returns the identity
    exactly, and a product ``M t`` that overflows gives NaN.
    """
    M = as_matrix(M, "M")
    _require_square(M, "M")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return np.eye(M.shape[0])
    A = M * t
    if A.shape[0] == 1:
        return np.exp(A)
    norm = float(np.add.reduce(np.abs(A)).max())
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan)
    squarings = 0
    for theta, b in _PADE:
        if norm <= theta:
            break
    else:  # degree 13 on A / 2^s, with ||A / 2^s||_1 <= theta_13
        squarings = math.ceil(math.log2(norm / theta))
        A = np.ldexp(A, -squarings)
    odd, even = _pade_parts(A, b)
    X = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        X = X @ X
    return X
