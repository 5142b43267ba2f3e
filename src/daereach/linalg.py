"""Dense real-matrix primitives and the package's numerical thresholds.

Rank decisions, kernel bases, chain-matrix inverses, and matrix
exponentials for the rest of the package; every inverse comes from a
chain matrix's own factors or a certified update of them, and there is no
general-purpose inverse.  All rank-like decisions go through one relative
singular-value cutoff, :data:`RANK_REL_TOL`; the package's other two
thresholds live beside it: :data:`CONSISTENCY_TOL` for the initial-star
check and :data:`FEASIBILITY_TOL` for the LPs over star predicates.  Only
the safety check takes its slack as an argument, a
:class:`TolerancePolicy`.

The matrix chain factors each chain matrix at most once, into one
:class:`Factors` format ``Z = U [[lead, 0], [0, diag(tail)]] W^T``: the
kernel basis it yields also decides the rank (an empty basis means the
matrix is nonsingular), so a chain matrix's index step and its projector
cannot disagree, and a nonsingular matrix's inverse is formed from the
same factors, ``W diag(1/s) U^T``, with no LU solve.

:func:`rank_factors` picks one of three factorizations.  A matrix of at
least ``_QR_MIN_N`` rows that has exactly-zero rows (the constraint rows
of a semi-explicit DAE) and is a scaled column selection (one nonzero per
nonzero row, no two in one column, as ``E = diag(I, 0)`` of Stokes) is
factored in closed form: its singular values are the magnitudes of its
nonzero entries, so the rank is decided with no arithmetic.  Another such
matrix takes a complete QR of its nonzero rows, accepted only when a
Frobenius-norm bound proves that the SVD would find the same rank; any
other matrix takes an SVD.

A chain matrix that differs from an already factored one by a product
through the latter's kernel basis can skip its own factorization:
:func:`rank_update_inverse` writes it in the old factors as a block upper
triangular matrix, inverts it through one LU of the small diagonal block,
and accepts it as nonsingular only when a Frobenius-norm bound on its
condition number clears the rank cutoff by :data:`CERTIFICATE_MARGIN`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

__all__ = [
    "RANK_REL_TOL",
    "CONSISTENCY_TOL",
    "FEASIBILITY_TOL",
    "CERTIFICATE_MARGIN",
    "TolerancePolicy",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "as_vector",
    "readonly",
    "numerical_rank",
    "Factors",
    "svd_factors",
    "rank_factors",
    "kernel_basis_and_inverse",
    "rank_update_inverse",
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


@dataclass(frozen=True)
class TolerancePolicy:
    """The slack of a safety check (see :func:`~daereach.safety.verify`).

    Attributes
    ----------
    feasibility_tol : float
        Allowed constraint slack in the per-step feasibility problems; it
        also sets the support screen's margin and the tolerance of the
        witness check, which must agree with it.
    """

    feasibility_tol: float = FEASIBILITY_TOL

    def __post_init__(self):
        if not 0.0 < self.feasibility_tol < 1.0:
            raise ValueError(
                "feasibility_tol must lie strictly between 0 and 1, "
                f"got {self.feasibility_tol!r}"
            )


DEFAULT_TOLERANCES = TolerancePolicy()


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


def _require_square(arr, name):
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")


def _rank(s):
    """Count of the descending singular values ``s`` above the cutoff."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def numerical_rank(Z):
    """Number of singular values above ``RANK_REL_TOL`` times the largest.

    The zero matrix has rank 0.
    """
    Z = as_matrix(Z, "Z")
    return _rank(np.linalg.svd(Z, compute_uv=False))


class Factors(NamedTuple):
    """A square matrix in the form ``Z = U [[lead, 0], [0, diag(tail)]] W^T``.

    ``U`` and ``W`` are orthogonal, ``lead`` is a nonsingular ``rank x
    rank`` block and every entry of ``tail`` lies at or below the rank
    cutoff, so the trailing ``n - rank`` columns of ``W`` are the kernel
    basis.  Three factorizations give this form:

    * :func:`svd_factors`: ``left`` is ``U``, ``lead`` the vector of the
      singular values above the cutoff (a diagonal block), ``tail`` the
      rest and ``w`` is ``W``;
    * the certified QR of :func:`rank_factors`: ``left`` is the row order
      that stands for ``U`` (``U^T x = x[left]``), ``lead`` is the lower
      triangular ``L``, ``lead_inv`` its inverse, ``tail`` is zero and
      ``w`` is ``W``;
    * the closed form of :func:`rank_factors` for a scaled column
      selection: ``left`` is the row order, ``lead`` the signed vector
      ``d`` of the nonzero entries (a diagonal block, ``Z[left[i], w[i]] =
      d[i]``), ``tail`` is zero, and ``w`` is the column order that stands
      for ``W`` (``W^T x = x[w]``), so the kernel basis is the unit vectors
      of the columns ``kernel_columns = w[rank:]``.

    ``decision`` records which of the three decided the rank and its
    margin: ``{"method": "svd", "kept": s_r / s_1, "dropped": s_{r+1} /
    s_1}`` (the smallest singular value kept and the largest dropped,
    relative to the largest; ``None`` where there is none), ``{"method":
    "diagonal", "kept": min|d| / max|d|, "dropped": 0.0}``, the same two
    ratios of the same singular values, or ``{"method": "qr", "bound":
    ||L||_F ||L^{-1}||_F}``.
    """

    left: np.ndarray
    lead: np.ndarray
    tail: np.ndarray
    w: np.ndarray
    rank: int
    decision: dict
    lead_inv: np.ndarray | None = None

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
    def lead_inv_norm_sq(self):
        """``||lead^{-1}||_F^2``."""
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
    closed form or a certified QR where one applies, else
    :func:`svd_factors`.

    When ``Z`` (``n >= _QR_MIN_N``) has ``n - p > 0`` exactly-zero rows and
    each of its ``p`` nonzero rows has one nonzero ``d_i``, no two in one
    column, ``Z`` is a scaled column selection: its singular values are
    ``|d|`` and ``n - p`` zeros, and its kernel is spanned by the unit
    vectors of the ``n - p`` columns it does not select (Golub & Van Loan,
    *Matrix Computations*, 4th ed., 2.4).  When ``min|d| > RANK_REL_TOL *
    max|d|`` that is the SVD's own rank decision, with no margin band, and
    the factors are the row order, ``d`` and the column order; otherwise
    ``Z`` takes the SVD at once, since the QR's bound below is at least
    ``max|d| / min|d|`` and cannot certify.

    Any other such ``Z`` factors its nonzero rows ``M`` as ``M^T = Q R`` (a
    complete Householder QR): ``Z = Pi [[L, 0], [0, 0]] Q^T`` with ``L =
    R^T`` and ``Pi`` the row order that puts the nonzero rows first.  The
    nonzero singular values of ``Z`` are those of ``L``, so ``||L||_F
    ||L^{-1}||_F`` bounds ``s_1 / s_p``; when that bound is below ``1 /
    (CERTIFICATE_MARGIN * RANK_REL_TOL)``, ``s_p`` clears the cutoff and the
    rest are exactly 0, so the SVD would also find rank ``p`` (Golub & Van
    Loan, *Matrix Computations*, 4th ed., 5.4: complete orthogonal
    decompositions).  A zero pivot, a bound in the margin band, a matrix
    with no zero row (or no nonzero one) and a small ``n`` take the SVD,
    which decides as always.
    """
    Z = as_matrix(Z, "Z")
    _require_square(Z, "Z")
    n = Z.shape[0]
    if n >= _QR_MIN_N:
        nonzero = Z.any(axis=1)
        p = int(np.count_nonzero(nonzero))
        if 0 < p < n:
            order = np.concatenate([np.flatnonzero(nonzero), np.flatnonzero(~nonzero)])
            rows = Z[order[:p]]
            if np.count_nonzero(rows) == p:  # one nonzero per row
                cols = (rows != 0.0).argmax(axis=1)
                selected = np.zeros(n, dtype=bool)
                selected[cols] = True
                if np.count_nonzero(selected) == p:  # a scaled column selection
                    d = rows[np.arange(p), cols]
                    low, top = np.abs(d).min(), np.abs(d).max()
                    if not low > RANK_REL_TOL * top:
                        # the QR's bound is at least top / low: it cannot certify
                        return svd_factors(Z)
                    decision = {"method": "diagonal", "kept": float(low / top), "dropped": 0.0}
                    w = np.concatenate([cols, np.flatnonzero(~selected)])
                    return Factors(order, d, np.zeros(n - p), w, p, decision)
            q, r = np.linalg.qr(rows.T, mode="complete")
            r_inv, info = scipy.linalg.lapack.dtrtri(r[:p])
            if info == 0:
                with np.errstate(over="ignore", invalid="ignore"):
                    bound = math.sqrt((r[:p] ** 2).sum() * (r_inv**2).sum())
                if bound * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
                    decision = {"method": "qr", "bound": bound}
                    return Factors(order, r[:p].T, np.zeros(n - p), q, p, decision, r_inv.T)
    return svd_factors(Z)


def kernel_basis_and_inverse(factors):
    """Orthonormal kernel basis of a square matrix and, when the kernel is
    trivial, its inverse, both from its :class:`Factors`.

    The basis is a copy of the trailing ``n - rank`` columns of ``W``, an
    ``(n, n - rank)`` array in ``W``'s memory order (a view would keep all
    of ``W`` alive as long as the chain keeps the basis); for a column
    order ``w`` it is the unit vectors of ``kernel_columns``.  For a
    nonsingular matrix it has no columns and the inverse is ``W diag(1/s)
    U^T``: only an SVD finds a matrix nonsingular, since the QR path and
    the closed form need a zero row.  For a singular matrix the inverse is
    ``None``.
    """
    w, rank = factors.w, factors.rank
    columns = factors.kernel_columns
    if columns is not None:
        basis = np.zeros((w.size, columns.size))
        basis[columns, np.arange(columns.size)] = 1.0
        return basis, None
    inverse = (w / factors.lead) @ factors.left.T if rank == w.shape[0] else None
    return w[:, rank:].copy(order="K"), inverse


def rank_update_inverse(factors, image):
    """``(inverse, bound)`` of ``Z' = Z - image @ K^T`` from the factors of
    ``Z``, with ``inverse`` ``None`` unless ``Z'`` is certified nonsingular.

    ``factors`` are the :class:`Factors` of ``Z = U [[lead, 0], [0,
    diag(tail)]] W^T``, ``K`` is its kernel basis (the trailing ``m``
    columns of ``W``) and ``image`` an ``(n, m)`` array.  Because ``K^T W =
    [0, I]``, ``T = U^T Z' W`` is block upper triangular::

        T = [[lead, -top], [0, C]],   C = diag(tail) - low,

    with ``top``/``low`` the leading ``rank`` and trailing ``m`` rows of
    ``U^T image``.  One LU of the ``m x m`` block ``C`` (LAPACK ``getrf``
    and ``getri``) gives ``C^{-1}`` and through it ``T^{-1}``, and
    ``Z'^{-1} = W T^{-1} U^T`` (Lamour, Maerz & Tischendorf, *DAEs: A
    Projector Based Analysis*, 2013); for QR factors ``U^T`` is a gather of
    rows and ``W T^{-1} U^T`` a scatter of columns, and for closed-form
    factors ``W`` is a scatter of rows too.  ``bound =
    ||T||_F ||T^{-1}||_F`` is at least ``cond_2(Z')``; when it is below ``1
    / (CERTIFICATE_MARGIN * RANK_REL_TOL)``, ``Z'``'s own SVD would also
    find it nonsingular at the cutoff, and the inverse is returned.  The
    bound reads only ``C^{-1}`` and ``||C^{-1}||_F``, and a computed
    inverse from a pivoted LU is as accurate as one from an SVD (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 14).
    Otherwise, and when the LU meets an exactly zero pivot (``bound`` is
    then infinite) or gives a non-finite inverse, only the bound is
    returned, and the caller decides from ``Z'``'s own factors.
    ``||T||_F / ||C||_F`` is a lower bound on ``bound``; when it already
    fails the test, ``C`` takes no LU and that lower bound is returned, so
    a singular chain step (whose ``C`` is often near zero) declines for
    the price of ``U^T image``.
    """
    rank = factors.rank
    top, low = np.split(factors.left_t(image), [rank])
    C = np.diag(factors.tail) - low
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow declines
        c_norm_sq = (C**2).sum()
        norm_sq = (factors.lead**2).sum() + (top**2).sum() + c_norm_sq
        # ||T^{-1}||_F >= ||C^{-1}||_F >= 1 / ||C||_F, so the bound is at
        # least ||T||_F / ||C||_F; when that already fails the test, skip
        # C's LU
        floor = math.sqrt(norm_sq / c_norm_sq) if c_norm_sq > 0.0 else math.inf
    if not floor * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
        return None, floor
    lu, piv, info = scipy.linalg.lapack.dgetrf(C)
    if info > 0:  # an exactly zero pivot
        return None, math.inf
    c_inv, _ = scipy.linalg.lapack.dgetri(lu, piv, overwrite_lu=True)
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular C declines
        corner = factors.lead_solve(top) @ c_inv  # the upper right block of T^{-1}
        inv_norm_sq = factors.lead_inv_norm_sq + (corner**2).sum() + (c_inv**2).sum()
        bound = math.sqrt(norm_sq * inv_norm_sq)
    if not bound * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0:
        return None, bound
    if factors.w.ndim == 1:  # T^{-1}, its rows scattered to w, its columns to left
        t_inv = np.zeros((factors.w.size,) * 2)
        t_inv[:rank, :rank] = factors.lead_solve(np.eye(rank))
        t_inv[:rank, rank:] = corner
        t_inv[rank:, rank:] = c_inv
        inverse = np.empty_like(t_inv)
        inverse[np.ix_(factors.w, factors.left)] = t_inv
        return inverse, bound
    if factors.left.ndim == 1:  # W T^{-1}, its columns scattered to the row order
        w_top, w_low = factors.w[:, :rank], factors.w[:, rank:]
        inverse = np.empty_like(factors.w)
        inverse[:, factors.left[:rank]] = w_top @ factors.lead_inv
        inverse[:, factors.left[rank:]] = w_top @ corner + w_low @ c_inv
        return inverse, bound
    u_top, u_low = factors.left[:, :rank], factors.left[:, rank:]
    rows = np.empty_like(factors.left)  # T^{-1} U^T
    rows[:rank] = factors.lead_solve(u_top.T) + corner @ u_low.T
    rows[rank:] = c_inv @ u_low.T
    return factors.w @ rows, bound


def matrix_exponential(M, t=1.0):
    """Evaluate ``exp(M * t)`` by scaling-and-squaring with Pade approximation.

    ``t == 0`` returns the identity exactly.
    """
    M = as_matrix(M, "M")
    _require_square(M, "M")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return np.eye(M.shape[0])
    return scipy.linalg.expm(M * t)

