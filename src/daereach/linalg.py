"""Dense real-matrix primitives with an explicit tolerance policy.

Rank decisions, kernel bases, inverses, and matrix exponentials for the
rest of the package.  All rank-like decisions go through one relative
singular-value cutoff.  The matrix chain takes at most one SVD per chain
matrix: the kernel basis it yields also decides the rank (an empty basis
means the matrix is nonsingular), so a chain matrix's index step and its
projector cannot disagree, and a nonsingular matrix's inverse is formed
from the same factors, ``W diag(1/s) U^T``, with no LU solve.

A chain matrix that differs from an already factored one by a product
through the latter's kernel basis can skip its own SVD:
:func:`rank_update_inverse` writes it in the old factors as a block upper
triangular matrix, inverts it through one SVD of the small diagonal block,
and accepts it as nonsingular only when a Frobenius-norm bound on its
condition number clears the rank cutoff by :data:`CERTIFICATE_MARGIN`.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularMatrixError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "as_vector",
    "readonly",
    "numerical_rank",
    "svd_factors",
    "kernel_basis_and_inverse",
    "rank_update_inverse",
    "orthogonal_null_projector",
    "matrix_exponential",
    "solve_inverse",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds shared across the pipeline.

    Attributes
    ----------
    rank_rel_tol : float
        Relative singular-value cutoff for rank decisions.
    feasibility_tol : float
        Allowed constraint slack in linear feasibility problems.
    consistency_tol : float
        Allowed max-norm residual when checking that an initial star
        lies in the consistent space.
    """

    rank_rel_tol: float = 1e-9
    feasibility_tol: float = 1e-9
    consistency_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_tol", "feasibility_tol", "consistency_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{name} must lie strictly between 0 and 1, got {value!r}"
                )


DEFAULT_TOLERANCES = TolerancePolicy()

# factor by which a certified condition bound must clear the rank cutoff
# 1 / rank_rel_tol; it covers the rounding between the factored form and
# the SVD the certificate stands in for
CERTIFICATE_MARGIN = 2.0


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


def _rank(s, tol):
    """Count of the descending singular values ``s`` above the cutoff."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def numerical_rank(Z, tol=DEFAULT_TOLERANCES):
    """Number of singular values above ``rank_rel_tol`` times the largest.

    The zero matrix has rank 0.
    """
    Z = as_matrix(Z, "Z")
    return _rank(np.linalg.svd(Z, compute_uv=False), tol)


def svd_factors(Z, tol=DEFAULT_TOLERANCES):
    """``(u, s, wt, rank)``: the SVD ``Z = u diag(s) wt`` of a square matrix
    and its numerical rank."""
    Z = as_matrix(Z, "Z")
    _require_square(Z, "Z")
    u, s, wt = np.linalg.svd(Z)
    return u, s, wt, _rank(s, tol)


def kernel_basis_and_inverse(factors):
    """Orthonormal kernel basis of a square matrix and, when the kernel is
    trivial, its inverse, both from its :func:`svd_factors`.

    The basis is the columns of ``W = wt^T`` whose singular values lie at
    or below the rank cutoff, an ``(n, n - rank)`` array; for a nonsingular
    matrix it has no columns and the inverse is ``W diag(1/s) U^T``.  For a
    singular matrix the inverse is ``None``.
    """
    u, s, wt, rank = factors
    inverse = (wt.T / s) @ u.T if rank == s.size else None
    return wt[rank:, :].T, inverse


def rank_update_inverse(factors, image, tol=DEFAULT_TOLERANCES):
    """``(inverse, bound)`` of ``Z' = Z - image @ K^T`` from the factors of
    ``Z``, with ``inverse`` ``None`` unless ``Z'`` is certified nonsingular.

    ``factors`` are :func:`svd_factors` of ``Z = U diag(s) W^T``, ``K`` is
    its kernel basis (the trailing ``m`` columns of ``W``) and ``image`` an
    ``(n, m)`` array.  Because ``K^T W = [0, I]``, ``T = U^T Z' W`` is block
    upper triangular::

        T = [[S_1, -U_1^T image], [0, C]],   C = S_2 - U_2^T image,

    with ``S_1``/``S_2`` the singular values above/at or below the cutoff.
    One SVD of the ``m x m`` block ``C`` gives ``T^{-1}``, and ``Z'^{-1} =
    W T^{-1} U^T`` (Lamour, Maerz & Tischendorf, *DAEs: A Projector Based
    Analysis*, 2013).  ``bound = ||T||_F ||T^{-1}||_F`` is at least
    ``cond_2(Z')``; when it is below ``1 / (CERTIFICATE_MARGIN *
    rank_rel_tol)``, ``Z'``'s own SVD would also find it nonsingular at the
    cutoff, and the inverse is returned.  Otherwise, and when ``C`` has a
    zero singular value (``bound`` is then infinite), only the bound is,
    and the caller decides from ``Z'``'s own SVD.  ``||T||_F / ||C||_F`` is a
    lower bound on ``bound``; when it already fails the test, ``C`` takes no
    SVD and that lower bound is returned, so a singular chain step (whose
    ``C`` is often near zero) declines for the price of ``U^T image``.
    """
    u, s, wt, rank = factors
    s_top = s[:rank]
    top, low = np.split(u.T @ image, [rank])
    C = np.diag(s[rank:]) - low
    c_norm_sq = (C**2).sum()
    norm_sq = (s_top**2).sum() + (top**2).sum() + c_norm_sq
    # ||T^{-1}||_F >= ||C^{-1}||_F >= 1 / ||C||_F, so the bound is at least
    # ||T||_F / ||C||_F; when that already fails the test, skip C's SVD
    floor = math.sqrt(norm_sq / c_norm_sq) if c_norm_sq > 0.0 else math.inf
    if not floor * CERTIFICATE_MARGIN * tol.rank_rel_tol < 1.0:
        return None, floor
    uc, c, vct = np.linalg.svd(C)
    if not c[-1] > 0.0:
        return None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular C declines
        c_inv = (vct.T / c) @ uc.T
        corner = (top / s_top[:, None]) @ c_inv  # the upper right block of T^{-1}
        inv_norm_sq = (s_top**-2.0).sum() + (corner**2).sum() + (c**-2.0).sum()
        bound = math.sqrt(norm_sq * inv_norm_sq)
    if not bound * CERTIFICATE_MARGIN * tol.rank_rel_tol < 1.0:
        return None, bound
    u_top, u_low = u[:, :rank], u[:, rank:]
    rows = np.empty_like(u)  # T^{-1} U^T
    rows[:rank] = u_top.T / s_top[:, None] + corner @ u_low.T
    rows[rank:] = c_inv @ u_low.T
    return wt.T @ rows, bound


def orthogonal_null_projector(Z, tol=DEFAULT_TOLERANCES):
    """Orthogonal projector onto the kernel of a square matrix.

    With ``K`` the kernel basis of :func:`kernel_basis_and_inverse`, the
    returned ``Q = K K^T`` satisfies ``Z @ Q == 0``, ``Q == Q.T`` and
    ``Q @ Q == Q`` up to rounding.  For a nonsingular ``Z`` this is the
    zero matrix (exactly: the kernel basis has no columns); for the zero
    matrix it is the identity.
    """
    kernel_basis, _ = kernel_basis_and_inverse(svd_factors(Z, tol))
    return kernel_basis @ kernel_basis.T


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


def solve_inverse(M, tol=DEFAULT_TOLERANCES):
    """Inverse of ``M`` from its SVD, or :class:`SingularMatrixError` at the
    rank tolerance."""
    kernel_basis, inverse = kernel_basis_and_inverse(svd_factors(M, tol))
    if inverse is None:
        raise SingularMatrixError(
            f"matrix of size {kernel_basis.shape[0]} is singular at relative tolerance "
            f"{tol.rank_rel_tol:g}"
        )
    return inverse
