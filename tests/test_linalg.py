import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from daereach import DEFAULT_TOLERANCES
from daereach.linalg import (
    CERTIFICATE_MARGIN,
    CONSISTENCY_TOL,
    FEASIBILITY_TOL,
    RANK_REL_TOL,
    as_matrix,
    kernel_basis_and_inverse,
    matrix_exponential,
    rank_factors,
    rank_update_inverse,
    svd_factors,
    triangular_inverse,
)

from oracles import expm_taylor, numerical_rank, svd_certificate


class TestTolerances:
    def test_defaults(self):
        assert (RANK_REL_TOL, CONSISTENCY_TOL, FEASIBILITY_TOL) == (1e-9, 1e-8, 1e-9)
        assert DEFAULT_TOLERANCES == FEASIBILITY_TOL


class TestMatrixValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])


class TestNumericalRank:
    """The rank cutoff of :func:`svd_factors`, and of the reference rank
    the other rank tests compare against."""

    def test_identity(self):
        assert svd_factors(np.eye(3)).rank == numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert svd_factors(np.zeros((3, 3))).rank == numerical_rank(np.zeros((3, 3))) == 0

    def test_cutoff_forced_by_tolerance(self):
        Z = np.diag([1.0, 1e-15])
        assert svd_factors(Z).rank == numerical_rank(Z) == 1

    def test_rectangular(self):
        assert numerical_rank(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])) == 1


def orthogonal_null_projector(Z):
    """``K K^T`` for the kernel basis ``K`` of ``Z``'s SVD factors."""
    kernel_basis, _ = kernel_basis_and_inverse(svd_factors(Z))
    return kernel_basis @ kernel_basis.T


class TestNullProjector:
    def test_zero_matrix_kernel_is_everything(self):
        assert np.array_equal(orthogonal_null_projector(np.zeros((2, 2))), np.eye(2))

    def test_identity_kernel_is_trivial(self):
        assert np.array_equal(orthogonal_null_projector(np.eye(2)), np.zeros((2, 2)))

    def test_axis_kernel(self):
        Q = orthogonal_null_projector(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(Q, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_conditions(self, seed):
        # Z Q = 0, Q = Q^T, Q^2 = Q on random rank-deficient matrices
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        r = rng.integers(0, n)
        left = rng.normal(size=(n, r))
        right = rng.normal(size=(r, n))
        Z = left @ right
        Q = orthogonal_null_projector(Z)
        tol = 1e-8
        scale = max(1.0, np.linalg.norm(Z))
        assert np.linalg.norm(Z @ Q) <= tol * scale
        assert np.linalg.norm(Q - Q.T) <= tol
        assert np.linalg.norm(Q @ Q - Q) <= tol

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_nullity(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(2, 9)
        r = rng.integers(0, n)
        Z = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
        Q = orthogonal_null_projector(Z)
        assert numerical_rank(Z) + numerical_rank(Q) == n


class TestMatrixExponential:
    def test_zero_time_is_identity_exactly(self):
        M = np.array([[3.0, -1.0], [2.0, 0.5]])
        assert np.array_equal(matrix_exponential(M, 0.0), np.eye(2))

    def test_diagonal(self):
        M = np.diag([1.0, -2.0])
        assert np.allclose(matrix_exponential(M, 1.0), np.diag(np.exp([1.0, -2.0])), rtol=1e-14)

    def test_rotation_against_series_oracle(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = np.pi / 2
        expected = expm_taylor(M, t)
        result = matrix_exponential(M, t)
        assert np.allclose(result, expected, atol=1e-13)
        assert np.allclose(result, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_semigroup_property(self, seed):
        rng = np.random.default_rng(seed)
        M = 0.5 * rng.normal(size=(4, 4))
        s, t = rng.uniform(0.1, 1.0, size=2)
        lhs = matrix_exponential(M, s + t)
        rhs = matrix_exponential(M, s) @ matrix_exponential(M, t)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_overflowing_product_gives_nan(self):
        # M t overflows: the result is NaN, which compute_reach reports as a
        # non-finite step, and not an exception from the scaling exponent
        with np.errstate(over="ignore"):
            result = matrix_exponential(np.array([[1e300, 1.0], [0.0, 1.0]]), 1e10)
        assert np.isnan(result).all()


# the largest 1-norm of M t that the degree-13 Pade approximant takes with
# no squaring (Higham 2005)
_THETA_13 = 5.371920351148152


def _assert_close_to_scipy(M, t, norm):
    """``matrix_exponential(M, t)`` against ``scipy.linalg.expm(M t)``, to
    1e-12 relative where no squaring happens and 1e-9 above."""
    ours, reference = matrix_exponential(M, t), scipy.linalg.expm(M * t)
    tol = 1e-12 if norm <= _THETA_13 else 1e-9
    assert np.abs(ours - reference).max() <= tol * np.abs(reference).max()


class TestMatrixExponentialAgainstScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40])
    @pytest.mark.parametrize("norm", [1e-6, 1e-2, 0.2, 0.9, 2.0, 5.0, 30.0, 1e3])
    def test_random_matrices(self, n, norm):
        # a random matrix shifted to spectral abscissa -1, then scaled to
        # the 1-norm: its exponential neither overflows nor vanishes early
        rng = np.random.default_rng(int(1000 * n + np.log10(norm) * 10))
        R = rng.normal(size=(n, n))
        R -= (np.linalg.eigvals(R).real.max() + 1.0) * np.eye(n)
        t = float(rng.choice([-1.0, 1.0])) if norm < 1.0 else 1.0
        M = R * (norm / np.abs(R).sum(axis=0).max()) * t
        _assert_close_to_scipy(M, t, norm)

    @pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
    def test_nilpotent(self, t):
        N = np.triu(np.random.default_rng(5).normal(size=(6, 6)), 1)
        _assert_close_to_scipy(N, t, t * np.abs(N).sum(axis=0).max())
        series = sum(np.linalg.matrix_power(N * t, j) / math.factorial(j) for j in range(6))
        assert np.abs(matrix_exponential(N, t) - series).max() <= 1e-12 * np.abs(series).max()

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
    def test_stiff_diagonal_plus_upper_triangle(self, t):
        rng = np.random.default_rng(8)
        M = np.diag([-1e3, -40.0, -1.0, 0.0, 0.5]) + np.triu(rng.normal(size=(5, 5)), 1)
        _assert_close_to_scipy(M, t, t * np.abs(M).sum(axis=0).max())

    def test_zero_matrix_is_the_identity_exactly(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4)), 2.5), np.eye(4))

    @pytest.mark.parametrize("t", [-1e-4, -0.3, -7.0])
    def test_negative_time(self, t):
        M = np.random.default_rng(9).normal(size=(5, 5))
        _assert_close_to_scipy(M, t, abs(t) * np.abs(M).sum(axis=0).max())
        backward, forward = matrix_exponential(M, t), matrix_exponential(M, -t)
        scale = 5 * np.abs(backward).max() * np.abs(forward).max()
        assert np.abs(backward @ forward - np.eye(5)).max() <= 1e-12 * scale


class TestTriangularInverse:
    @pytest.mark.parametrize("p", [1, 47, 48, 49, 264, 400])
    def test_matches_lapack(self, p):
        # the R of a tall random matrix's QR, as the certified QR path forms it
        R = np.linalg.qr(np.random.default_rng(p).normal(size=(p + 8, p)), mode="r")
        ours = triangular_inverse(R)
        reference, info = scipy.linalg.lapack.dtrtri(R)
        assert info == 0
        assert not np.tril(ours, -1).any()
        assert np.abs(ours - reference).max() <= 1e-12 * np.abs(reference).max()
        residual = np.abs(ours @ R - np.eye(p)).max()
        assert residual <= max(4.0 * np.abs(reference @ R - np.eye(p)).max(), 1e-14)

    @pytest.mark.parametrize("p, zero", [(1, 0), (5, 2), (100, 0), (100, 99)])
    def test_declines_a_zero_on_the_diagonal(self, p, zero):
        R = np.triu(np.random.default_rng(p).normal(size=(p, p))) + 3.0 * np.eye(p)
        R[zero, zero] = 0.0
        assert scipy.linalg.lapack.dtrtri(R)[1] > 0
        assert triangular_inverse(R) is None


def _dense_inverse(inverse, factors):
    """The dense ``Z'^{-1}`` of a certified ``inverse``, applied to the
    identity after :meth:`InverseBlocks.corrected` with the kernel basis of
    ``factors`` and ``R = K^T``, as :func:`oracles.dense_inverse` reads a
    chain's: the blocks keep no ``K``, and a dense inverse is kept as it is."""
    K = kernel_basis_and_inverse(factors)[0]
    return inverse.corrected(K).apply(np.eye(K.shape[0]))


def _updated(Z, image):
    """``Z - image @ K^T`` with ``K`` the kernel basis of ``Z``."""
    kernel_basis, _ = kernel_basis_and_inverse(svd_factors(Z))
    return Z - image @ kernel_basis.T


class TestRankUpdateInverse:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_updated_matrix_inverse(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, int(rng.integers(1, 4))
        Z = rng.normal(size=(n, n - m)) @ rng.normal(size=(n - m, n))
        image = rng.normal(size=(n, m))
        inverse, bound = rank_update_inverse(svd_factors(Z), image)
        updated = _updated(Z, image)
        assert inverse is not None
        inverse = inverse.apply(np.eye(n))
        assert np.abs(inverse - np.linalg.inv(updated)).max() <= 1e-10 * np.abs(inverse).max()
        assert np.linalg.cond(updated) <= bound

    def test_declines_an_exactly_singular_block(self):
        Z = np.diag([2.0, 1.0, 0.0])
        inverse, bound = rank_update_inverse(svd_factors(Z), np.zeros((3, 1)))
        assert inverse is None and bound == np.inf

    def test_declines_an_exact_zero_pivot_without_a_warning(self):
        # closed-form factors gather rows exactly, so C = 0 - low is this
        # block to the bit; its second row is twice its first, and partial
        # pivoting meets an exact zero pivot in the third column
        rng = np.random.default_rng(3)
        block = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        Z = _scaled_selection(rng, 24, 3)
        factors = rank_factors(Z)
        image = np.zeros((24, 3))
        image[factors.left[factors.rank :]] = -block
        assert np.linalg.matrix_rank(block) == 2
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            inverse, bound = rank_update_inverse(factors, image)
        assert inverse is None and bound == np.inf

    @pytest.mark.parametrize("kind", ["svd", "qr", "diagonal", "gram"])
    @pytest.mark.parametrize("seed", range(3))
    def test_lu_matches_the_svd_of_the_block(self, kind, seed):
        rng = np.random.default_rng(60 + seed)
        n, m = int(rng.integers(25, 41)), int(rng.integers(1, 9))
        if kind == "svd":
            Z = rng.normal(size=(n, n - m)) @ rng.normal(size=(n - m, n))
        elif kind == "qr":
            Z = _with_zero_rows(rng, n, m)
        elif kind == "gram":
            Z = _owned_columns(rng, n, m)
        else:
            Z = _scaled_selection(rng, n, m)
        factors = rank_factors(Z)
        assert factors.decision["method"] == kind and factors.rank == n - m
        image = rng.normal(size=(n, m))
        inverse, bound = rank_update_inverse(factors, image)
        reference, reference_bound = svd_certificate(Z, factors, image, CERTIFICATE_MARGIN)
        assert inverse is not None and reference is not None
        assert abs(bound - reference_bound) <= 1e-12 * reference_bound
        X = _dense_inverse(inverse, factors)
        assert np.abs(X - reference).max() <= 1e-10 * np.abs(reference).max()

    def test_qr_blocks_hold_no_view_of_the_factors(self):
        # W_1 is copied out of the QR's n x n W, which the chain then drops
        rng = np.random.default_rng(61)
        n, m = 30, 4
        factors = rank_factors(_with_zero_rows(rng, n, m))
        assert factors.decision["method"] == "qr" and factors.w.shape == (n, n)
        inverse, _ = rank_update_inverse(factors, rng.normal(size=(n, m)))
        assert inverse.N.shape == (n, n - m)
        assert inverse.N.base is None or inverse.N.base.shape != (n, n)
        assert not np.shares_memory(inverse.N, factors.w)

    def test_correcting_a_dense_inverse_with_its_own_kernel_keeps_it(self):
        # R = K^T leaves Z'^{-1} itself: the same dense inverse, unwritten
        rng = np.random.default_rng(62)
        Z = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 6))
        factors = svd_factors(Z)
        inverse, _ = rank_update_inverse(factors, rng.normal(size=(6, 2)))
        kept = inverse.B.copy()
        assert inverse.corrected(kernel_basis_and_inverse(factors)[0]) is inverse
        assert np.array_equal(inverse.B, kept)

    @pytest.mark.parametrize(
        "eps, certified, nonsingular",
        [(1e-3, True, True), (1.5e-9, False, True), (5e-10, False, False)],
        ids=["well-conditioned", "inside-margin", "below-cutoff"],
    )
    def test_certifies_only_outside_the_margin(self, eps, certified, nonsingular):
        # Z' = diag(1, -eps) has cond 1/eps; the cutoff is at 1e9 and the
        # certificate needs 1e9 / CERTIFICATE_MARGIN
        Z = np.diag([1.0, 0.0])
        image = np.array([[0.0], [eps]])
        inverse, bound = rank_update_inverse(svd_factors(Z), image)
        assert (inverse is not None) == certified
        assert bound >= 1.0 / eps
        assert (svd_factors(_updated(Z, image)).rank == 2) == nonsingular
        if certified:
            assert bound * CERTIFICATE_MARGIN * 1e-9 < 1.0
            assert np.allclose(inverse.apply(np.eye(2)), np.diag([1.0, -1.0 / eps]), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_never_certifies_a_singular_update(self, seed):
        # the trailing block C = S_2 - U_2^T image is made rank deficient
        rng = np.random.default_rng(50 + seed)
        n, m = 5, int(rng.integers(1, 4))
        Z = rng.normal(size=(n, n - m)) @ rng.normal(size=(n - m, n))
        factors = svd_factors(Z)
        u, s, rank = factors.left, np.concatenate([factors.lead, factors.tail]), factors.rank
        block = rng.normal(size=(m, m))
        block[:, 0] = block[:, 1:].sum(axis=1) if m > 1 else 0.0
        image = u[:, rank:] @ (np.diag(s[rank:]) - block) + u[:, :rank] @ rng.normal(size=(rank, m))
        inverse, _ = rank_update_inverse(factors, image)
        assert svd_factors(_updated(Z, image)).rank < n
        assert inverse is None


def _with_zero_rows(rng, n, zero_rows):
    Z = rng.normal(size=(n, n))
    Z[rng.permutation(n)[:zero_rows]] = 0.0
    return Z


def _scaled_selection(rng, n, zero_rows):
    """A row- and column-permuted ``diag(d, 0)`` with signed ``d`` whose
    magnitudes spread over six orders."""
    p = n - zero_rows
    d = rng.choice([-1.0, 1.0], size=p) * 10.0 ** rng.uniform(-3, 3, size=p)
    Z = np.zeros((n, n))
    Z[rng.permutation(n)[:p], rng.permutation(n)[:p]] = d
    return Z


def _owned_columns(rng, n, zero_rows, coupling=1.0, scaled=True):
    """A row- and column-permuted ``[D | X]`` above ``zero_rows`` zero
    rows: signed ``d`` whose magnitudes spread over six orders, each
    nonzero row the only nonzero of its ``D`` column, and ``X`` Gaussian
    times ``coupling`` (``0`` gives a scaled column selection), its rows
    also scaled by ``d`` when ``scaled``."""
    p = n - zero_rows
    d = rng.choice([-1.0, 1.0], size=p) * 10.0 ** rng.uniform(-3, 3, size=p)
    X = coupling * rng.normal(size=(p, zero_rows))
    Z = np.zeros((n, n))
    Z[:p, :p] = np.diag(d)
    Z[:p, p:] = d[:, None] * X if scaled else X
    return Z[rng.permutation(n)][:, rng.permutation(n)]


class TestRankFactors:
    @pytest.mark.parametrize("seed", range(4))
    def test_scaled_selection_factors_in_closed_form(self, seed):
        rng = np.random.default_rng(40 + seed)
        n, zero_rows = 30, int(rng.integers(1, 13))
        Z = _scaled_selection(rng, n, zero_rows)
        factors = rank_factors(Z)
        p = n - zero_rows
        assert factors.decision["method"] == "diagonal" and factors.decision["dropped"] == 0.0
        assert factors.rank == p == numerical_rank(Z)
        s = np.linalg.svd(Z, compute_uv=False)
        assert factors.decision["kept"] == pytest.approx(s[p - 1] / s[0], rel=1e-15, abs=0.0)
        # Z = U [[diag(lead), 0], [0, 0]] W^T with U^T and W^T gathers
        middle = np.zeros((n, n))
        middle[:p, :p] = np.diag(factors.lead)
        assert not factors.tail.any()
        assert np.array_equal(Z[np.ix_(factors.left, factors.w)], middle)
        kernel, inverse = kernel_basis_and_inverse(factors)
        assert inverse is None
        assert np.array_equal(kernel, np.eye(n)[:, factors.kernel_columns])
        assert not (Z @ kernel).any()

    @pytest.mark.parametrize(
        "case", ["two-in-a-row", "two-in-a-column", "d-at-the-cutoff", "below-crossover"]
    )
    def test_other_matrices_take_the_qr_or_the_svd(self, monkeypatch, case):
        rng = np.random.default_rng(11)
        Z = _scaled_selection(rng, 6 if case == "below-crossover" else 30, 5)
        rows, cols = np.nonzero(Z)
        if case == "two-in-a-row":
            Z[rows[0], np.flatnonzero(~Z.any(axis=0))[0]] = 2.0
        elif case == "two-in-a-column":
            Z[np.flatnonzero(~Z.any(axis=1))[0], cols[0]] = 2.0
        elif case == "d-at-the-cutoff":  # the smallest |d| lands exactly on the cutoff
            k = np.abs(Z[rows, cols]).argmin()
            Z[rows[k], cols[k]] = 1e-9 * np.abs(Z).max()

            def refuse(*args, **kwargs):  # its bound is at least 1e9: it cannot certify
                raise AssertionError("a scaled column selection took the QR")

            monkeypatch.setattr(np.linalg, "qr", refuse)
        factors = rank_factors(Z)
        assert factors.decision["method"] != "diagonal"
        if case == "d-at-the-cutoff":
            assert factors.decision["method"] == "svd"
        assert factors.rank == numerical_rank(Z)

    @pytest.mark.parametrize("seed", range(4))
    def test_qr_factors_reconstruct_the_matrix(self, seed):
        rng = np.random.default_rng(seed)
        n, zero_rows = 30, int(rng.integers(1, 12))
        Z = _with_zero_rows(rng, n, zero_rows)
        factors = rank_factors(Z)
        p = n - zero_rows
        assert factors.decision["method"] == "qr" and factors.rank == p
        assert factors.decision["bound"] * CERTIFICATE_MARGIN * 1e-9 < 1.0
        assert not Z[factors.left[p:]].any()
        assert np.allclose(Z[factors.left[:p]], factors.lead @ factors.w[:, :p].T, atol=1e-12)
        assert np.allclose(factors.lead_inv @ factors.lead, np.eye(p), atol=1e-12)
        kernel, inverse = kernel_basis_and_inverse(factors)
        assert inverse is None and kernel.shape == (n, zero_rows)
        assert np.abs(Z @ kernel).max() <= 1e-12 * np.abs(Z).max()
        assert svd_factors(Z).rank == p

    @pytest.mark.parametrize("seed", range(4))
    def test_update_inverse_from_qr_factors(self, seed):
        rng = np.random.default_rng(20 + seed)
        n, zero_rows = 25, int(rng.integers(1, 8))
        Z = _with_zero_rows(rng, n, zero_rows)
        factors = rank_factors(Z)
        image = rng.normal(size=(n, zero_rows))
        inverse, bound = rank_update_inverse(factors, image)
        kernel, _ = kernel_basis_and_inverse(factors)
        updated = Z - image @ kernel.T
        assert inverse is not None
        inverse = _dense_inverse(inverse, factors)
        assert np.abs(inverse - np.linalg.inv(updated)).max() <= 1e-10 * np.abs(inverse).max()
        assert np.linalg.cond(updated) <= bound

    @pytest.mark.parametrize(
        "n, zero_rows, dependent",
        [(6, 2, False), (30, 0, False), (30, 30, False), (30, 5, True)],
        ids=["below-crossover", "no-zero-row", "zero-matrix", "dependent-rows"],
    )
    def test_takes_the_svd(self, n, zero_rows, dependent):
        rng = np.random.default_rng(9)
        Z = _with_zero_rows(rng, n, zero_rows)
        if dependent:  # one nonzero row is a combination of two others
            rows = np.flatnonzero(Z.any(axis=1))
            Z[rows[0]] = Z[rows[1]] - 2.0 * Z[rows[2]]
        factors = rank_factors(Z)
        assert factors.decision["method"] == "svd"
        assert factors.rank == numerical_rank(Z)


class TestGramFactors:
    """:func:`rank_factors` on ``[D | -X]``: Gram factors in the QR format,
    checked against the SVD, and the paths it leaves to the others."""

    @pytest.mark.parametrize("seed", range(8))
    def test_against_the_svd(self, seed):
        rng = np.random.default_rng(70 + seed)
        n = int(rng.integers(20, 201))
        zero_rows = int(rng.integers(1, n // 2 + 1))
        Z = _owned_columns(rng, n, zero_rows)
        factors = rank_factors(Z)
        p = n - zero_rows
        assert factors.decision["method"] == "gram"
        assert factors.rank == p == numerical_rank(Z)
        s = np.linalg.svd(Z, compute_uv=False)
        assert factors.decision["bound"] >= s[0] / s[p - 1]
        assert factors.decision["bound"] * CERTIFICATE_MARGIN * RANK_REL_TOL < 1.0
        # U^T is a gather of rows: the nonzero rows M first, then zero rows
        assert not factors.tail.any() and not Z[factors.left[p:]].any()
        kernel, inverse = kernel_basis_and_inverse(factors)
        assert inverse is None and kernel.shape == (n, zero_rows)
        assert np.abs(kernel.T @ kernel - np.eye(zero_rows)).max() <= 1e-13
        assert np.linalg.norm(Z @ kernel, 2) <= 1e-15 * s[0]
        # the nonzero rows M own the columns cols, M[:, cols] = D, so the
        # right inverse M^+ = (I - K K^T)[:, cols] D^{-1}: M M^+ = I with the
        # rows of M and the columns of M^+ scaled by 1 / d and d (entry (i, j)
        # of M M^+ - I is d_i / d_j times the rounding of [I | Y] M^+ D), and
        # M^+ M + K K^T = I: M^+ M projects onto the row space, orthogonally
        # to the kernel
        M, d, cols = Z[factors.left[:p]], factors.lead, factors.owned_columns
        assert np.array_equal(M[:, cols], np.diag(d))
        right = (np.eye(n) - kernel @ kernel.T)[:, cols] / d
        assert np.abs((M / d[:, None]) @ (right * d) - np.eye(p)).max() <= 1e-13
        assert np.abs(right @ M + kernel @ kernel.T - np.eye(n)).max() <= 1e-13
        # the norms the certificate reads in place of M^+: ||M^+||_F^2 and
        # ||M^+ D x||^2 = ||x||^2 - ||V^T x||^2
        assert factors.lead_inv_norm_sq == pytest.approx((right**2).sum(), rel=1e-13)
        x = rng.normal(size=(p, 3))
        V = factors.gram[0]
        expected = ((right @ (d[:, None] * x)) ** 2).sum()
        assert (x**2).sum() - ((V.T @ x) ** 2).sum() == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("case", ["x-zero", "row-without-an-own-column"])
    def test_other_structures_keep_their_paths(self, case):
        # x-zero: X = 0 is a scaled column selection; row-without-an-own-
        # column: row i's D column gets a second nonzero from row j, and its
        # X columns are shared by every row, so row i owns no column
        rng = np.random.default_rng(82)
        Z = _owned_columns(rng, 40, 7, coupling=0.0 if case == "x-zero" else 1.0)
        if case != "x-zero":
            rows, cols = np.nonzero(Z * (np.count_nonzero(Z, axis=0) == 1))
            Z[rows[1], cols[0]] = 1.0
        factors = rank_factors(Z)
        assert factors.decision["method"] == ("diagonal" if case == "x-zero" else "qr")
        assert factors.rank == 33 == numerical_rank(Z)

    @pytest.mark.parametrize("side", [0.99, 1.01], ids=["inside", "outside"])
    def test_guard_on_the_gram_condition(self, side):
        # [I | t Y] with u (1 + t^2 ||Y||_F^2) just inside or outside
        # RANK_REL_TOL: its bound sqrt(p + t^2 ||Y||_F^2) certifies either way
        rng = np.random.default_rng(83)
        n, p = 60, 45
        Y = rng.normal(size=(p, n - p))
        t = math.sqrt((side * RANK_REL_TOL / 2.0**-53 - 1.0) / (Y**2).sum())
        Z = np.zeros((n, n))
        Z[:p] = np.hstack([np.eye(p), t * Y])
        factors = rank_factors(Z)
        assert factors.decision["method"] == ("gram" if side < 1.0 else "qr")
        assert factors.rank == p == numerical_rank(Z)

    @pytest.mark.parametrize("side", [0.01, 0.3, 0.9, 0.99])
    def test_certified_inverse_near_the_guard(self, side):
        # [I | t Y], permuted, with u (1 + t^2 ||Y||_F^2) at this share of
        # RANK_REL_TOL: the certified inverse of Z' = Z - image K^T is that
        # of an LU of Z' to 1e-12 and leaves a residual below 1e-12, though
        # a CholeskyQR basis of the row space would lose orthogonality here
        # up to about RANK_REL_TOL
        rng = np.random.default_rng(84)
        n, p = 60, 45
        Y = rng.normal(size=(p, n - p))
        t = math.sqrt((side * RANK_REL_TOL / 2.0**-53 - 1.0) / (Y**2).sum())
        Z = np.zeros((n, n))
        Z[:p] = np.hstack([np.eye(p), t * Y])
        Z = Z[rng.permutation(n)][:, rng.permutation(n)]
        factors = rank_factors(Z)
        assert factors.decision["method"] == "gram"
        kernel, _ = kernel_basis_and_inverse(factors)
        image = rng.normal(size=(n, n - p))
        inverse, _ = rank_update_inverse(factors, image)
        updated = Z - image @ kernel.T
        reference, X = np.linalg.inv(updated), _dense_inverse(inverse, factors)
        assert np.abs(X - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.abs(updated @ X - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", ["unscaled-x", "row-below-cutoff"])
    def test_failed_guard_decides_as_the_svd(self, case, seed):
        # unscaled-x: a Gaussian X over d of six orders makes D^{-1} X large,
        # so the guard fails; row-below-cutoff: one whole row scaled below
        # the rank cutoff, so no bound can certify
        rng = np.random.default_rng(90 + seed)
        n = int(rng.integers(20, 201))
        zero_rows = int(rng.integers(1, n // 2 + 1))
        Z = _owned_columns(rng, n, zero_rows, scaled=case == "row-below-cutoff")
        if case == "row-below-cutoff":
            Z[np.flatnonzero(Z.any(axis=1))[0]] *= 1e-3 * RANK_REL_TOL
        factors = rank_factors(Z)
        assert factors.decision["method"] == ("qr" if case == "unscaled-x" else "svd")
        assert factors.rank == numerical_rank(Z)
        kernel, _ = kernel_basis_and_inverse(factors)
        assert np.linalg.norm(Z @ kernel, 2) <= 1e-9 * np.linalg.norm(Z, 2)
