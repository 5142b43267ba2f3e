import dataclasses
import warnings

import numpy as np
import pytest

from daereach import DEFAULT_TOLERANCES, TolerancePolicy
from daereach.linalg import (
    CERTIFICATE_MARGIN,
    CONSISTENCY_TOL,
    FEASIBILITY_TOL,
    RANK_REL_TOL,
    as_matrix,
    kernel_basis_and_inverse,
    matrix_exponential,
    numerical_rank,
    rank_factors,
    rank_update_inverse,
    svd_factors,
)

from oracles import expm_taylor, svd_certificate


class TestTolerancePolicy:
    def test_defaults(self):
        assert (RANK_REL_TOL, CONSISTENCY_TOL, FEASIBILITY_TOL) == (1e-9, 1e-8, 1e-9)
        assert [f.name for f in dataclasses.fields(TolerancePolicy)] == ["feasibility_tol"]
        assert TolerancePolicy().feasibility_tol == FEASIBILITY_TOL
        assert DEFAULT_TOLERANCES == TolerancePolicy()

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(feasibility_tol=bad)


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
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_cutoff_forced_by_tolerance(self):
        assert numerical_rank(np.diag([1.0, 1e-15])) == 1

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

    @pytest.mark.parametrize("kind", ["svd", "qr", "diagonal"])
    @pytest.mark.parametrize("seed", range(3))
    def test_lu_matches_the_svd_of_the_block(self, kind, seed):
        rng = np.random.default_rng(60 + seed)
        n, m = int(rng.integers(25, 41)), int(rng.integers(1, 9))
        if kind == "svd":
            Z = rng.normal(size=(n, n - m)) @ rng.normal(size=(n - m, n))
        elif kind == "qr":
            Z = _with_zero_rows(rng, n, m)
        else:
            Z = _scaled_selection(rng, n, m)
        factors = rank_factors(Z)
        assert factors.decision["method"] == kind and factors.rank == n - m
        image = rng.normal(size=(n, m))
        inverse, bound = rank_update_inverse(factors, image)
        reference, reference_bound = svd_certificate(factors, image, CERTIFICATE_MARGIN)
        assert inverse is not None and reference is not None
        assert abs(bound - reference_bound) <= 1e-12 * reference_bound
        assert np.abs(inverse - reference).max() <= 1e-10 * np.abs(reference).max()

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
            assert np.allclose(inverse, np.diag([1.0, -1.0 / eps]), rtol=1e-14)

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
