import numpy as np
import pytest

from daereach import (
    AutonomousDae,
    DimensionMismatchError,
    StarSet,
    build_consistent_matrix,
    check_initial_star,
    compute_index_and_chain,
    decouple,
    make_admissible,
)

from oracles import CanonicalDae
from test_decoupling import EXPECTED_N3, EXPECTED_Q0, EXPECTED_Q1


def decoupled(auto):
    return decouple(make_admissible(compute_index_and_chain(auto)))


class TestBuildConsistentMatrix:
    def test_index_1_degenerate_case(self, index1_pair):
        # for E = diag(1, 0), A = I the correction term N2 P0 vanishes,
        # so the consistent matrix collapses to the kernel projector
        gamma = build_consistent_matrix(decoupled(index1_pair))
        assert gamma.shape == (2, 2)
        assert np.allclose(gamma, np.diag([0.0, 1.0]), atol=1e-12)

    def test_rotating_masses_blocks_from_displayed_matrices(
        self, rotating_masses_decoupled
    ):
        # substitute the frozen worked-example matrices into the two-block
        # stacked form (the N2 term vanishes for this benchmark)
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        assert gamma.shape == (12, 6)
        P0 = np.eye(6) - EXPECTED_Q0
        P1 = np.eye(6) - EXPECTED_Q1
        expected_top = P0 @ EXPECTED_Q1
        expected_bottom = EXPECTED_Q0 - EXPECTED_N3 @ P0 @ P1
        assert np.allclose(gamma[:6], expected_top, atol=1e-9)
        assert np.allclose(gamma[6:], expected_bottom, atol=1e-9)

    def test_index_3_block_count(self):
        ws = CanonicalDae(np.random.default_rng(1), 2, [3])
        gamma = build_consistent_matrix(decoupled(AutonomousDae(ws.E, ws.A)))
        assert gamma.shape == (3 * 5, 5)

    @pytest.mark.parametrize("seed,blocks", [(0, [1]), (1, [2]), (2, [3, 1])])
    def test_kernel_matches_canonical_consistent_space(self, seed, blocks):
        # Ker(gamma) must be exactly the consistent states of the canonical
        # form: dimension equals the dynamic part, and consistent points
        # are annihilated
        rng = np.random.default_rng(10 + seed)
        ws = CanonicalDae(rng, 3, blocks)
        gamma = build_consistent_matrix(decoupled(AutonomousDae(ws.E, ws.A)))
        rank = np.linalg.matrix_rank(gamma, tol=1e-9 * max(1.0, np.abs(gamma).max()))
        assert gamma.shape[1] - rank == ws.dynamic_dim
        for _ in range(5):
            x0 = ws.consistent_point(rng)
            assert np.abs(gamma @ x0).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_annihilates_reconstructed_states_index_1(self, seed):
        # gamma (I + N2) z = 0 for z in range(P0)
        rng = np.random.default_rng(20 + seed)
        ws = CanonicalDae(rng, 3, [1, 1])
        dec = decoupled(AutonomousDae(ws.E, ws.A))
        gamma = build_consistent_matrix(dec)
        lifted = (np.eye(dec.n) + dec.N[2]) @ dec.projectors[1]
        assert np.abs(gamma @ lifted).max() <= 1e-9


class TestCheckInitialStar:
    def test_zero_basis_is_consistent(self, rotating_masses_decoupled):
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        V = np.zeros((6, 1))
        star = StarSet(V, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        cert = check_initial_star(gamma, star)
        assert cert.consistent
        assert cert.max_residual == 0.0

    def test_benchmark_star_is_consistent(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        cert = check_initial_star(gamma, rotating_masses_star)
        assert cert.consistent
        assert cert.max_residual <= 1e-12

    def test_perturbed_star_is_inconsistent(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0  # breaks the torque balance constraint
        star = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        cert = check_initial_star(gamma, star)
        assert not cert.consistent
        assert cert.max_residual > 1e-2
        assert cert.worst_column == 0
        assert cert.worst_row_block is not None

    def test_dimension_mismatch(self, rotating_masses_star, index1_pair):
        with pytest.raises(DimensionMismatchError):
            check_initial_star(np.eye(4), rotating_masses_star)
        with pytest.raises(DimensionMismatchError):
            check_initial_star(decoupled(index1_pair), rotating_masses_star)

    def test_factored_rows_match_the_matrix(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0
        bad = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        for star in (rotating_masses_star, bad):
            dense = check_initial_star(build_consistent_matrix(rotating_masses_decoupled), star)
            factored = check_initial_star(rotating_masses_decoupled, star)
            assert factored.consistent == dense.consistent
            assert factored.worst_column == dense.worst_column
            assert factored.worst_row_block == dense.worst_row_block
            assert factored.max_residual == pytest.approx(dense.max_residual, abs=1e-12)

    def test_never_raises_on_inconsistency(self, rotating_masses_decoupled):
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        star = StarSet(np.ones((6, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        cert = check_initial_star(gamma, star)  # must return, not raise
        assert not cert.consistent
