from itertools import islice

import numpy as np
import pytest

from daereach import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    StarSet,
    build_consistent_matrix,
    check_initial_star,
    compute_index_and_chain,
    decouple,
)
from daereach.model import AutonomousDae

from oracles import CanonicalDae, finite_deflating_subspace
from test_decoupling import (
    EXPECTED_N3,
    EXPECTED_Q0,
    EXPECTED_Q1,
    dense_forms,
    random_systems,
    semi_explicit_systems,
)


def decoupled(auto):
    return decouple(compute_index_and_chain(auto))


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
        lifted = (np.eye(dec.n) + dense_forms(dec)[0][2]) @ dec.projectors[1]
        assert np.abs(gamma @ lifted).max() <= 1e-9


class TestCheckInitialStar:
    def test_zero_basis_is_consistent(self, rotating_masses_decoupled):
        V = np.zeros((6, 1))
        star = StarSet(V, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        cert = check_initial_star(rotating_masses_decoupled, star)
        assert cert.consistent
        assert cert.max_residual == 0.0

    def test_benchmark_star_is_consistent(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        cert = check_initial_star(rotating_masses_decoupled, rotating_masses_star)
        assert cert.consistent
        assert cert.max_residual <= 1e-12

    def test_perturbed_star_is_inconsistent(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0  # breaks the torque balance constraint
        star = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        cert = check_initial_star(rotating_masses_decoupled, star)
        assert not cert.consistent
        assert cert.max_residual > 1e-2
        assert cert.worst_column == 0
        assert cert.worst_row_block is not None

    def test_dimension_mismatch(
        self, rotating_masses_star, rotating_masses_decoupled, index1_pair
    ):
        one_column = StarSet(np.ones((2, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            check_initial_star(rotating_masses_decoupled, one_column)
        with pytest.raises(DimensionMismatchError):
            check_initial_star(decoupled(index1_pair), rotating_masses_star)

    def test_factored_rows_match_the_matrix(
        self, rotating_masses_decoupled, rotating_masses_star
    ):
        # the certificate against the dense Gamma V, located by hand
        gamma = build_consistent_matrix(rotating_masses_decoupled)
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0
        bad = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        for star in (rotating_masses_star, bad):
            residual = np.abs(gamma @ star.V)
            consistent = residual.max() <= DEFAULT_TOLERANCES.consistency_tol
            row, column = np.unravel_index(np.argmax(residual), residual.shape)
            factored = check_initial_star(rotating_masses_decoupled, star)
            assert factored.consistent == consistent
            assert factored.worst_column == (None if consistent else column)
            assert factored.worst_row_block == (None if consistent else row // star.dim)
            assert factored.max_residual == pytest.approx(residual.max(), abs=1e-12)

    def test_never_raises_on_inconsistency(self, rotating_masses_decoupled):
        star = StarSet(np.ones((6, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        cert = check_initial_star(rotating_masses_decoupled, star)  # must return, not raise
        assert not cert.consistent


def _qz_systems(name):
    from daereach import build_rotating_masses, load_model, to_autonomous

    if name == "rotating-masses":
        return [to_autonomous(*build_rotating_masses())]
    if name.startswith("stokes"):
        return [to_autonomous(*load_model(f"builtin:{name.replace('-', ':')}"))]
    family, index = name.rsplit("-", 1)
    systems = random_systems if family == "random-index" else semi_explicit_systems
    return [auto for _, _, auto, _ in islice(systems(int(index)), 20)]


@pytest.mark.parametrize(
    "name",
    ["stokes-4", "stokes-8", "stokes-12", "stokes-16", "rotating-masses"]
    + [f"random-index-{index}" for index in (1, 2, 3)]
    + [f"semi-explicit-{index}" for index in (1, 2, 3)],
)
def test_consistent_space_matches_the_qz_deflating_subspace(name):
    """The finite right deflating subspace of ``(A, E)`` from QZ, which
    shares nothing with the projector chain, has dimension ``ode_rank``,
    spans ``range(psi W)`` and lies in the kernel of ``Gamma``."""
    import scipy.linalg

    for case, auto in enumerate(_qz_systems(name)):
        Z_f, finite, infinite = finite_deflating_subspace(auto)
        dec = decoupled(auto)
        print(f"\n{name} #{case}: |beta| finite >= {finite:.2e}, infinite <= {infinite:.2e}")
        assert infinite <= 1e-4 < 1e-2 <= finite, case  # a decade clear of the cutoff
        assert Z_f.shape[1] == dec.ode_rank, case
        assert scipy.linalg.subspace_angles(Z_f, dec.lift).max() <= 1e-8, case
        assert np.abs(build_consistent_matrix(dec, Z_f)).max() <= 1e-8, case
