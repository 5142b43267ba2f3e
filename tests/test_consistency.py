from itertools import islice

import numpy as np
import pytest

from daereach import (
    DimensionMismatchError,
    StarSet,
    check_initial_star,
    compute_index_and_chain,
    decouple,
)
from daereach.linalg import CONSISTENCY_TOL
from daereach.model import AutonomousDae

from oracles import CanonicalDae, dense_decoupled, finite_deflating_subspace
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
    """The dense ``Gamma`` of :func:`oracles.dense_decoupled`, the
    reference the lift-residual check is held to."""

    def test_index_1_degenerate_case(self, index1_pair):
        # for E = diag(1, 0), A = I the correction term N2 P0 vanishes,
        # so the consistent matrix collapses to the kernel projector
        gamma = dense_decoupled(decoupled(index1_pair)).gamma
        assert gamma.shape == (2, 2)
        assert np.allclose(gamma, np.diag([0.0, 1.0]), atol=1e-12)

    def test_rotating_masses_blocks_from_displayed_matrices(
        self, rotating_masses_decoupled
    ):
        # substitute the frozen worked-example matrices into the two-block
        # stacked form (the N2 term vanishes for this benchmark)
        gamma = dense_decoupled(rotating_masses_decoupled).gamma
        assert gamma.shape == (12, 6)
        P0 = np.eye(6) - EXPECTED_Q0
        P1 = np.eye(6) - EXPECTED_Q1
        expected_top = P0 @ EXPECTED_Q1
        expected_bottom = EXPECTED_Q0 - EXPECTED_N3 @ P0 @ P1
        assert np.allclose(gamma[:6], expected_top, atol=1e-9)
        assert np.allclose(gamma[6:], expected_bottom, atol=1e-9)

    def test_index_3_block_count(self):
        ws = CanonicalDae(np.random.default_rng(1), 2, [3])
        gamma = dense_decoupled(decoupled(AutonomousDae(ws.E, ws.A))).gamma
        assert gamma.shape == (3 * 5, 5)

    @pytest.mark.parametrize("seed,blocks", [(0, [1]), (1, [2]), (2, [3, 1])])
    def test_kernel_matches_canonical_consistent_space(self, seed, blocks):
        # Ker(gamma) must be exactly the consistent states of the canonical
        # form: dimension equals the dynamic part, and consistent points
        # are annihilated
        rng = np.random.default_rng(10 + seed)
        ws = CanonicalDae(rng, 3, blocks)
        gamma = dense_decoupled(decoupled(AutonomousDae(ws.E, ws.A))).gamma
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
        gamma = dense_decoupled(dec).gamma
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
        # the certificate against the dense Gamma V, located by hand, and
        # its residual against the dense lift residual psi Pi V - V
        reference = dense_decoupled(rotating_masses_decoupled)
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0
        bad = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        for star in (rotating_masses_star, bad):
            lifted = reference.psi @ reference.projectors[1] @ star.V
            residual = np.abs(reference.gamma @ star.V)
            consistent = residual.max() <= CONSISTENCY_TOL
            row, column = np.unravel_index(np.argmax(residual), residual.shape)
            factored = check_initial_star(rotating_masses_decoupled, star)
            assert factored.consistent == consistent
            assert factored.worst_column == (None if consistent else column)
            assert factored.worst_row_block == (None if consistent else row // star.dim)
            lift_residual = np.abs(lifted - star.V).max()
            assert factored.max_residual == pytest.approx(lift_residual, abs=1e-12)

    def test_never_raises_on_inconsistency(self, rotating_masses_decoupled):
        star = StarSet(np.ones((6, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        cert = check_initial_star(rotating_masses_decoupled, star)  # must return, not raise
        assert not cert.consistent


def _systems(name, count=20):
    """The autonomous systems of a named corpus: a builtin model, or the
    first ``count`` random or semi-explicit systems of an index (all of
    them when ``count`` is ``None``)."""
    from daereach import build_rotating_masses, load_model, to_autonomous

    if name == "rotating-masses":
        return [to_autonomous(*build_rotating_masses())]
    if name.startswith("stokes"):
        return [to_autonomous(*load_model(f"builtin:{name.replace('-', ':')}"))]
    family, index = name.rsplit("-", 1)
    systems = random_systems if family == "random-index" else semi_explicit_systems
    return [auto for _, _, auto, _ in islice(systems(int(index)), count)]


_CORPORA = [
    f"{family}-{index}" for family in ("random-index", "semi-explicit") for index in (1, 2, 3)
]


@pytest.mark.parametrize(
    "name",
    ["stokes-4", "stokes-8", "stokes-12", "stokes-16", "rotating-masses"] + _CORPORA,
)
def test_consistent_space_matches_the_qz_deflating_subspace(name):
    """The finite right deflating subspace of ``(A, E)`` from QZ, which
    shares nothing with the projector chain, has dimension ``ode_rank``,
    spans ``range(psi W)`` and lies in the kernel of ``Gamma``."""
    import scipy.linalg

    for case, auto in enumerate(_systems(name)):
        Z_f, finite, infinite = finite_deflating_subspace(auto)
        dec = decoupled(auto)
        print(f"\n{name} #{case}: |beta| finite >= {finite:.2e}, infinite <= {infinite:.2e}")
        assert infinite <= 1e-4 < 1e-2 <= finite, case  # a decade clear of the cutoff
        assert Z_f.shape[1] == dec.ode_rank, case
        assert scipy.linalg.subspace_angles(Z_f, dec.lift).max() <= 1e-8, case
        assert np.abs(dense_decoupled(dec).gamma @ Z_f).max() <= 1e-8, case


def _gamma_certificate(gamma, V):
    """``(consistent, worst_column, worst_row_block)`` from the dense ``Gamma
    V``, its blocks ``n`` rows each."""
    residual = np.abs(gamma @ V)
    if residual.max() <= CONSISTENCY_TOL:
        return True, None, None
    row, column = np.unravel_index(np.argmax(residual), residual.shape)
    return False, int(column), int(row // V.shape[0])


@pytest.mark.parametrize(
    "name", ["rotating-masses", "stokes-4", "stokes-8", "stokes-12"] + _CORPORA
)
def test_lift_residual_decides_as_gamma(name):
    """The lift residual ``psi W W^T Pi V - V`` decides and locates as the
    dense ``Gamma V`` does: on consistent stars ``psi W G``, on stars pushed
    1e-4 along ``range(projectors[i])`` for each constraint subsystem ``i``
    (the violation lands in block ``i - 2``), and on stars pushed 1e-4 in a
    random direction."""
    rng = np.random.default_rng(16)
    for case, auto in enumerate(_systems(name)):
        dec = decoupled(auto)
        reference = dense_decoupled(dec)
        base = dec.lift @ rng.normal(size=(dec.ode_rank, 2))
        base /= np.abs(base).max(axis=0)
        pushes = {
            i: reference.projectors[i] @ rng.normal(size=dec.n) for i in range(2, dec.mu + 2)
        }
        pushes[None] = rng.normal(size=dec.n)
        stars = {"consistent": base}
        for i, push in pushes.items():
            V = base.copy()
            V[:, rng.integers(2)] += 1e-4 * push / np.abs(push).max()
            stars[i] = V
        for kind, V in stars.items():
            star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
            cert = check_initial_star(dec, star)
            expected = _gamma_certificate(reference.gamma, V)
            got = (cert.consistent, cert.worst_column, cert.worst_row_block)
            assert got == expected, (case, kind)
            assert cert.consistent == (kind == "consistent"), (case, kind)
            if isinstance(kind, int):
                assert cert.worst_row_block == kind - 2, (case, kind)


@pytest.mark.parametrize(
    "name", ["stokes-4", "stokes-8", "stokes-12", "stokes-16", "rotating-masses"] + _CORPORA
)
def test_lift_solves_the_dae(name):
    """Every ``x = psi W y`` with ``y' = M y``, ``M = ode_matrix``, solves
    ``E x' = A x``: ``E psi W M = A psi W`` to 1e-10 relative to ``||E||_2
    ||psi W M||_2 + ||A||_2 ||psi W||_2``.  The residual reads only the
    model's ``E`` and ``A``, so it checks the chain, the decoupling and the
    lift at once."""
    worst = 0.0
    for case, auto in enumerate(_systems(name, count=None)):
        dec = decoupled(auto)
        lift = dec.lift
        moved = lift @ dec.ode_matrix
        scale = np.linalg.norm(auto.E, 2) * np.linalg.norm(moved, 2)
        scale += np.linalg.norm(auto.A, 2) * np.linalg.norm(lift, 2)
        residual = np.abs(auto.E @ moved - auto.A @ lift).max() / scale
        worst = max(worst, residual)
        assert residual <= 1e-10, case
    print(f"\n{name}: worst relative DAE residual {worst:.2e}")
