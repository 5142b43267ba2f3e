import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from daereach import (
    InconsistentInitialSetError,
    NumericalFailureError,
    ReachSettings,
    StarSet,
    compute_index_and_chain,
    compute_reach,
    decouple,
)
from daereach.model import AutonomousDae

from oracles import (
    CanonicalDae,
    box_star,
    dense_decoupled,
    reference_decoupled,
    reference_reach_bases,
    sample_coefficients,
    sequential_coordinates,
    square_arrays,
    write_json,
)
from test_decoupling import EXPECTED_N3, dense_forms, frame_errors


def decoupled(auto):
    return decouple(compute_index_and_chain(auto))


def lift_against(dec, psi):
    """``|dec.lift - psi W|`` at its largest, for a dense ``psi`` and the
    ODE frame ``W``: the lift is ``psi`` on ``range(Pi)``."""
    return np.abs(dec.lift - psi @ dec.ode_basis).max()


def rc_style_pair():
    """Index-1 two-state system with a hand-derived solution.

    Row 2 forces x2 = x1 / 2, so x1' = -x1 + x2 = -x1 / 2 and
    x(t) = (exp(-t/2) a, exp(-t/2) a / 2) from a consistent start (a, a/2).
    """
    E = np.diag([1.0, 0.0])
    A = np.array([[-1.0, 1.0], [1.0, -2.0]])
    return AutonomousDae(E, A)


class TestBuildPsi:
    """The package's lift ``psi W``, summed from the projector words on its
    ODE frame ``W``, against the closed forms of ``psi`` in ``N`` and
    ``L3``/``L4``/``Z4`` from the package's operators on the identity."""

    def test_index_1_formula(self, index1_pair):
        dec = decoupled(index1_pair)
        assert lift_against(dec, np.eye(2) + dense_forms(dec)[0][2]) <= 1e-14
        assert lift_against(dec, np.diag([1.0, 0.0])) <= 1e-14

    def test_rotating_masses_reduces_to_identity_plus_n3(
        self, rotating_masses_decoupled
    ):
        # N2 = 0 for this benchmark, so only the N3 term survives
        assert lift_against(rotating_masses_decoupled, np.eye(6) + EXPECTED_N3) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_termwise_against_index_2_formula(self, seed):
        rng = np.random.default_rng(seed)
        ws = CanonicalDae(rng, 3, [2, 1])
        dec = decoupled(AutonomousDae(ws.E, ws.A))
        N, couplings, _ = dense_forms(dec)
        n1, n2, n3 = N[1], N[2], N[3]
        expected = np.eye(dec.n) + n2 + n3 + couplings["L3"] @ n2 @ n1
        assert lift_against(dec, expected) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_termwise_against_index_3_formula(self, seed):
        rng = np.random.default_rng(50 + seed)
        ws = CanonicalDae(rng, 2, [3])
        dec = decoupled(AutonomousDae(ws.E, ws.A))
        N, couplings, _ = dense_forms(dec)
        n1, n2, n3, n4 = N[1], N[2], N[3], N[4]
        L3, L4, Z4 = couplings["L3"], couplings["L4"], couplings["Z4"]
        expected = (
            np.eye(dec.n)
            + n2
            + n3
            + n4
            + L3 @ n2 @ n1
            + L4 @ n3 @ n1
            + L4 @ L3 @ n2 @ n1 @ n1
            + Z4 @ n2 @ n1
        )
        assert lift_against(dec, expected) <= 1e-12

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_frame_against_the_reference_oracle(self, index):
        # lift and ode_matrix against the dense ReferenceDecoupled of the
        # same chain (its maps from oracles.dense_maps), at every index
        rng = np.random.default_rng(60 + index)
        ws = CanonicalDae(rng, 3, [index, 1])
        dec = decoupled(AutonomousDae(ws.E, ws.A))
        reference, W = dense_decoupled(dec), dec.ode_basis
        assert dec.mu == index
        assert lift_against(dec, reference.psi) <= 1e-12
        assert np.abs(dec.ode_matrix - W.T @ reference.N[1] @ W).max() <= 1e-12


def synthetic_dec(n1):
    """An index-1 pair whose ODE subsystem is ``x' = n1 x`` on the leading
    coordinates: ``E = diag(I, 0)``, ``A = diag(n1, 1)``, so the trailing
    coordinate is pinned to 0, ``Pi`` keeps the leading ones and ``N[1] =
    diag(n1, 0)``."""
    n1 = np.asarray(n1, dtype=float)
    n = n1.shape[0]
    E = np.diag(np.r_[np.ones(n), 0.0])
    A = scipy.linalg.block_diag(n1, 1.0)
    return decoupled(AutonomousDae(E, A))


def full_box_star(V):
    k = V.shape[1]
    C = np.vstack([np.eye(k), -np.eye(k)])
    d = np.ones(2 * k)
    return StarSet(V, C, d)


class TestPropagateBasis:
    def test_frozen_dynamics(self):
        from daereach import propagate_basis

        dec = synthetic_dec(np.zeros((3, 3)))
        theta = full_box_star(np.eye(4, 3))
        settings = ReachSettings(time_step=0.1, num_steps=4)
        coordinates = propagate_basis(dec, theta, settings)
        W = dec.ode_basis
        assert coordinates.shape == (5, 3, 3)
        for y in coordinates:
            assert np.array_equal(y, coordinates[0])
            assert np.abs(W @ y - np.eye(4, 3)).max() <= 1e-14

    def test_scalar_exponential(self):
        from daereach import propagate_basis

        dec = synthetic_dec([[-1.0]])
        theta = full_box_star(np.array([[1.0], [0.0]]))
        settings = ReachSettings(time_step=0.1, num_steps=1)
        coordinates = propagate_basis(dec, theta, settings)
        W = dec.ode_basis
        assert (W @ coordinates[1])[0, 0] == pytest.approx(np.exp(-0.1), rel=1e-12)

    @pytest.mark.parametrize(
        "model, time_step, num_steps",
        [
            ("builtin:rotating-masses", 0.01, 10_000),
            ("builtin:stokes:4", 1e-3, 100),
            # r = 121 over 300 steps: doubling stops at blocks of 16 instants,
            # which march the rest of the grid
            ("builtin:stokes:12", 1e-4, 300),
        ],
    )
    def test_squaring_matches_sequential_steps(self, model, time_step, num_steps):
        from daereach import load_model, propagate_basis, to_autonomous

        auto = to_autonomous(*load_model(model))
        dec = decoupled(auto)
        star = box_star(np.random.default_rng(8), dense_decoupled(dec).gamma, auto.n, 3)
        coordinates = propagate_basis(dec, star, ReachSettings(time_step, num_steps))
        expected = sequential_coordinates(dec, star.V, time_step, num_steps)
        assert np.abs(coordinates - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("num_steps", [1, 1000, 2000, 10_000])
    def test_rotating_masses_keep_the_full_doubling(
        self, rotating_masses_auto, rotating_masses_star, num_steps
    ):
        # at r = 3 the cost rule never stops squaring, so the side-by-side
        # block holds the bits of one (r x r) @ (c, r, k) product per doubling
        from daereach import propagate_basis
        from daereach.linalg import matrix_exponential

        dec = decoupled(rotating_masses_auto)
        settings = ReachSettings(0.01, num_steps)
        coordinates = propagate_basis(dec, rotating_masses_star, settings)
        expected = np.empty((num_steps + 1, 3, 2))
        expected[0] = dec.ode_basis.T @ dec.ode_component(rotating_masses_star.V)
        power = matrix_exponential(dec.ode_matrix, 0.01)
        filled = 1
        while True:
            count = min(filled, len(expected) - filled)
            np.matmul(power, expected[:count], out=expected[filled : filled + count])
            filled += count
            if filled == len(expected):
                break
            power = power @ power
        assert np.array_equal(coordinates, expected)

    def test_modes_agree(self, rotating_masses_auto, rotating_masses_star):
        # the reused transition matrix against the other mode of propagation,
        # an error-controlled n x n integration of the ODE subsystem that
        # does not use the package (oracles.reference_reach_bases)
        settings = ReachSettings(time_step=0.01, num_steps=1000)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        expected = reference_reach_bases(
            reference_decoupled(rotating_masses_auto), rotating_masses_star.V,
            0.01, 1000, adaptive=True,
        )
        assert np.abs(reach.bases - expected).max() <= 1e-6


class TestComputeReach:
    def test_rotating_masses_run_shape(self, rotating_masses_auto, rotating_masses_star):
        settings = ReachSettings(time_step=0.01, num_steps=1000)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        assert len(reach.bases) == 1001
        assert reach.decoupled.mu == 2

    def test_predicate_shared_bit_identically(
        self, rotating_masses_auto, rotating_masses_star
    ):
        settings = ReachSettings(time_step=0.1, num_steps=10)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        assert reach.initial is rotating_masses_star
        for basis in reach.bases:
            star = StarSet(basis, reach.initial.C, reach.initial.d)  # frozen, so shared
            assert star.C is rotating_masses_star.C
            assert star.d is rotating_masses_star.d

    def test_bases_are_lifted_once_on_demand(
        self, rotating_masses_auto, rotating_masses_star
    ):
        from daereach import UnsafeSpec, verify

        settings = ReachSettings(time_step=0.1, num_steps=20)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        assert reach.ode_coordinates.shape == (21, 3, 2)
        assert reach.lift.shape == (6, 3)
        outcome = verify(reach, UnsafeSpec([[0, 0, 1, 0]], [-0.9]))
        assert not outcome.is_safe  # the trace is built too
        assert "bases" not in vars(reach)  # verification reads the coordinates
        assert reach.bases is reach.bases
        assert reach.bases.shape == (21, 6, 2)
        assert np.array_equal(reach.bases, reach.lift @ reach.ode_coordinates)
        for array in (reach.bases, reach.lift, reach.ode_coordinates):
            assert not array.flags.writeable

    @pytest.mark.parametrize("model", ["builtin:rotating-masses", "builtin:stokes:4"])
    def test_products_do_not_depend_on_the_layout(self, model):
        # the same coordinates stored (J+1, r, k) C-contiguous give the bytes
        # of the side-by-side block compute_reach lays out
        from daereach import load_model, to_autonomous

        auto = to_autonomous(*load_model(model))
        star = box_star(np.random.default_rng(5), dense_decoupled(decoupled(auto)).gamma, auto.n, 3)
        reach = compute_reach(auto, star, ReachSettings(1e-3, 50))
        stacked = replace(reach, ode_coordinates=np.ascontiguousarray(reach.ode_coordinates))
        assert not reach.ode_coordinates.flags.c_contiguous
        M = np.random.default_rng(6).normal(size=(2, auto.n))
        alpha = np.array([0.3, -0.2, 0.9])
        assert np.array_equal(stacked.bases, reach.bases)
        assert np.array_equal(stacked.pull_back(M), reach.pull_back(M))
        assert np.array_equal(stacked.states(alpha), reach.states(alpha))

    def test_zero_basis_stays_zero(self, rotating_masses_auto):
        star = StarSet(
            np.zeros((6, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
        )
        settings = ReachSettings(time_step=0.1, num_steps=5)
        reach = compute_reach(rotating_masses_auto, star, settings)
        assert np.abs(reach.bases).max() <= 1e-14

    @pytest.mark.parametrize("reference", ["transition_matrix", "adaptive_integrator"])
    def test_system_without_ode_subsystem(self, reference):
        # E = 0: index 1 with Pi = 0, so the ODE frame has r = 0 columns
        auto = AutonomousDae(np.zeros((2, 2)), np.eye(2))
        star = StarSet(np.zeros((2, 1)), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        reach = compute_reach(auto, star, ReachSettings(0.1, 3))
        expected = reference_reach_bases(
            reference_decoupled(auto), star.V, 0.1, 3, adaptive=reference == "adaptive_integrator"
        )
        assert reach.ode_coordinates.shape == (4, 0, 1)
        assert reach.lift.shape == (2, 0)
        assert reach.bases.shape == expected.shape == (4, 2, 1)
        assert not reach.bases.any() and not expected.any()

    def test_inconsistent_initial_set_raises_with_certificate(
        self, rotating_masses_auto, rotating_masses_star
    ):
        V = rotating_masses_star.V.copy()
        V[2, 0] += 1.0
        bad = StarSet(V, rotating_masses_star.C, rotating_masses_star.d)
        settings = ReachSettings(time_step=0.1, num_steps=5)
        with pytest.raises(InconsistentInitialSetError) as info:
            compute_reach(rotating_masses_auto, bad, settings)
        assert info.value.certificate.worst_column == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reach_set_names_its_first_step(self):
        # x1 = alpha e^{49 t} passes the largest double between t = 14 and 15
        auto = AutonomousDae([[1.0, 0.0], [0.0, 0.0]], [[50.0, 1.0], [1.0, 1.0]])
        star = StarSet([[1.0], [-1.0]], [[1.0], [-1.0]], [1.0, 0.0])
        assert np.isfinite(compute_reach(auto, star, ReachSettings(1.0, 14)).bases).all()
        with pytest.raises(NumericalFailureError, match=r"step 15 \(t = 15\)"):
            compute_reach(auto, star, ReachSettings(1.0, 20))

    @pytest.mark.filterwarnings("error")
    def test_pull_back_that_overflows_raises(self, rotating_masses_auto, rotating_masses_star):
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, ReachSettings(0.1, 5))
        assert np.isfinite(reach.pull_back(np.full((1, 6), 1.0))).all()
        with pytest.raises(NumericalFailureError, match="pull-back .* overflows"):
            reach.pull_back(np.full((1, 6), 1.7e308))

    def test_rc_style_sample_and_simulate(self):
        # every sampled trajectory of the hand-solved system must land on
        # the star basis applied to the same coefficients
        auto = rc_style_pair()
        star = StarSet(
            np.array([[1.0], [0.5]]),
            np.array([[1.0], [-1.0]]),
            np.array([2.0, -0.5]),  # a in [0.5, 2]
        )
        settings = ReachSettings(time_step=0.05, num_steps=40)
        reach = compute_reach(auto, star, settings)
        alphas = sample_coefficients(star, 25, seed=3)
        times = settings.times
        for alpha in alphas:
            a = alpha[0]
            exact = np.stack(
                [np.exp(-times / 2.0) * a, np.exp(-times / 2.0) * a / 2.0], axis=1
            )
            computed = reach.bases @ alpha
            assert np.abs(computed - exact).max() <= 1e-6


class TestReachInvariants:
    @pytest.mark.parametrize("seed,blocks", [(0, [1, 1]), (1, [2, 1]), (2, [3])])
    def test_subsystem_decomposition(self, seed, blocks):
        # Psi V1 equals the sum of independently reconstructed subsystem
        # contributions at every step
        rng = np.random.default_rng(seed)
        ws = CanonicalDae(rng, 3, blocks)
        auto = AutonomousDae(ws.E, ws.A)
        dec = decoupled(auto)
        star = box_star(rng, dense_decoupled(dec).gamma, auto.n, 2)
        settings = ReachSettings(time_step=0.05, num_steps=10)
        reach = compute_reach(auto, star, settings)
        maps = dense_forms(dec)[2]
        ode_bases = reach.decoupled.ode_basis @ reach.ode_coordinates
        for v1, basis in zip(ode_bases, reach.bases):
            expected = sum(m @ v1 for m in maps.values())
            assert np.abs(basis - expected).max() <= 1e-8

    def test_consistency_propagates_along_solutions(
        self, rotating_masses_auto, rotating_masses_star, rotating_masses_decoupled
    ):
        gamma = dense_decoupled(rotating_masses_decoupled).gamma
        settings = ReachSettings(time_step=0.01, num_steps=500)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        psi_norm = np.linalg.norm(dense_decoupled(reach.decoupled).psi)
        for j, basis in enumerate(reach.bases):
            bound = 1e-8 * (1.0 + psi_norm * np.exp(0.0) + j * 1e-3)
            assert np.abs(gamma @ basis).max() <= max(bound, 1e-10)

    def test_superposition(self, rotating_masses_auto, rotating_masses_star):
        settings = ReachSettings(time_step=0.05, num_steps=20)
        both = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        box = (np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        for column in range(2):
            single = StarSet(
                rotating_masses_star.V[:, [column]], box[0], box[1]
            )
            part = compute_reach(rotating_masses_auto, single, settings)
            for j in range(len(both.bases)):
                assert np.allclose(
                    both.bases[j][:, column], part.bases[j][:, 0], atol=1e-12
                )

    def test_finite_difference_residual_is_first_order(
        self, rotating_masses_auto, rotating_masses_star
    ):
        # || E (x_{j+1} - x_j) / h - A (x_j + x_{j+1}) / 2 || stays O(h)
        E, A = rotating_masses_auto.E, rotating_masses_auto.A
        alpha = np.array([0.15, 1.1])

        def worst_residual(h, steps):
            settings = ReachSettings(time_step=h, num_steps=steps)
            reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
            xs = reach.bases @ alpha
            diffs = (xs[1:] - xs[:-1]) / h
            mids = (xs[1:] + xs[:-1]) / 2.0
            return np.abs(diffs @ E.T - mids @ A.T).max()

        coarse = worst_residual(0.02, 250)
        fine = worst_residual(0.01, 500)
        fitted = coarse / 0.02
        assert fine <= 1.5 * fitted * 0.01


def _stokes(k):
    from daereach import load_model, to_autonomous

    return to_autonomous(*load_model(f"builtin:stokes:{k}"))


class TestAgainstReferencePath:
    """The r-dimensional propagation, the factored decoupled operator and the
    swapped-projector inverses against the direct path: LU inverses, a
    rank-checked rebuilt chain, dense coefficients and full ``n x n``
    propagation (``oracles.reference_*``)."""

    @pytest.mark.parametrize("reference", ["transition_matrix", "adaptive_integrator"])
    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_stokes_bases_and_verdicts(self, k, reference):
        from daereach import UnsafeSpec, stokes_center_velocity_rows, verify

        auto = _stokes(k)
        ref_dec = reference_decoupled(auto)
        star = box_star(np.random.default_rng(k), ref_dec.gamma, auto.n, 2)
        reach = compute_reach(auto, star, ReachSettings(1e-4, 100))
        expected = reference_reach_bases(
            ref_dec, star.V, 1e-4, 100, adaptive=reference == "adaptive_integrator"
        )
        assert reach.ode_coordinates.shape[1] == round(np.trace(ref_dec.projectors[1]))
        assert np.abs(reach.bases - expected).max() <= 1e-8 * np.abs(expected).max()

        G = np.zeros((1, auto.n))
        G[0, list(stokes_center_velocity_rows(k))] = -1.0
        lowest = np.sort((G @ expected @ star.coefficient_vertices().T).min(axis=2)[:, 0])
        direct = replace(reach, lift=np.eye(auto.n), ode_coordinates=expected)
        # a threshold crossed halfway through the horizon, and one never crossed
        for threshold in ((lowest[50] + lowest[51]) / 2, lowest[0] - 0.1 * np.ptp(lowest)):
            unsafe = UnsafeSpec(G, [threshold], on_original_state=False)
            ours, theirs = verify(reach, unsafe), verify(direct, unsafe)
            assert ours.status == theirs.status
            assert ours.first_unsafe_step == theirs.first_unsafe_step

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_stokes_frame_blocks(self, k):
        # the factored blocks against the dense closed forms on the same chain
        # to 1e-10, and against the independent chain to the 1e-8 the bases
        # are held to above: the two chains differ by up to 2e-10 relative at
        # k = 12 (cond(E_2) = 3.2e5), in the dense N[1] as much as in the blocks
        auto = _stokes(k)
        dec = decoupled(auto)
        ref_dec = reference_decoupled(auto)
        rng = np.random.default_rng(k)
        V = np.column_stack(
            [box_star(rng, ref_dec.gamma, auto.n, 1).V[:, 0], rng.normal(size=auto.n)]
        )
        same_chain = frame_errors(dec, dense_decoupled(dec), V)
        assert max(same_chain.values()) <= 1e-10, same_chain
        independent = frame_errors(dec, ref_dec, V)
        assert max(independent.values()) <= 1e-8, independent


@pytest.mark.parametrize(
    "model, dense_model",
    [pytest.param(model, count, id=model) for model, count in
     (("builtin:rotating-masses", 2), ("builtin:stokes:4", 1), ("builtin:stokes:12", 0))],
)
def test_reach_path_builds_nothing_dense(model, dense_model):
    from daereach import UnsafeSpec, load_model, to_autonomous, verify

    auto = to_autonomous(*load_model(model))
    dec = decoupled(auto)
    star = box_star(np.random.default_rng(3), dense_decoupled(dec).gamma, auto.n, 2)
    reach = compute_reach(auto, star, ReachSettings(1e-3, 50))
    verify(reach, UnsafeSpec(np.ones((1, auto.n)), [0.0], on_original_state=False))
    dec = reach.decoupled
    assert "lift" in vars(dec)  # the thin blocks were built
    # the only n x n arrays held anywhere: what the system's own E and A
    # keep, which the raw chain keeps in place of its chain matrices (the
    # rows keep both dense on the rotating masses, A, of up to 7 entries in
    # a row of 39, at Stokes k = 4, and neither at k = 12), and on the
    # rotating masses the SVD-certified dense terminal inverse, which
    # decouple took from the chain and corrected in place; Stokes keeps its
    # corrected inverse as the certificate's blocks, with no n x n array
    raw = dec.raw
    assert raw.E is auto.E and raw.A is auto.A
    assert raw.inverse is None
    assert len(square_arrays([raw.E, raw.A], dec.n)) == dense_model
    held = [raw.E, raw.A, dec.inverse]
    allowed = {id(a) for a in square_arrays(held, dec.n)}
    assert len(allowed) == dense_model + (model == "builtin:rotating-masses")
    for owner in (dec, raw):
        for name, value in vars(owner).items():
            cached = [a for a in square_arrays(value, dec.n) if id(a) not in allowed]
            assert not cached, (type(owner).__name__, name)


@pytest.mark.parametrize("model", ["builtin:rotating-masses", "builtin:stokes:8"])
def test_initial_coordinates_are_formed_once(monkeypatch, model):
    """``compute_reach`` forms ``W^T Pi V`` once and hands it to the
    consistency check and the propagation, whose results are the bytes they
    give when each forms it itself."""
    from daereach import load_model, to_autonomous
    from daereach.consistency import check_initial_star
    from daereach.decoupling import DecoupledSystem
    from daereach.reachability import propagate_basis

    auto = to_autonomous(*load_model(model))
    lift = decoupled(auto).lift
    V = lift @ np.random.default_rng(5).normal(size=(lift.shape[1], 2))
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    settings = ReachSettings(1e-3, 30)
    formed = []
    original = DecoupledSystem.ode_coordinates
    monkeypatch.setattr(
        DecoupledSystem, "ode_coordinates", lambda self, X: formed.append(1) or original(self, X)
    )
    reach = compute_reach(auto, star, settings)
    assert len(formed) == 1
    monkeypatch.undo()
    dec = decoupled(auto)
    alone = check_initial_star(dec, star)
    assert reach.certificate == alone
    assert reach.ode_coordinates.tobytes() == propagate_basis(dec, star, settings).tobytes()


def test_compute_reach_peak_memory_on_stokes_12():
    """:func:`compute_reach` on Stokes ``k = 12`` holds at most 4.07 ``n x
    n`` arrays at once (it read 3.94) and keeps at most 4 once it returns,
    the result's included (``tracemalloc``, which numpy reports to; the
    system's own ``E`` and ``A`` were made before).  A chain that kept
    ``E_1`` and ``A_1`` and a frame that kept ``N W`` measured 8.3 and 7.6;
    a decoupled system that kept ``A_2'`` as its source kept 4.7, Gram
    factors that kept ``E_1``'s dense ``W`` peaked at 5.8, a frame that
    held its ``n x r`` block ``S W`` while the words were applied, 4.64,
    and a ``decouple`` that formed the ``n x n`` corrected inverse, 4.36."""
    import tracemalloc

    from daereach import load_model, to_autonomous

    auto = to_autonomous(*load_model("builtin:stokes:12"))
    lift = decoupled(auto).lift
    V = lift @ np.random.default_rng(12).normal(size=(lift.shape[1], 2))
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    settings = ReachSettings(1e-4, 100)
    compute_reach(auto, star, settings)  # first-call imports and caches are not the run's
    tracemalloc.start()
    try:
        reach = compute_reach(auto, star, settings)
        alive, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = 8 * auto.n**2
    print(f"\ncompute_reach: peak {peak / arrays:.2f}, kept {alive / arrays:.2f} n x n arrays")
    assert reach.decoupled.mu == 2
    assert peak <= 4.07 * arrays and alive <= 4.0 * arrays


def test_model_file_to_reach_peak_memory_on_stokes_12(tmp_path):
    """:func:`load_model` of the Stokes ``k = 12`` model file, then
    :func:`to_autonomous` and :func:`compute_reach`, hold at most 4.0 ``n x
    n`` arrays at once (it read 3.99) and keep at most 3.25 (3.22), the
    model's own ``E`` and ``A`` counted (``tracemalloc``, which numpy
    reports to; a first run takes the first-call imports and caches).  A
    loader that scattered the triples into dense ``E`` and ``A`` measured
    5.95 and kept 5.18."""
    import tracemalloc

    from daereach import build_stokes, load_model, to_autonomous

    model = build_stokes(12)

    def triples(matrix):
        rows, cols = np.nonzero(matrix)
        entries = [[int(i), int(j), float(matrix[i, j])] for i, j in zip(rows, cols)]
        return {"shape": list(matrix.shape), "triples": entries}

    path = tmp_path / "model.json"
    E, A, B = (np.asarray(a) for a in (model.E, model.A, model.B))
    write_json(path, n=model.n, m=model.m, E=triples(E), A=triples(A), B=triples(B), A_u=None)
    del model, E, A, B
    lift = decoupled(to_autonomous(*load_model(path))).lift
    V = lift @ np.random.default_rng(12).normal(size=(lift.shape[1], 2))
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    settings = ReachSettings(1e-4, 100)
    del lift
    compute_reach(to_autonomous(*load_model(path)), star, settings)  # first calls
    tracemalloc.start()
    try:
        reach = compute_reach(to_autonomous(*load_model(path)), star, settings)
        alive, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = 8 * reach.lift.shape[0] ** 2
    print(f"\nmodel file to reach: peak {peak / arrays:.2f}, kept {alive / arrays:.2f} n x n arrays")
    assert reach.decoupled.mu == 2
    assert peak <= 4.0 * arrays and alive <= 3.25 * arrays


class TestSettingsValidation:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ReachSettings(time_step=0.0, num_steps=1)

    @pytest.mark.parametrize(
        "time_step, num_steps",
        [
            (math.inf, 3),
            (math.nan, 3),
            (-math.inf, 3),
            (0.1, 2.5),
            (0.1, 3.0),
            (0.1, True),
            (0.1, False),
            (0.1, 0),
        ],
    )
    def test_rejects_non_finite_step_and_non_integer_count(self, time_step, num_steps):
        with pytest.raises(ValueError):
            ReachSettings(time_step, num_steps)

    def test_accepts_numpy_integer_count(self):
        assert ReachSettings(0.1, np.int64(3)).times.shape == (4,)

    def test_time_grid(self):
        settings = ReachSettings(time_step=0.5, num_steps=4)
        assert settings.time_bound == 2.0
        assert np.allclose(settings.times, [0.0, 0.5, 1.0, 1.5, 2.0])
