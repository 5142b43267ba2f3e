import numpy as np
import pytest

from daereach import (
    DimensionMismatchError,
    NumericalFailureError,
    ReachSettings,
    StarSet,
    UnsafeSpec,
    compute_reach,
    decouple_system,
    rotating_masses_initial_star,
    verify,
)
from daereach.model import AutonomousDae
from daereach.safety import feasibility_check

from oracles import random_polytope, scipy_feasibility_kernel, scrambled_box


@pytest.fixture(scope="module")
def benchmark_reach(rotating_masses_auto, rotating_masses_star):
    settings = ReachSettings(time_step=0.01, num_steps=1000)
    return compute_reach(rotating_masses_auto, rotating_masses_star, settings)


class TestUnsafeSpec:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            UnsafeSpec([[1.0, 0.0]], [1.0, 2.0])

    def test_zero_extension_over_inputs(self):
        spec = UnsafeSpec([[1.0, 2.0]], [0.0])
        extended = spec.extended(4, 2)
        assert np.array_equal(extended, [[1.0, 2.0, 0.0, 0.0]])

    def test_full_width_not_extended(self):
        spec = UnsafeSpec([[1.0, 2.0]], [0.0], on_original_state=False)
        with pytest.raises(DimensionMismatchError):
            spec.extended(4, 2)


class TestFeasibilityCheck:
    def test_interval(self):
        alpha = feasibility_check(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        assert alpha is not None
        assert -1e-9 <= alpha[0] <= 1.0 + 1e-9

    def test_empty(self):
        assert (
            feasibility_check(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0])) is None
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_scipy_kernel(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(6, 3))
        f = rng.normal(size=6)
        ours = feasibility_check(G, f)
        ref = scipy_feasibility_kernel(G, f)
        assert (ours is None) == (ref is None)


class TestVerify:
    def test_torque_threshold_is_falsified(self, benchmark_reach):
        outcome = verify(benchmark_reach, UnsafeSpec([[0, 0, 1, 0]], [-0.9]))
        assert outcome.status == "unsafe"
        assert outcome.first_unsafe_step is not None
        assert outcome.unsafe_trace.shape == (1001, 6)

    def test_second_torque_threshold_is_safe(self, benchmark_reach):
        outcome = verify(benchmark_reach, UnsafeSpec([[0, 0, 0, 1]], [-1.0]))
        assert outcome.status == "safe"
        assert outcome.first_unsafe_step is None
        assert outcome.unsafe_trace is None

    def test_unsatisfiable_unsafe_set_is_safe(self, benchmark_reach):
        outcome = verify(benchmark_reach, UnsafeSpec(np.zeros((1, 4)), [-1.0]))
        assert outcome.status == "safe"

    def test_witness_satisfies_both_constraint_systems(self, benchmark_reach):
        unsafe = UnsafeSpec([[0, 0, 1, 0]], [-0.9])
        outcome = verify(benchmark_reach, unsafe)
        alpha = outcome.alpha_feasible
        star = benchmark_reach.initial
        assert np.all(star.C @ alpha <= star.d + 1e-9)
        hit = benchmark_reach.bases[outcome.first_unsafe_step] @ alpha
        assert hit[2] <= -0.9 + 1e-9

    def test_trace_is_a_genuine_simulation(
        self, rotating_masses_auto, benchmark_reach
    ):
        # replaying the witness point through the pipeline reproduces the
        # emitted trace
        unsafe = UnsafeSpec([[0, 0, 1, 0]], [-0.9])
        outcome = verify(benchmark_reach, unsafe)
        x0 = benchmark_reach.bases[0] @ outcome.alpha_feasible
        point_star = StarSet(
            x0[:, None], np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
        )
        replay = compute_reach(
            rotating_masses_auto, point_star, benchmark_reach.settings
        )
        replayed = replay.bases[:, :, 0]
        assert np.abs(replayed - outcome.unsafe_trace).max() <= 1e-9

    def test_first_hit_matches_exact_corner_scan(self, benchmark_reach):
        # the predicate is a box, so the per-step minimum of the monitored
        # row is attained at a corner; first crossing must match verify()
        lo = np.array([0.1, 1.0])
        hi = np.array([0.2, 1.2])
        mins = np.array(
            [
                np.minimum(basis[2] * lo, basis[2] * hi).sum()
                for basis in benchmark_reach.bases
            ]
        )
        expected_first = int(np.nonzero(mins <= -0.9)[0][0])
        outcome = verify(benchmark_reach, UnsafeSpec([[0, 0, 1, 0]], [-0.9]))
        assert outcome.first_unsafe_step == expected_first

    def test_find_all_collects_every_unsafe_step(self, benchmark_reach):
        unsafe = UnsafeSpec([[0, 0, 1, 0]], [-0.9])
        outcome = verify(benchmark_reach, unsafe, find_all=True)
        lo = np.array([0.1, 1.0])
        hi = np.array([0.2, 1.2])
        mins = np.array(
            [
                np.minimum(basis[2] * lo, basis[2] * hi).sum()
                for basis in benchmark_reach.bases
            ]
        )
        expected = set(np.nonzero(mins <= -0.9 + 1e-12)[0])
        got = set(outcome.unsafe_steps)
        # LP boundary cases may differ by the feasibility slack only
        assert got.symmetric_difference(expected) <= set(
            np.nonzero(np.abs(mins + 0.9) <= 1e-8)[0]
        )

    def test_monotonicity_under_predicate_shrinking(
        self, rotating_masses_auto, rotating_masses_star
    ):
        # adding predicate rows shrinks the set; a safe verdict must survive
        settings = ReachSettings(time_step=0.01, num_steps=1000)
        reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
        unsafe = UnsafeSpec([[0, 0, 0, 1]], [-1.0])
        assert verify(reach, unsafe).status == "safe"
        shrunk = StarSet(
            rotating_masses_star.V,
            np.vstack([rotating_masses_star.C, [[1.0, 1.0]]]),
            np.concatenate([rotating_masses_star.d, [1.25]]),
        )
        reach_small = compute_reach(rotating_masses_auto, shrunk, settings)
        assert verify(reach_small, unsafe).status == "safe"

    def test_pluggable_kernel(self, benchmark_reach):
        unsafe = UnsafeSpec([[0, 0, 1, 0]], [-0.9])
        default = verify(benchmark_reach, unsafe)
        scipy_backed = verify(benchmark_reach, unsafe, kernel=scipy_feasibility_kernel)
        assert default.status == scipy_backed.status == "unsafe"
        assert default.first_unsafe_step == scipy_backed.first_unsafe_step

    def test_witness_whose_row_terms_vanish_is_refused(self):
        # x1 = alpha e^{49 t} >= 0 never reaches x1 <= -1.  At t = 1 the kernel
        # accepts alpha = 0, whose unsafe row misses by 1: within the slack
        # of the row's largest entry, 1.9e21, but not of the terms it sums
        auto = AutonomousDae([[1.0, 0.0], [0.0, 0.0]], [[50.0, 1.0], [1.0, 1.0]])
        star = StarSet([[1.0], [-1.0]], [[1.0], [-1.0]], [1.0, 0.0])
        reach = compute_reach(auto, star, ReachSettings(1.0, 10))
        unsafe = UnsafeSpec([[1.0, 0.0]], [-1.0])
        Gbar = np.vstack([reach.pull_back(unsafe.G)[1], star.C])
        assert np.array_equal(feasibility_check(Gbar, np.r_[unsafe.f, star.d]), [0.0])
        with pytest.raises(NumericalFailureError, match="infeasible witness at step 1"):
            verify(reach, unsafe)

    def test_step_count_no_array_holds(self):
        # E = 0 leaves no ODE subsystem: its (steps, 0, 1) coordinates fit, and
        # numpy refuses the size of the pulled-back rows before allocating them
        auto = AutonomousDae(np.zeros((2, 2)), np.eye(2))
        star = StarSet(np.zeros((2, 1)), [[1.0], [-1.0]], [1.0, 1.0])
        reach = compute_reach(auto, star, ReachSettings(time_step=1.0, num_steps=10**17))
        with pytest.raises(NumericalFailureError, match=r"1e\+17 steps"):
            verify(reach, UnsafeSpec([[1.0, 0.0]], [-1.0]))


class TestUnboundedPredicates:
    def test_verification_accepts_what_sampling_rejects(self):
        # unbounded coefficient polytopes are fine for LP-based checking
        # but cannot be sampled by vertex mixing
        from daereach import UnboundedPredicateError

        E = np.diag([1.0, 0.0])
        A = np.eye(2)
        auto = AutonomousDae(E, A)
        star = StarSet(
            np.array([[1.0], [0.0]]), np.array([[-1.0]]), np.array([-1.0])
        )  # alpha >= 1, unbounded above; basis lies in the consistent space
        with pytest.raises(UnboundedPredicateError):
            star.sample_points(3, seed=0)
        reach = compute_reach(auto, star, ReachSettings(0.1, 5))
        grows = verify(reach, UnsafeSpec([[-1.0, 0.0]], [-5.0]))
        assert grows.status == "unsafe"  # alpha = 5 already violates at t = 0
        assert grows.first_unsafe_step == 0
        never = verify(reach, UnsafeSpec([[1.0, 0.0]], [0.5]))
        assert never.status == "safe"  # x1 = alpha e^t >= 1 for all steps


class TestIndexThreeFalsification:
    @pytest.mark.parametrize("seed", range(3))
    def test_trace_matches_exact_solution(self, seed):
        # full loop on an index-3 system: falsify against a threshold known
        # to be reachable, then check the emitted trace against the exact
        # canonical-form solution of the witness start point
        from oracles import CanonicalDae, box_star, dense_decoupled
        from daereach import compute_index_and_chain, decouple

        rng = np.random.default_rng(900 + seed)
        ws = CanonicalDae(rng, 3, [3])
        auto = AutonomousDae(ws.E, ws.A)
        dec = decouple(compute_index_and_chain(auto))
        star = box_star(rng, dense_decoupled(dec).gamma, auto.n, 2)
        settings = ReachSettings(time_step=0.05, num_steps=20)
        reach = compute_reach(auto, star, settings)

        direction = rng.normal(size=auto.n)
        samples = star.sample_coefficients(2000, seed=seed)
        basis = reach.bases
        sampled_min = ((basis @ samples.T) * direction[None, :, None]).sum(axis=1).min()
        threshold = sampled_min + 0.1 * max(1.0, abs(sampled_min))
        outcome = verify(
            reach, UnsafeSpec(direction[None, :], [threshold], on_original_state=False)
        )
        assert outcome.status == "unsafe"
        exact = ws.exact_states(star.V @ outcome.alpha_feasible, settings.times)
        assert np.abs(outcome.unsafe_trace - exact).max() <= 1e-8


class TestSamplingOracleAgreement:
    def test_small_index_1_system(self):
        # dense sampling of the initial polytope plus exact simulation is
        # the reference verdict on an interior-threshold unsafe set
        E = np.diag([1.0, 0.0])
        A = np.array([[-1.0, 1.0], [1.0, -2.0]])
        auto = AutonomousDae(E, A)
        star = StarSet(
            np.array([[1.0], [0.5]]),
            np.array([[1.0], [-1.0]]),
            np.array([2.0, -0.5]),
        )
        settings = ReachSettings(time_step=0.05, num_steps=40)
        reach = compute_reach(auto, star, settings)
        times = settings.times
        alphas = star.sample_coefficients(10_000, seed=0)
        # x1(t) = exp(-t/2) a: sampled minimum over trajectories
        trajectory_min = (np.exp(-times / 2.0)[:, None] * alphas[:, 0]).min()
        span = abs(trajectory_min)
        for threshold, expected in [
            (trajectory_min + 0.2 * span, "unsafe"),
            (trajectory_min - 0.2 * span, "safe"),
        ]:
            outcome = verify(reach, UnsafeSpec([[1.0, 0.0]], [threshold]))
            assert outcome.status == expected


def reference_verify(reach, unsafe):
    """The unscreened scan: one kernel call at every step, in time order,
    on the rows ``verify`` pulls back, ``(G @ lift) @ ode_coordinates[j]``."""
    hits, alpha = [], None
    star = reach.initial
    pulled_back = unsafe.extended(star.dim, reach.n_orig) @ reach.lift
    for j, coordinates in enumerate(reach.ode_coordinates):
        Gbar = np.vstack([pulled_back @ coordinates, star.C])
        fbar = np.concatenate([unsafe.f, star.d])
        candidate = feasibility_check(Gbar, fbar)
        if candidate is not None:
            hits.append(j)
            alpha = candidate if alpha is None else alpha
    return hits, alpha


def assert_matches_reference(outcome, reach, unsafe):
    hits, alpha = reference_verify(reach, unsafe)
    assert outcome.status == ("unsafe" if hits else "safe")
    assert outcome.unsafe_steps == tuple(hits)
    assert outcome.first_unsafe_step == (hits[0] if hits else None)
    if hits:
        assert np.array_equal(outcome.alpha_feasible, alpha)


def random_reach(rng, index, width, predicate):
    """A 60-step reach of a random index-``index`` system from a consistent
    ``width``-column basis over the predicate ``predicate(rng, width)``."""
    from oracles import CanonicalDae, box_star, dense_decoupled

    ws = CanonicalDae(rng, int(rng.integers(2, 4)), [index])
    auto = AutonomousDae(ws.E, ws.A)
    gamma = dense_decoupled(decouple_system(auto)).gamma
    basis = box_star(rng, gamma, auto.n, width).V
    C, d = predicate(rng, width)
    return compute_reach(auto, StarSet(basis, C, d), ReachSettings(0.05, 60))


def assert_screen_matches_reference(reach, unsafe):
    """The screened scan, with and without ``find_all``, against the
    unscreened one; returns the ``find_all`` outcome."""
    outcome = verify(reach, unsafe, find_all=True)
    assert_matches_reference(outcome, reach, unsafe)
    assert outcome.lp_calls + outcome.screened_steps == len(reach.bases)
    first = verify(reach, unsafe)
    assert first.first_unsafe_step == outcome.first_unsafe_step
    if first.first_unsafe_step is not None:
        assert np.array_equal(first.alpha_feasible, outcome.alpha_feasible)
    return outcome


class TestVertexScreen:
    @pytest.mark.parametrize("seed", range(24))
    def test_find_all_matches_unscreened_scan(self, seed):
        # random index-1-3 systems, bounded polytope predicates and unsafe
        # sets whose bounds sit inside the range the steps sweep, so the
        # screen proves some steps safe and leaves others to the kernel
        rng = np.random.default_rng(3100 + seed)
        reach = random_reach(
            rng,
            1 + seed % 3,
            2 + seed % 2,
            lambda rng, width: random_polytope(rng, width, cuts=int(rng.integers(0, 3))),
        )
        vertices = reach.initial.vertices_within(len(reach.bases))
        assert vertices is not None

        q = 1 + seed % 3
        G = rng.normal(size=(q, reach.lift.shape[0]))
        lowest = (G @ reach.bases @ vertices.T).min(axis=2)  # (steps, q)
        f = np.array([rng.uniform(row.min(), row.max()) for row in lowest.T])
        if seed % 4 == 0:  # a bound exactly on one step's support value
            f[0] = lowest[int(rng.integers(len(lowest))), 0]
        assert_screen_matches_reference(reach, UnsafeSpec(G, f, on_original_state=False))

    @pytest.mark.parametrize("seed", range(12))
    def test_box_predicates_match_unscreened_scan(self, seed):
        # boxes written with scaled, duplicate and redundant rows, some
        # with a degenerate coefficient, screened in closed form
        def predicate(rng, width):
            lower = rng.uniform(-1.0, 0.0, size=width)
            upper = lower + rng.uniform(0.2, 1.0, size=width)
            if seed % 3 == 0:
                upper[-1] = lower[-1]
            return scrambled_box(rng, lower, upper)

        rng = np.random.default_rng(4100 + seed)
        reach = random_reach(rng, 1 + seed % 3, 2 + seed % 3, predicate)
        support = reach.initial.support(len(reach.bases))
        assert support.method == "box"

        G = rng.normal(size=(1 + seed % 2, reach.lift.shape[0]))
        lowest = support.extrema(G @ reach.bases)[..., 0]  # (steps, q)
        f = np.array([rng.uniform(row.min(), row.max()) for row in lowest.T])
        unsafe = UnsafeSpec(G, f, on_original_state=False)
        assert assert_screen_matches_reference(reach, unsafe).support_method == "box"

    def test_unbounded_predicate_takes_the_lp_path(self):
        E = np.diag([1.0, 0.0])
        auto = AutonomousDae(E, np.eye(2))
        star = StarSet(np.array([[1.0], [0.0]]), np.array([[-1.0]]), np.array([-1.0]))
        reach = compute_reach(auto, star, ReachSettings(0.1, 5))
        assert reach.initial.vertices_within(len(reach.bases)) is None
        for G, f in (([[-1.0, 0.0]], [-5.0]), ([[1.0, 0.0]], [0.5])):
            unsafe = UnsafeSpec(G, f)
            outcome = verify(reach, unsafe, find_all=True)
            assert outcome.screened_steps == 0
            assert outcome.lp_calls == len(reach.bases)
            assert_matches_reference(outcome, reach, unsafe)

    def test_many_vertex_subsets_take_the_lp_path(self, rotating_masses_auto):
        # 12 constraints on 2 coefficients give C(12, 2) = 66 subsets, more
        # than the 21 instants, so enumerating them is not worth it
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        C = np.column_stack([np.cos(angles), np.sin(angles)])
        d = C @ np.array([0.15, 1.1]) + 0.05
        star = StarSet(rotating_masses_initial_star().V, C, d)
        reach = compute_reach(rotating_masses_auto, star, ReachSettings(0.1, 20))
        assert reach.initial.vertices_within(len(reach.bases)) is None
        assert reach.initial.vertices_within(66) is not None
        for f in (-0.45, -0.55):
            unsafe = UnsafeSpec([[0, 0, 1, 0]], [f])
            outcome = verify(reach, unsafe, find_all=True)
            assert outcome.support_method == "lp"
            assert outcome.screened_steps == 0
            assert outcome.lp_calls == len(reach.bases)
            assert_matches_reference(outcome, reach, unsafe)

    def test_counters_on_the_rotating_masses(self, benchmark_reach):
        unsafe = verify(benchmark_reach, UnsafeSpec([[0, 0, 1, 0]], [-0.9]))
        assert (unsafe.first_unsafe_step, unsafe.lp_calls, unsafe.screened_steps) == (
            166,
            1,
            166,
        )
        safe = verify(benchmark_reach, UnsafeSpec([[0, 0, 0, 1]], [-1.0]))
        assert (safe.lp_calls, safe.screened_steps) == (0, 1001)
