import numpy as np
import pytest

from daereach import (
    DimensionMismatchError,
    EmptyPredicateError,
    StarSet,
    UnboundedPredicateError,
)

from oracles import (
    linear_image,
    linprog_extrema,
    polytope_vertices,
    random_polytope,
    sample_coefficients,
    sample_points,
    scrambled_box,
    unchecked_star,
)


def unit_box_star(n=2):
    V = np.eye(n)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([np.ones(n), np.zeros(n)])  # alpha in [0, 1]^n
    return StarSet(V, C, d)


class TestConstruction:
    def test_rejects_empty_predicate(self):
        with pytest.raises(EmptyPredicateError):
            StarSet(np.eye(1), np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))

    @pytest.mark.parametrize(
        "C, d, lps",
        [
            ([[1.0], [-1.0]], [1.0, 0.0], 0),  # 0 <= alpha <= 1
            ([[2.0], [-1.0], [1.0]], [2.0, -1.0, 3.0], 0),  # scaled rows: alpha = 1
            ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0], 1),  # a triangle
        ],
        ids=["box", "point-box", "triangle"],
    )
    def test_nonempty_box_takes_no_lp(self, lp_count, C, d, lps):
        StarSet(np.eye(np.shape(C)[1]), C, d)
        assert len(lp_count) == lps

    @pytest.mark.parametrize("gap", [1.0, 1e-12])
    def test_crossed_box_is_left_to_the_lp(self, lp_count, gap):
        # lower > upper: the LP decides, within its feasibility tolerance
        from daereach import lp

        C, d = np.array([[1.0], [-1.0]]), np.array([0.0, -gap])  # gap <= alpha <= 0
        expected = lp.find_feasible(C, d) is not None
        lp_count.clear()
        try:
            StarSet(np.eye(1), C, d)
            accepted = True
        except EmptyPredicateError:
            accepted = False
        assert (accepted, len(lp_count)) == (expected, 1)

    def test_rejects_mismatched_predicate(self):
        with pytest.raises(DimensionMismatchError):
            StarSet(np.eye(2), np.array([[1.0]]), np.array([1.0]))

    def test_rejects_mismatched_bound(self):
        with pytest.raises(DimensionMismatchError):
            StarSet(np.eye(2), np.eye(2), np.array([1.0]))

    def test_arrays_are_frozen(self):
        star = unit_box_star()
        with pytest.raises(ValueError):
            star.V[0, 0] = 5.0

    def test_does_not_freeze_caller_arrays(self):
        V = np.eye(2)
        unit = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        V[0, 0] = 7.0  # caller's array must stay writeable
        assert unit.V[0, 0] == 1.0


class TestLinearImage:
    def test_identity_map(self):
        star = unit_box_star()
        image = linear_image(star, np.eye(2))
        assert np.array_equal(image.V, star.V)
        assert image.C is star.C  # predicate shared untouched

    def test_zero_map_collapses_to_origin(self):
        star = unit_box_star()
        image = linear_image(star, np.zeros((2, 2)))
        assert np.array_equal(image.V, np.zeros((2, 2)))
        samples = sample_points(image, 5, seed=0)
        assert np.allclose(samples, 0.0)

    def test_sum_map_spans_expected_interval(self):
        # alpha in [0,1]^2 mapped through [1, 1]: the image is [0, 2]
        star = unit_box_star()
        image = linear_image(star, np.array([[1.0, 1.0]]))
        vertices = polytope_vertices(image.C, image.d)
        values = vertices @ image.V.T
        assert values.min() == pytest.approx(0.0, abs=1e-12)
        assert values.max() == pytest.approx(2.0, abs=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            linear_image(unit_box_star(), np.eye(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_functoriality(self, seed):
        rng = np.random.default_rng(seed)
        star = unit_box_star(3)
        T1 = rng.normal(size=(4, 3))
        T2 = rng.normal(size=(2, 4))
        twice = linear_image(linear_image(star, T1), T2)
        once = linear_image(star, T2 @ T1)
        assert np.allclose(twice.V, once.V, atol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampling_commutes_with_mapping(self, seed):
        rng = np.random.default_rng(40 + seed)
        star = unit_box_star(3)
        T = rng.normal(size=(2, 3))
        image = linear_image(star, T)
        before = sample_points(star, 20, seed=seed)
        after = sample_points(image, 20, seed=seed)
        assert np.allclose(after, before @ T.T, atol=1e-12)


class TestSampling:
    def test_degenerate_box_gives_single_point(self):
        V = np.array([[2.0], [1.0]])
        C = np.array([[1.0], [-1.0]])
        d = np.zeros(2)  # alpha exactly 0
        star = StarSet(V, C, d)
        points = sample_points(star, 7, seed=1)
        assert np.allclose(points, 0.0, atol=1e-12)

    def test_samples_satisfy_predicate(self, rotating_masses_star):
        alphas = sample_coefficients(rotating_masses_star, 50, seed=2)
        assert np.all(alphas[:, 0] >= 0.1 - 1e-9)
        assert np.all(alphas[:, 0] <= 0.2 + 1e-9)
        assert np.all(alphas[:, 1] >= 1.0 - 1e-9)
        assert np.all(alphas[:, 1] <= 1.2 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_empirical_hull_inside_exact_hull(self, seed):
        rng = np.random.default_rng(70 + seed)
        lows = rng.uniform(-2.0, 0.0, size=2)
        highs = lows + rng.uniform(0.5, 2.0, size=2)
        C = np.vstack([np.eye(2), -np.eye(2)])
        d = np.concatenate([highs, -lows])
        star = StarSet(rng.normal(size=(3, 2)), C, d)
        alphas = sample_coefficients(star, 200, seed=seed)
        assert np.all(alphas >= lows - 1e-9)
        assert np.all(alphas <= highs + 1e-9)

    def test_unbounded_predicate_rejected(self):
        star = StarSet(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(UnboundedPredicateError):
            sample_points(star, 3, seed=0)

    def test_reproducible(self):
        star = unit_box_star()
        a = sample_points(star, 10, seed=5)
        b = sample_points(star, 10, seed=5)
        assert np.array_equal(a, b)


def assert_extrema_close(extrema, expected, H, radius, rel):
    """Within ``rel`` of each row's scale ``|h| @ |alpha|max``."""
    scale = np.abs(H).sum(axis=-1) * max(1.0, radius)
    assert extrema.shape == expected.shape
    assert np.all(np.abs(extrema - expected) <= rel * np.maximum(1.0, scale)[..., None])


class TestSupport:
    @pytest.mark.parametrize("seed", range(12))
    def test_scrambled_box_takes_the_closed_form(self, seed, lp_count):
        rng = np.random.default_rng(500 + seed)
        k = 1 + seed % 4
        lower = rng.uniform(-2.0, 1.0, size=k)
        upper = lower + rng.uniform(0.1, 2.0, size=k)
        if seed % 3 == 0:  # a degenerate coefficient, l = u
            upper[0] = lower[0]
        C, d = scrambled_box(rng, lower, upper)
        star = StarSet(rng.normal(size=(3, k)), C, d)
        found_lower, found_upper = star.box()
        np.testing.assert_allclose(found_lower, lower, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(found_upper, upper, rtol=1e-12, atol=1e-12)

        support = star.support(budget=1)  # no vertex enumeration allowed
        assert support.method == "box"
        radius = np.abs(np.concatenate([lower, upper])).max()
        H = rng.normal(size=(6, 3, k))
        H[0, 0] = 0.0  # a row with no support to speak of
        extrema = support.extrema(H)
        assert lp_count == []
        assert np.all(extrema[..., 0] <= extrema[..., 1])

        vertices = star.vertices_within(10**6)
        values = H @ vertices.T
        by_vertices = np.stack([values.min(axis=-1), values.max(axis=-1)], axis=-1)
        assert_extrema_close(extrema, by_vertices, H, radius, 1e-12)
        assert_extrema_close(extrema, linprog_extrema(C, d, H), H, radius, 1e-8)

    def test_eight_dimensional_box_needs_no_vertices(self, lp_count):
        rng = np.random.default_rng(8)
        lower = rng.uniform(-1.0, 0.0, size=8)
        upper = lower + rng.uniform(0.2, 1.0, size=8)
        C = np.vstack([np.eye(8), -np.eye(8)])
        d = np.concatenate([upper, -lower])
        star = StarSet(rng.normal(size=(10, 8)), C, d)
        assert star.vertices_within(1001) is None  # C(16, 8) = 12870 subsets
        support = star.support(1001)
        assert support.method == "box"
        H = rng.normal(size=(4, 2, 8))
        extrema = support.extrema(H)
        assert lp_count == []
        radius = np.abs(np.concatenate([lower, upper])).max()
        assert_extrema_close(extrema, linprog_extrema(C, d, H), H, radius, 1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_cut_polytopes_take_the_vertices(self, seed):
        rng = np.random.default_rng(600 + seed)
        k = 2 + seed % 2
        C, d = random_polytope(rng, k, cuts=1 + seed % 3)
        star = StarSet(rng.normal(size=(4, k)), C, d)
        assert star.box() is None
        support = star.support(10**5)
        assert support.method == "vertices"
        H = rng.normal(size=(5, 2, k))
        extrema = support.extrema(H)
        radius = np.abs(star.vertices_within(10**5)).max()
        assert_extrema_close(extrema, linprog_extrema(C, d, H), H, radius, 1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_slack_minimum_matches_the_per_instant_form(self, seed):
        # one pass per vertex over the rows with the instants innermost gives
        # the minimum of h @ alpha - c |h| @ |alpha| that one small product
        # per instant gives, on a non-box predicate and on the view of
        # instants-innermost rows that the safety screen hands over
        rng = np.random.default_rng(700 + seed)
        k = 2 + seed % 2
        C, d = random_polytope(rng, k, cuts=1 + seed % 3)
        support = StarSet(rng.normal(size=(4, k)), C, d).support(10**5)
        assert support.method == "vertices"
        vertices, c = support._points, 1e-7
        steps, q = 301, 1 + seed % 3
        for H in (
            rng.normal(size=(steps, q, k)),
            np.ascontiguousarray(rng.normal(size=(q, k, steps))).transpose(2, 0, 1),
        ):
            per_instant = np.stack(
                [(h @ vertices.T - c * np.abs(h) @ np.abs(vertices).T).min(axis=-1) for h in H]
            )
            lowest = support.slack_minimum(H, c)
            assert lowest.shape == (steps, q)
            scale = np.abs(H).sum(axis=-1) * np.abs(vertices).max()
            assert np.all(np.abs(lowest - per_instant) <= 4 * np.finfo(float).eps * scale)

    def test_bounded_polytope_beyond_the_budget_takes_lps(self):
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        C = np.column_stack([np.cos(angles), np.sin(angles)])
        d = C @ np.array([0.15, 1.1]) + 0.05
        star = StarSet(np.eye(2), C, d)
        assert star.box() is None
        support = star.support(21)  # C(12, 2) = 66 subsets
        assert support.method == "lp"
        H = np.random.default_rng(9).normal(size=(3, 2, 2))
        extrema = support.extrema(H)
        assert_extrema_close(extrema, linprog_extrema(C, d, H), H, 1.2, 1e-8)
        assert_extrema_close(extrema, star.support(66).extrema(H), H, 1.2, 1e-10)

    def test_one_sided_predicate_keeps_the_lp_path(self, lp_count):
        # alpha_0 in [0, 1], alpha_1 >= 1: not a box, and unbounded
        C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        d = np.array([1.0, 0.0, -1.0])
        star = StarSet(np.eye(2), C, d)
        assert star.box() is None
        support = star.support(10**5)
        assert support.method == "lp"
        assert star.vertices_within(10**5) is None
        assert len(lp_count) > 0  # boundedness took LPs, as before

        along_first = np.array([[[2.0, 0.0]], [[-1.0, 0.0]]])
        np.testing.assert_allclose(
            support.extrema(along_first), linprog_extrema(C, d, along_first), atol=1e-9
        )
        along_second = np.array([[[0.0, 1.0]]])
        assert linprog_extrema(C, d, along_second) is None
        with pytest.raises(UnboundedPredicateError, match="direction 0 .* at time 0.5"):
            support.extrema(along_second, times=[0.5])

    @pytest.mark.parametrize(
        "C, d",
        [
            ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0]),  # a diagonal row
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]], [1, 0, 1, 0, 1]),
            ([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 0.0]),
        ],
        ids=["two-nonzeros", "zero-row", "no-lower-row"],
    )
    def test_not_a_box(self, C, d):
        assert StarSet(np.eye(2), C, np.array(d, dtype=float)).box() is None

    def test_unbounded_below_solves_both_lps_of_its_coefficient(self, lp_count):
        # alpha_0 in [0, 1], alpha_1 <= 1 and alpha_1 <= alpha_0 + 3: the
        # boundedness check is the LP support of +-e_i, two LPs a coefficient
        C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        star = StarSet(np.eye(2), C, np.array([1.0, 0.0, 1.0, 3.0]))
        del lp_count[:]  # the constructor's feasibility LP
        with pytest.raises(UnboundedPredicateError, match="direction 1"):
            sample_points(star, 2, seed=0)
        assert len(lp_count) == 4

    @pytest.mark.parametrize("budget", [0, 10**5])
    def test_empty_predicate_built_unchecked_is_empty_on_the_lp_path(self, budget):
        # alpha >= 0 with alpha_0 + alpha_1 <= -1: no solution, and not a box
        C = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        star = unchecked_star(np.eye(2), C, [0.0, 0.0, -1.0])
        with pytest.raises(EmptyPredicateError):
            star.support(budget).extrema(np.eye(2)[None])
        with pytest.raises(EmptyPredicateError):
            sample_points(star, 2, seed=0)
