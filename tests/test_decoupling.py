import dataclasses
import tracemalloc

import numpy as np
import pytest

from daereach import (
    IndexTooHighError,
    IrregularPencilError,
    NonsingularEError,
    ReachSettings,
    compute_index_and_chain,
    decouple,
)
from daereach.decoupling import DecoupledSystem, _chain_rows
from daereach.linalg import (
    _QR_MIN_N,
    CERTIFICATE_MARGIN,
    RANK_REL_TOL,
    InverseBlocks,
    rank_update_inverse,
    svd_factors,
)
from daereach.model import AutonomousDae

from oracles import (
    CanonicalDae,
    chain_matrices,
    chain_projectors,
    chain_sequences,
    corrupt_solve_block,
    dense_admissibility_residual,
    dense_apply,
    dense_correction,
    dense_maps,
    dense_residual,
    kernel_factors,
    reference_chain,
    reference_decoupled,
    square_arrays,
    stored_chain,
    weierstrass_auto,
)

THIRD = 1.0 / 3.0

EXPECTED_Q0 = np.diag([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])

EXPECTED_Q1 = np.array(
    [
        [2 * THIRD, -2 * THIRD, 0, 0, 0, 0],
        [-THIRD, THIRD, 0, 0, 0, 0],
        [2 * THIRD, -2 * THIRD, 0, 0, 0, 0],
        [-2 * THIRD, 2 * THIRD, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
)

EXPECTED_N1 = np.array(
    [
        [0, 0, 0, 0, THIRD, THIRD],
        [0, 0, 0, 0, THIRD, THIRD],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1.0],
        [0, 0, 0, 0, -1.0, 0],
    ]
)

EXPECTED_N3 = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -2 * THIRD, THIRD],
        [0, 0, 0, 0, 2 * THIRD, -THIRD],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
)

EXPECTED_L3 = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [2 * THIRD, -2 * THIRD, 0, 0, 0, 0],
        [-2 * THIRD, 2 * THIRD, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
)


def canonical_auto(rng, dynamic_dim, blocks):
    ws = CanonicalDae(rng, dynamic_dim, blocks)
    return AutonomousDae(ws.E, ws.A), ws


def dense_forms(dec):
    """``(N, couplings, maps)``: the decoupled system's own operators applied
    to the identity, keyed as ``apply_N`` and ``apply_couplings`` key them,
    and the reconstruction maps multiplied out from them
    (:func:`oracles.dense_maps`)."""
    identity = np.eye(dec.n)
    N, couplings = dec.apply_N(identity), dec.apply_couplings(identity)
    return N, couplings, dense_maps(N, couplings)


class TestComputeIndexAndChain:
    def test_rotating_masses_is_index_2(self, rotating_masses_auto):
        chain = compute_index_and_chain(rotating_masses_auto)
        assert chain.mu == 2
        assert np.allclose(chain_projectors(chain)[0][0], EXPECTED_Q0, atol=1e-12)

    def test_nonsingular_e_raises(self):
        with pytest.raises(NonsingularEError):
            compute_index_and_chain(AutonomousDae(np.eye(2), np.ones((2, 2))))

    def test_irregular_pencil_raises(self):
        E = np.diag([1.0, 0.0])
        A = np.array([[2.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IrregularPencilError):
            compute_index_and_chain(AutonomousDae(E, A))

    def test_index_above_three_raises(self):
        auto, _ = canonical_auto(np.random.default_rng(0), 2, [4])
        with pytest.raises(IndexTooHighError):
            compute_index_and_chain(auto)

    def test_uncertified_terminal_matrix_takes_its_own_svd(self, monkeypatch):
        # E_1 = diag(1, -eps) has cond 1/eps = 6.7e8: inside the certificate's
        # margin, yet nonsingular at the 1e9 cutoff, as its own SVD finds
        import daereach.decoupling

        eps = 1.5e-9
        full_svds = []
        factors = daereach.decoupling.rank_factors

        def counting(Z):
            full_svds.append(Z.shape)
            return factors(Z)

        monkeypatch.setattr(daereach.decoupling, "rank_factors", counting)
        auto = AutonomousDae(np.diag([1.0, 0.0]), np.diag([1.0, eps]))
        chain = compute_index_and_chain(auto)
        assert chain.mu == reference_chain(auto)[4] == 1
        assert chain.condition_bound is None
        # E_1 was formed for its own SVD, yet only the step of the singular E_0 is kept
        assert [step.K.shape[1] for step in chain.steps] == [1]
        assert full_svds == [(2, 2), (2, 2)]
        assert np.allclose(chain.terminal_inverse, np.diag([1.0, -1.0 / eps]), rtol=1e-14)

    def test_ended_chain_never_probes_the_pencil(self, monkeypatch, rotating_masses_auto):
        import daereach.decoupling

        def probe(*args, **kwargs):
            raise AssertionError("a chain that ends proves regularity")

        monkeypatch.setattr(daereach.decoupling, "check_regularity", probe)
        rng = np.random.default_rng(11)
        autos = [rotating_masses_auto, _stokes_auto()]
        autos += [canonical_auto(rng, 3, blocks)[0] for blocks in ([1, 1], [2, 1], [3, 1])]
        assert [compute_index_and_chain(auto).mu for auto in autos] == [2, 2, 1, 2, 3]

    def test_hand_checkable_index_1(self, index1_pair):
        chain = compute_index_and_chain(index1_pair)
        assert chain.mu == 1
        assert np.allclose(chain_projectors(chain)[0][0], np.diag([0.0, 1.0]), atol=1e-14)
        assert np.allclose(chain_matrices(chain)[0][1], np.diag([1.0, -1.0]), atol=1e-14)

    @pytest.mark.parametrize("blocks,expected", [([1, 1], 1), ([2], 2), ([3, 1], 3)])
    def test_canonical_indices(self, blocks, expected):
        auto, _ = canonical_auto(np.random.default_rng(expected), 3, blocks)
        assert compute_index_and_chain(auto).mu == expected


class TestMakeAdmissible:
    """The admissible correction :func:`decouple` applies to the raw chain's
    projectors."""

    def test_index_1_unchanged(self, index1_pair):
        chain = compute_index_and_chain(index1_pair)
        dec = decouple(chain)
        assert dec.R == (None,)
        assert np.array_equal(chain_projectors(dec)[0][0], chain_projectors(chain)[0][0])

    def test_rotating_masses_matches_worked_values(self, rotating_masses_auto):
        Q, _ = chain_projectors(decouple(compute_index_and_chain(rotating_masses_auto)))
        assert np.allclose(Q[0], EXPECTED_Q0, atol=1e-9)
        assert np.allclose(Q[1], EXPECTED_Q1, atol=1e-9)

    def test_keeps_raw_chain(self, rotating_masses_auto):
        raw = compute_index_and_chain(rotating_masses_auto)
        dec = decouple(raw)
        assert dec.raw is raw
        assert dec.mu == raw.mu == 2
        # the raw chain keeps its orthogonal projectors; only Q_1 is corrected
        assert dec.R[0] is None
        assert not np.array_equal(dec.R[1], raw.steps[1].K.T)

    @pytest.mark.parametrize("seed", range(10))
    def test_admissibility_on_random_index_2(self, seed):
        auto, _ = canonical_auto(np.random.default_rng(seed), 3, [2, 1])
        dec = decouple(compute_index_and_chain(auto))
        q0, q1 = chain_projectors(dec)[0]
        assert np.abs(q1 @ q0).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_admissibility_on_random_index_3(self, seed):
        auto, _ = canonical_auto(np.random.default_rng(100 + seed), 2, [3])
        dec = decouple(compute_index_and_chain(auto))
        Q, _ = chain_projectors(dec)
        for j in range(dec.mu):
            for i in range(j):
                assert np.abs(Q[j] @ Q[i]).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_corrected_projectors_still_project_onto_kernels(self, seed):
        auto, _ = canonical_auto(np.random.default_rng(200 + seed), 3, [3, 2])
        dec = decouple(compute_index_and_chain(auto))
        E, _ = chain_matrices(dec)
        for j, q in enumerate(chain_projectors(dec)[0]):
            scale = max(1.0, np.abs(E[j]).max())
            assert np.abs(E[j] @ q).max() <= 1e-8 * scale
            assert np.abs(q @ q - q).max() <= 1e-8 * max(1.0, np.abs(q).max() ** 2)


class TestChainProperties:
    @pytest.mark.parametrize("seed,blocks", [(0, [2]), (1, [2, 1]), (2, [3]), (3, [3, 2])])
    def test_stepdown_identities(self, seed, blocks):
        # E_{j+1} P_j = E_j and E_{j+1} Q_j = -A_j Q_j on admissible chains
        auto, _ = canonical_auto(np.random.default_rng(seed), 3, blocks)
        dec = decouple(compute_index_and_chain(auto))
        Q, P = chain_projectors(dec)
        E, A = chain_matrices(dec)
        for j in range(dec.mu):
            scale = max(1.0, np.abs(E[j + 1]).max())
            assert np.abs(E[j + 1] @ P[j] - E[j]).max() <= 1e-8 * scale
            assert np.abs(E[j + 1] @ Q[j] + A[j] @ Q[j]).max() <= 1e-8 * scale

    @pytest.mark.parametrize("seed,blocks", [(4, [2]), (5, [3, 1])])
    def test_telescoping_identity(self, seed, blocks):
        # A_mu = A_0 + sum of E_{j+1} Q_j, and A_mu is the decoupled source
        auto, _ = canonical_auto(np.random.default_rng(seed), 3, blocks)
        dec = decouple(compute_index_and_chain(auto))
        E, A = chain_matrices(dec)
        total = A[0].copy()
        for j, q in enumerate(chain_projectors(dec)[0]):
            total += E[j + 1] @ q
        scale = max(1.0, np.abs(A[dec.mu]).max())
        assert np.abs(total - A[dec.mu]).max() <= 1e-8 * scale
        source = dec._apply_source(np.eye(dec.n))  # A_mu', as apply_N applies it
        assert np.abs(source - A[dec.mu]).max() <= 1e-12 * scale


class TestDecouple:
    def test_rotating_masses_coefficients(self, rotating_masses_decoupled):
        N, couplings, _ = dense_forms(rotating_masses_decoupled)
        assert np.allclose(N[1], EXPECTED_N1, atol=1e-9)
        assert np.abs(N[2]).max() <= 1e-12
        assert np.allclose(N[3], EXPECTED_N3, atol=1e-9)
        assert np.allclose(couplings["L3"], EXPECTED_L3, atol=1e-9)

    def test_hand_checkable_index_1(self, index1_pair):
        dec = decouple(compute_index_and_chain(index1_pair))
        assert np.array_equal(dec._apply_source(np.eye(dec.n)), dec.raw.A.dense())
        N, couplings, _ = dense_forms(dec)
        assert np.allclose(N[1], np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(N[2], np.diag([0.0, -1.0]), atol=1e-14)
        assert couplings == {}

    @pytest.mark.parametrize(
        "seed,blocks,parts",
        [(0, [1, 1], 2), (1, [2, 1], 3), (2, [3], 4), (3, [3, 2, 1], 4)],
    )
    def test_partition_of_identity(self, seed, blocks, parts):
        auto, _ = canonical_auto(np.random.default_rng(300 + seed), 3, blocks)
        dec = decouple(compute_index_and_chain(auto))
        assert len(dec.projectors) == parts
        total = sum(dec.projectors.values())
        assert np.abs(total - np.eye(dec.n)).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_solution_matches_canonical_form(self, seed):
        # Psi-free check: reconstruct x(t) from subsystem maps and compare
        # with the exact canonical-form solution
        rng = np.random.default_rng(400 + seed)
        auto, ws = canonical_auto(rng, 3, [2, 1])
        dec = decouple(compute_index_and_chain(auto))
        N, _, maps = dense_forms(dec)
        x0 = ws.consistent_point(rng)
        times = np.linspace(0.0, 1.0, 6)
        exact = ws.exact_states(x0, times)
        from daereach.linalg import matrix_exponential

        x1_0 = dec.projectors[1] @ x0
        for t, reference in zip(times, exact):
            x1 = matrix_exponential(N[1], t) @ x1_0
            reconstructed = sum(m @ x1 for m in maps.values())
            assert np.abs(reconstructed - reference).max() <= 1e-8


def _stokes_auto():
    from daereach import load_model, to_autonomous

    system, inputs = load_model("builtin:stokes:4")
    return to_autonomous(system, inputs)


def _rotating_masses_auto():
    from daereach import build_rotating_masses, to_autonomous

    return to_autonomous(*build_rotating_masses())


@pytest.mark.parametrize("make_auto", [_stokes_auto, _rotating_masses_auto])
def test_certified_chain_keeps_only_the_matrices_it_factored(make_auto):
    chain = compute_index_and_chain(make_auto())
    assert chain.condition_bound is not None
    E_seq, A_seq = chain_sequences(chain)
    assert len(E_seq) == len(A_seq) == len(chain.steps) == chain.mu == 2


def _stokes_k_auto(k):
    from daereach import load_model, to_autonomous

    return to_autonomous(*load_model(f"builtin:stokes:{k}"))


@pytest.mark.parametrize(
    "corpus",
    [
        lambda: [_rotating_masses_auto()],
        lambda: [_stokes_k_auto(k) for k in (4, 8, 12)],
        lambda: [auto for _, _, auto, _ in semi_explicit_systems(2)],
        lambda: [auto for _, _, auto, _ in semi_explicit_systems(3)],
        lambda: [auto for _, _, auto, _ in random_systems(2)],
        lambda: [auto for _, _, auto, _ in random_systems(3)],
        lambda: [_nilpotent_auto(7)],
    ],
    ids=["rotating-masses", "stokes-4-8-12", "semi-2", "semi-3", "random-2", "random-3", "nilpotent-3"],
)
def test_chain_matrices_read_back_bit_equal_to_a_stored_chain(corpus):
    """The chain keeps only ``E``, ``A`` and its steps; the singular chain
    matrices replayed from them as dense arrays, ``E`` and ``A`` included
    (:func:`oracles.chain_sequences`), are bit for bit each matrix rebuilt
    from ``E`` and ``A`` through the steps before it, as the chain forms
    it (:func:`~daereach.decoupling._chain_rows`), and their bytes, with the
    kernel images, are those of a chain that stored every matrix it formed
    (:func:`oracles.stored_chain`)."""
    for number, auto in enumerate(corpus()):
        chain = compute_index_and_chain(auto)
        E, A, images = stored_chain(auto)
        assert chain.E is auto.E and chain.A is auto.A, number
        E_seq, A_seq = chain_sequences(chain)
        rebuilt = [
            [_chain_rows(X, chain.steps[:j]).dense() for j in range(chain.mu)]
            for X in (chain.E, chain.A)
        ]
        ours_images = [step.image for step in chain.steps]
        pairs = ((E_seq, E), (A_seq, A), (E_seq, rebuilt[0]), (A_seq, rebuilt[1]))
        for ours, theirs in (*pairs, (ours_images, images)):
            assert len(ours) == len(theirs) == chain.mu, number
            assert [a.tobytes() == b.tobytes() for a, b in zip(ours, theirs)] == [True] * chain.mu


@pytest.mark.parametrize(
    "corpus",
    [
        lambda: [auto for _, _, auto, _ in random_systems(1)],
        lambda: [auto for _, _, auto, _ in random_systems(2)],
        lambda: [auto for _, _, auto, _ in random_systems(3)],
        lambda: [_stokes_k_auto(k) for k in (4, 8, 12)],
        lambda: [_rotating_masses_auto()],
        lambda: [auto for index in (1, 2, 3) for _, _, auto, _ in semi_explicit_systems(index)],
        lambda: [_nilpotent_auto(7)],
    ],
    ids=["random-1", "random-2", "random-3", "stokes-4-8-12", "rotating-masses", "semi-1-2-3",
         "nilpotent-3"],
)
def test_decouple_never_corrects_q0(corpus):
    """:func:`decouple` keeps one correction per step and leaves ``R[0]``
    ``None``, the raw ``Q_0``, on every corpus; each later step at index 2
    and 3 takes a corrected ``m_j x n`` block ``R_j`` (index 1 corrects
    nothing)."""
    for number, auto in enumerate(corpus()):
        dec = decouple(compute_index_and_chain(auto))
        assert len(dec.R) == dec.mu and dec.R[0] is None, number
        for step, R in zip(dec.raw.steps[1:], dec.R[1:]):
            assert R.shape == (step.K.shape[1], dec.n), number


class TestFactorizationCounts:
    """At most one ``n x n`` SVD per singular chain matrix and no LU solve.

    The dense random systems (``n`` below the QR crossover) and the rotating
    masses take one ``n x n`` SVD per singular raw chain matrix: 1, 2 and 3
    at indices 1, 2 and 3.  Stokes takes none: ``E_0 = diag(I, 0)`` factors
    in closed form and ``E_1``, which has exactly-zero rows, by certified
    QR.  The terminal raw matrix is certified nonsingular from the previous
    matrix's factors, which costs one ``m x m`` LU per chain step after
    ``E_0`` and no SVD, so every SVD is an ``n x n`` one and the count of
    SVDs is exact.  A singular step whose small block is too small for the
    bound to pass declines before that LU: Stokes ``E_1`` (block exactly 0)
    and one step of the index-3 system here.  The admissible correction
    takes no factorization at any index (see
    :func:`test_make_admissible_factors_nothing`), the reach path's blocks
    take none, and no regularity probe runs: a chain that ends proves the
    pencil regular.
    """

    @pytest.mark.parametrize(
        "make_auto, index, full_svds, solves",
        [
            (lambda: canonical_auto(np.random.default_rng(71), 3, [1, 1])[0], 1, 1, 0),
            (lambda: canonical_auto(np.random.default_rng(72), 3, [2, 1])[0], 2, 2, 0),
            (lambda: canonical_auto(np.random.default_rng(73), 3, [3, 1])[0], 3, 3, 0),
            (_stokes_auto, 2, 0, 0),
            (_rotating_masses_auto, 2, 2, 0),
        ],
        ids=["index-1", "index-2", "index-3", "stokes-4", "rotating-masses"],
    )
    def test_decouple_system_factorizations(
        self, monkeypatch, make_auto, index, full_svds, solves
    ):
        from daereach import StarSet, check_initial_star, decouple_system

        auto = make_auto()
        box = np.vstack([np.eye(2), -np.eye(2)])
        star = StarSet(np.ones((auto.n, 2)), box, np.ones(4))
        counts = {"svd": 0, "full_svd": 0, "solve": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                if key == "svd" and np.shape(args[0]) == (auto.n, auto.n):
                    counts["full_svd"] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        dec = decouple_system(auto)
        # what the reach path reads: the consistency check, the frame and the lift
        check_initial_star(dec, star)
        dec.lift
        assert dec.mu == index
        assert dec.raw.condition_bound is not None
        assert counts["full_svd"] == counts["svd"] == full_svds
        assert counts["solve"] <= solves

    @pytest.mark.parametrize("k", [4, 8, 12, 16])
    def test_stokes_chain_takes_no_qr_and_no_svd(self, monkeypatch, k):
        """The Stokes chain factors ``E_0`` in closed form, ``E_1`` by the
        Cholesky factor of its ``m x m`` kernel Gram matrix (no QR, and no
        ``p x p`` factorization: the row space comes from it by Woodbury),
        and certifies ``E_2`` through one inverse of the ``m x m`` block."""
        import daereach.linalg
        from daereach import load_model, to_autonomous

        auto = to_autonomous(*load_model(f"builtin:stokes:{k}"))
        shapes = {"qr": [], "svd": [], "cholesky": [], "general_inverse": []}

        def recording(name, fn):
            def wrapped(a, *args, **kwargs):
                shapes[name].append(np.shape(a))
                return fn(a, *args, **kwargs)

            return wrapped

        for name in ("qr", "svd", "cholesky"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        inverse = recording("general_inverse", daereach.linalg.general_inverse)
        monkeypatch.setattr(daereach.linalg, "general_inverse", inverse)
        chain = compute_index_and_chain(auto)
        assert [d["method"] for d in chain.decisions] == ["diagonal", "gram", "certificate"]
        assert shapes["qr"] == [] and shapes["svd"] == []
        m = chain.steps[1].K.shape[1]
        assert shapes["cholesky"] == [(m, m)]
        assert shapes["general_inverse"] == [(m, m)] and m < auto.n

    def test_exponential_is_taken_at_ode_rank(self, monkeypatch):
        import daereach.reachability
        from daereach import ReachSettings, compute_reach
        from oracles import box_star

        auto = _stokes_auto()
        dec = reference_decoupled(auto)
        r = round(np.trace(dec.projectors[1]))
        star = box_star(np.random.default_rng(4), dec.gamma, auto.n, 2)
        shapes = []

        def recording(M, t=1.0):
            shapes.append(np.shape(M))
            return daereach.linalg.matrix_exponential(M, t)

        monkeypatch.setattr(daereach.reachability, "matrix_exponential", recording)
        reach = compute_reach(auto, star, ReachSettings(1e-3, 5))
        assert 0 < r < auto.n
        assert shapes == [(r, r)]
        assert reach.ode_coordinates.shape == (6, r, 2)


def _relative_error(ours, reference):
    return np.abs(ours - reference).max() / max(1.0, np.abs(reference).max())


def _certified_margin(raw, auto):
    """Check the certified raw chain against the full-SVD reference chain:
    the same index, a chain ended by the certificate, every singular step
    declined, and terminal inverses within 1e-10 relative.  Returns the
    margin ``condition_bound * rank_rel_tol`` (below 1/2 when accepted)."""
    E, _, _, _, mu = reference_chain(auto)
    assert raw.mu == mu
    assert raw.condition_bound is not None
    E_seq = chain_sequences(raw)[0]
    for j in range(1, mu):  # E_j is singular: the certificate must decline it
        inverse, _ = rank_update_inverse(svd_factors(E_seq[j - 1]), raw.steps[j - 1].image)
        assert inverse is None, j
    reference = np.linalg.solve(E[mu], np.eye(auto.n))
    assert _relative_error(raw.terminal_inverse, reference) <= 1e-10
    return raw.condition_bound * RANK_REL_TOL


def frame_errors(dec, reference, V):
    """Relative errors of the factored reach-path blocks against the dense
    reference, each invariant to the choice of the frame ``W``: ``Pi W``
    (equal to ``W``), the reduced matrix ``W^T N[1] W``, the lift ``psi W``
    and the consistency check's lift residual ``psi W W^T Pi V - V``."""
    W = dec.ode_basis
    assert W.shape[1] == dec.ode_rank == round(np.trace(reference.projectors[1]))
    return {
        "Pi W": _relative_error(dec.ode_component(W), reference.projectors[1] @ W),
        "W^T N1 W": _relative_error(dec.ode_matrix, W.T @ reference.N[1] @ W),
        "psi W": _relative_error(dec.lift, reference.psi @ W),
        "psi W W^T Pi V - V": _relative_error(
            dec.lift @ (W.T @ dec.ode_component(V)) - V,
            reference.psi @ reference.projectors[1] @ V - V,
        ),
    }


def random_systems(index):
    """``(seed, rng, auto, ws)`` for the 100 random canonical systems of an
    index; ``rng`` continues from the draws that built the system."""
    for seed in range(index - 1, 300, 3):
        rng = np.random.default_rng(seed)
        blocks = [index] + list(rng.integers(1, index + 1, size=rng.integers(0, 3)))
        auto, ws = canonical_auto(rng, int(rng.integers(1, 5)), blocks)
        yield seed, rng, auto, ws


def semi_explicit_systems(index):
    """``(seed, rng, auto, ws)`` for 20 random semi-explicit systems of an
    index, ``n`` from 20 up."""
    for seed in range(20):
        rng = np.random.default_rng(1000 * index + seed)
        blocks = [index] + list(rng.integers(1, index + 1, size=rng.integers(1, 4)))
        auto, ws = _semi_explicit_auto(rng, int(rng.integers(20, 28)), blocks)
        yield seed, rng, auto, ws


@pytest.mark.parametrize("index", [1, 2, 3])
def test_decoupling_matches_reference_path(index):
    """100 random canonical systems per index: the certified terminal step
    against a chain that takes a full SVD of every matrix, the
    swapped-projector chain against LU inverses and a rank-checked rebuilt
    chain, and the factored operator (dense and on the thin reach-path
    blocks) against the coefficients multiplied out densely."""
    worst_margin = 0.0
    for seed, rng, auto, ws in random_systems(index):
        raw = compute_index_and_chain(auto)
        worst_margin = max(worst_margin, _certified_margin(raw, auto))
        ours = decouple(raw)
        V = np.column_stack([ws.consistent_point(rng), rng.normal(size=auto.n)])
        _matches_reference(ours, auto, V, index, seed)
    print(f"\nindex {index}: worst bound * rank_rel_tol {worst_margin:.2e}")


def _matches_reference(ours, auto, V, index, label):
    """``ours`` against :func:`oracles.reference_decoupled` of ``auto``: the
    index, the dense coefficients, projectors and couplings and the
    reach-path blocks on ``V`` within 1e-10 relative, and residuals of the
    frame's terminal solve and of the whole terminal inverse of at most
    1e-12."""
    reference = reference_decoupled(auto)
    assert ours.mu == reference.mu == index, label
    N, couplings, _ = dense_forms(ours)
    pairs = [(N[i], reference.N[i]) for i in reference.N]
    pairs += [(ours.projectors[i], reference.projectors[i]) for i in reference.projectors]
    expected = {key: getattr(reference, key) for key in ("L3", "L4", "Z4")}
    expected = {key: value for key, value in expected.items() if value is not None}
    assert couplings.keys() == expected.keys(), label
    pairs += [(couplings[key], expected[key]) for key in expected]
    assert max(_relative_error(a, r) for a, r in pairs) <= 1e-10, label
    assert max(frame_errors(ours, reference, V).values()) <= 1e-10, label
    assert ours.solve_residual <= 1e-12 and ours.inverse_residual <= 1e-12, label


def _nilpotent_auto(blocks):
    """``blocks`` nilpotent ``N_3`` blocks with ``A = I`` beside a 2-state
    oscillator: an index-3 system of ``n = 2 + 3 blocks`` whose chain
    factors ``E_0`` in closed form, ``E_1`` by Gram factors and ``E_2`` by
    QR, and certifies ``E_3`` from the QR's row-gather factors."""
    n = 2 + 3 * blocks
    E, A = np.eye(n), np.eye(n)
    A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    for start in range(2, n, 3):
        E[start : start + 3, start : start + 3] = np.diag([1.0, 1.0], 1)
    return AutonomousDae(E, A)


def test_index_3_from_row_gather_blocks():
    """At index 3 from the certificate's row-gather blocks, :func:`decouple`
    keeps both corrections as blocks, with no ``n x n`` array, and matches
    the dense reference path."""
    auto = _nilpotent_auto(7)
    raw = compute_index_and_chain(auto)
    assert auto.n == 23
    assert [d["method"] for d in raw.decisions] == ["diagonal", "gram", "qr", "certificate"]
    blocks = raw.inverse
    assert blocks.c_inv is not None and blocks.B is None
    _certified_margin(raw, auto)
    ours = decouple(raw)
    # taken, and kept as corrected blocks: no n x n inverse is formed
    assert raw.inverse is None and ours.inverse.left is blocks.left and ours.inverse.B is None
    assert len(ours.inverse.terms) == 2 and not square_arrays(ours.inverse, auto.n)
    rng = np.random.default_rng(23)
    V = np.column_stack([ours.lift @ rng.normal(size=ours.ode_rank), rng.normal(size=auto.n)])
    _matches_reference(ours, auto, V, 3, "nilpotent")


def _semi_explicit_auto(rng, dynamic_dim, blocks):
    ws = CanonicalDae(rng, dynamic_dim, blocks, semi_explicit=True)
    return AutonomousDae(ws.E, ws.A), ws


@pytest.mark.parametrize("index", [1, 2, 3])
def test_semi_explicit_systems_factor_by_qr(index):
    """20 random semi-explicit systems per index, ``n`` above the QR
    crossover: ``E_0`` keeps exactly-zero rows, so the certified QR decides
    it, and the chain, its terminal inverse and the reach-path blocks match
    the full-SVD reference path."""
    for seed, rng, auto, ws in semi_explicit_systems(index):
        assert auto.n >= _QR_MIN_N
        raw = compute_index_and_chain(auto)
        E, _, Q, _, mu = reference_chain(auto)
        assert raw.decisions[0]["method"] == "qr", seed
        assert raw.mu == mu == index, seed
        ours = chain_projectors(raw)[0]
        assert max(_relative_error(mine, ref) for mine, ref in zip(ours, Q)) <= 1e-10, seed
        reference_inverse = np.linalg.solve(E[mu], np.eye(auto.n))
        assert _relative_error(raw.terminal_inverse, reference_inverse) <= 1e-10, seed
        reference = reference_decoupled(auto)
        V = np.column_stack([ws.consistent_point(rng), rng.normal(size=auto.n)])
        errors = frame_errors(decouple(raw), reference, V)
        assert max(errors.values()) <= 1e-10, seed


def test_index_1_system_with_diagonal_E_is_certified_from_the_closed_form():
    """A row- and column-permuted ``E = diag(d, 0)`` with signed ``d``: the
    closed form decides ``E_0`` and the certificate inverts ``E_1`` from it
    by scattering ``T^{-1}``."""
    rng = np.random.default_rng(5)
    n, p = 30, 21
    d = rng.choice([-1.0, 1.0], size=p) * 10.0 ** rng.uniform(-3, 3, size=p)
    E = np.zeros((n, n))
    E[:p, :p] = np.diag(d)
    E = E[rng.permutation(n)][:, rng.permutation(n)]
    auto = AutonomousDae(E, rng.normal(size=(n, n)))
    raw = compute_index_and_chain(auto)
    assert [x["method"] for x in raw.decisions] == ["diagonal", "certificate"]
    assert raw.mu == reference_chain(auto)[4] == 1
    K = raw.steps[0].K
    E1 = E - (auto.A @ K) @ K.T
    assert _relative_error(raw.terminal_inverse, np.linalg.inv(E1)) <= 1e-10


def _svd_decides(auto):
    """``E_0`` has a zero row and ``n`` above the crossover, yet its own SVD
    decides it, with the reference's index."""
    assert auto.n >= _QR_MIN_N and not auto.E.dense().any(axis=1).all()
    raw = compute_index_and_chain(auto)
    assert raw.decisions[0]["method"] == "svd"
    assert raw.mu == reference_chain(auto)[4] == 2
    return raw


def test_duplicated_nonzero_row_takes_the_svd():
    # adding a nonzero row to a zero row (of E and A alike) keeps the pencil
    # and its index, and leaves M two equal rows: rank deficient
    auto, _ = _semi_explicit_auto(np.random.default_rng(31), 22, [2, 2, 1])
    E, A = auto.E.dense().copy(), auto.A.dense().copy()
    nonzero = E.any(axis=1)
    source, target = np.flatnonzero(nonzero)[0], np.flatnonzero(~nonzero)[0]
    E[target] = E[source]
    A[target] += A[source]
    raw = _svd_decides(AutonomousDae(E, A))
    assert raw.decisions[0]["dropped"] <= RANK_REL_TOL


def test_bound_in_the_margin_band_takes_the_svd():
    # scaling one nonzero row by 1e-8 leaves M full rank at the cutoff
    # (s_p / s_1 = 3.4e-9) while ||L||_F ||L^{-1}||_F = 7.0e8 is above
    # 1 / (CERTIFICATE_MARGIN * rank_rel_tol) = 5e8
    auto, _ = _semi_explicit_auto(np.random.default_rng(7), 22, [2, 2, 1])
    E, A = auto.E.dense(), auto.A.dense()
    rows = np.flatnonzero(E.any(axis=1))
    scale = np.ones(auto.n)
    scale[rows[0]] = 1e-8
    auto = AutonomousDae(scale[:, None] * E, scale[:, None] * A)
    R = np.linalg.qr(auto.E.dense()[rows].T)[1]
    bound = np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R))
    cutoff = RANK_REL_TOL
    assert 1.0 / (CERTIFICATE_MARGIN * cutoff) <= bound
    raw = _svd_decides(auto)
    assert raw.steps[0].K.shape[1] == auto.n - rows.size
    assert raw.decisions[0]["kept"] > cutoff


@pytest.mark.parametrize("k", [4, 8, 12])
def test_certified_chain_matches_full_svd_chain_on_stokes(k):
    from daereach import load_model, to_autonomous

    auto = to_autonomous(*load_model(f"builtin:stokes:{k}"))
    margin = _certified_margin(compute_index_and_chain(auto), auto)
    print(f"\nstokes k={k}: bound * rank_rel_tol {margin:.2e}")


@pytest.mark.parametrize("k", [4, 8, 12, 16])
def test_stokes_gram_factors_agree_with_the_qr(monkeypatch, k):
    """The Stokes pipeline with ``E_1``'s Gram factors against the same
    pipeline with the QR forced: the same index and terminal bound (to
    1e-12 relative), and terminal inverses and reach bases within
    ``condition_bound * 2^-53`` of their largest entry, the rounding a
    change of ``E_1``'s orthonormal bases may move them by."""
    import daereach.linalg
    from daereach import ReachSettings, StarSet, compute_reach, load_model, to_autonomous

    auto = to_autonomous(*load_model(f"builtin:stokes:{k}"))
    settings = ReachSettings(1e-4, 20)

    def run(star):
        raw_inverse = compute_index_and_chain(auto).terminal_inverse  # before decouple takes it
        reach = compute_reach(auto, star, settings)
        return reach.decoupled, raw_inverse, reach.bases

    lift = decouple(compute_index_and_chain(auto)).lift
    V = lift @ np.random.default_rng(k).normal(size=(lift.shape[1], 2))  # a consistent star
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    gram, gram_raw_inverse, gram_bases = run(star)
    with monkeypatch.context() as patch:
        patch.setattr(daereach.linalg, "_gram_factors", lambda *args: None)
        qr, qr_raw_inverse, qr_bases = run(star)
    assert [d["method"] for d in gram.raw.decisions] == ["diagonal", "gram", "certificate"]
    assert [d["method"] for d in qr.raw.decisions] == ["diagonal", "qr", "certificate"]
    assert gram.mu == qr.mu == 2 and gram.ode_rank == qr.ode_rank
    bound = gram.raw.condition_bound
    assert bound == pytest.approx(qr.raw.condition_bound, rel=1e-12, abs=0.0)
    pairs = {
        "raw terminal inverse": (gram_raw_inverse, qr_raw_inverse),
        "terminal inverse": (gram.terminal_inverse, qr.terminal_inverse),
        "reach bases": (gram_bases, qr_bases),
    }
    errors = {key: np.abs(a - b).max() / np.abs(b).max() for key, (a, b) in pairs.items()}
    assert max(errors.values()) <= bound * 2.0**-53, errors


def _fused_against_dense(monkeypatch, auto, raw, unsafe, settings, seed):
    """Decouple the index-2 chain ``raw`` of ``auto`` and check it against
    the dense correction of :func:`oracles.dense_correction`, taken from the
    raw chain's on-read inverse before :func:`decouple` takes its blocks and
    corrects them in place; the oracle applies its ``A_2'`` from its own
    ``R`` as the package does.  ``R``, the corrected inverse and the reach
    bases of one consistent star must agree within
    ``condition_bound * 2^-53`` of their largest entry, and the consistency
    and safety verdicts must be the same.  The row-block
    residual must equal the dense ``max|E_2' X - I|`` of the corrected
    inverse ``X``, and be no larger than the oracle's, both within the
    rounding bound of :func:`oracles.dense_residual`."""
    import daereach.reachability
    from daereach import StarSet, compute_reach, verify

    assert raw.mu == 2
    R_dense, X_dense = dense_correction(raw)
    ours = decouple(raw)
    R, image, E_1 = ours.R[1], raw.steps[1].image, chain_sequences(raw)[0][1]
    oracle = dataclasses.replace(ours, R=(None, R_dense), inverse=InverseBlocks(X_dense))
    lift = ours.lift
    V = lift @ np.random.default_rng(seed).normal(size=(lift.shape[1], 2))
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    runs = {}
    for name, dec in (("fused", ours), ("dense", oracle)):
        monkeypatch.setattr(daereach.reachability, "decouple_system", lambda _, dec=dec: dec)
        reach = compute_reach(auto, star, settings)
        runs[name] = (reach.certificate.consistent, verify(reach, unsafe).status), reach.bases
    monkeypatch.undo()
    assert runs["fused"][0] == runs["dense"][0]
    pairs = {
        "R": (R, R_dense),
        "corrected inverse": (ours.terminal_inverse, X_dense),
        "reach bases": (runs["fused"][1], runs["dense"][1]),
    }
    errors = {key: np.abs(a - b).max() / np.abs(b).max() for key, (a, b) in pairs.items()}
    assert max(errors.values()) <= raw.condition_bound * 2.0**-53, errors
    dense, rounding = dense_residual(E_1 - image @ R, ours.terminal_inverse)
    assert abs(ours.inverse_residual - dense) <= rounding
    oracle_residual, rounding = dense_residual(E_1 - image @ R_dense, X_dense)
    assert ours.inverse_residual <= oracle_residual + rounding
    return ours, oracle_residual


@pytest.mark.parametrize(
    "k, factors", [(4, "gram"), (8, "gram"), (8, "qr"), (12, "gram"), (16, "gram")]
)
def test_stokes_fused_correction_matches_the_dense_one(monkeypatch, k, factors):
    """On Stokes, ``E_2^{-1}`` is kept as the certificate's blocks from
    ``E_1``'s Gram factors (or, with the Gram path refused, its QR), and
    :func:`decouple` keeps the corrected inverse as blocks, with no ``K^T
    E_2^{-1}`` product and no ``n x n`` array; this matches the dense
    correction."""
    import daereach.linalg
    from daereach import UnsafeSpec, load_model, stokes_center_velocity_rows, to_autonomous

    auto = to_autonomous(*load_model(f"builtin:stokes:{k}"))
    direction = np.zeros((1, auto.n))
    direction[0, list(stokes_center_velocity_rows(k))] = -1.0
    unsafe = UnsafeSpec(direction, [-5.0], on_original_state=False)
    if factors == "qr":
        monkeypatch.setattr(daereach.linalg, "_gram_factors", lambda *args: None)
    raw = compute_index_and_chain(auto)
    assert [d["method"] for d in raw.decisions] == ["diagonal", factors, "certificate"]
    blocks = raw.inverse
    assert blocks.c_inv is not None and blocks.B is None  # row-gather blocks, not a dense inverse
    ours, oracle_residual = _fused_against_dense(
        monkeypatch, auto, raw, unsafe, ReachSettings(1e-4, 20), k
    )
    # taken, and kept as corrected blocks: no n x n inverse is formed
    assert raw.inverse is None and ours.inverse.left is blocks.left and ours.inverse.B is None
    assert not square_arrays(ours.inverse, auto.n)
    print(f"\nstokes k={k} {factors}: residual {ours.inverse_residual:.1e}, "
          f"dense {oracle_residual:.1e}, solve {ours.solve_residual:.1e}")


def test_semi_explicit_correction_matches_the_dense_one(monkeypatch):
    """The 20 random semi-explicit index-2 systems (``E_0`` by QR, the
    terminal matrix certified from ``E_1``'s SVD, so its inverse is dense):
    :func:`decouple` corrects the dense inverse in place through the
    products ``K^T E_2^{-1}``, and matches the oracle's."""
    from daereach import UnsafeSpec

    for seed, _, auto, _ in semi_explicit_systems(2):
        raw = compute_index_and_chain(auto)
        assert [d["method"] for d in raw.decisions] == ["qr", "svd", "certificate"], seed
        blocks = raw.inverse
        assert blocks.left is None and blocks.c_inv is None, seed
        direction = np.zeros((1, auto.n))
        direction[0, 0] = 1.0
        unsafe = UnsafeSpec(direction, [0.0], on_original_state=False)
        ours, _ = _fused_against_dense(
            monkeypatch, auto, raw, unsafe, ReachSettings(1e-3, 20), seed
        )
        assert raw.inverse is None and ours.inverse.B is blocks.B, seed  # corrected in place


@pytest.mark.parametrize(
    "make_auto",
    [lambda: _stokes_k_auto(4), lambda: _stokes_k_auto(8), lambda: _stokes_k_auto(12),
     lambda: _nilpotent_auto(7)],
    ids=["stokes-4", "stokes-8", "stokes-12", "nilpotent-3"],
)
def test_closed_form_first_step_leaves_exact_zeros(make_auto):
    """What the chain, the frame and the solve check skip after a
    closed-form ``E_0`` with kernel columns ``c_0``: ``A_1[:, c_0]`` is
    exactly zero and ``E_1[:, c_0]`` is ``0 - A_0[:, c_0]`` bit for bit, so
    ``A_1``'s rows store nothing there and ``A_1 K_1`` reads only ``A``'s
    other columns; ``W[c_0]`` is exactly zero, with ``W`` orthonormal and
    ``Pi W = W`` to rounding, so ``A_mu' W`` drops ``(A_0 K_0)(W[c_0])``;
    and the solve check, which takes ``K_0^T X`` as the rows ``c_0`` of
    ``X``, gives the bytes of the residual taken through the dense
    ``K_0^T``."""
    auto = make_auto()
    chain = compute_index_and_chain(auto)
    columns = chain.steps[0].columns
    assert chain.decisions[0]["method"] == "diagonal" and chain.steps[1].columns is None
    E_seq, A_seq = chain_sequences(chain)
    E_1, A_1 = E_seq[1], A_seq[1]
    assert not A_1[:, columns].any()
    assert E_1[:, columns].tobytes() == (0.0 - auto.A.dense()[:, columns]).tobytes()  # +0.0
    dec = decouple(chain)
    W = dec.ode_basis
    assert not W[columns].any()
    assert np.abs(W.T @ W - np.eye(dec.ode_rank)).max() <= 1e-13
    assert np.abs(dec.ode_component(W) - W).max() <= 1e-12 * max(1.0, np.abs(W).max())
    # the same system with K_0 taken as a dense basis in the solve check
    dense_steps = [chain.steps[0]._replace(columns=None), *chain.steps[1:]]
    dense_raw = dataclasses.replace(chain, steps=dense_steps)
    dense_dec = dataclasses.replace(dec, raw=dense_raw)
    Y = np.column_stack([dec._apply_source(W), np.random.default_rng(4).normal(size=auto.n)])
    ours, dense = dec._checked_solve(Y), dense_dec._checked_solve(Y)
    assert ours[0].tobytes() == dense[0].tobytes()
    assert ours[1] == dense[1] <= 1e-10


def _chain_and_decouple_peak(auto):
    """The traced peak of :func:`compute_index_and_chain` followed by
    :func:`decouple`, from before the chain, in ``n x n`` arrays
    (``tracemalloc``, which numpy reports to; the system's own ``E`` and
    ``A`` were made before, and a first chain takes the first-call imports
    and caches)."""
    compute_index_and_chain(auto)
    tracemalloc.start()
    try:
        decouple(compute_index_and_chain(auto))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * auto.n**2)


def test_chain_peak_memory_on_stokes_12():
    """:func:`compute_index_and_chain` on Stokes ``k = 12`` holds at most 4
    ``n x n`` arrays at once (``tracemalloc``, which numpy reports to; the
    system's own ``E`` and ``A`` were made before): the Gram factors of
    ``E_1`` keep no ``n x n`` ``W`` and no ``p x p`` factor, and the
    certificate keeps ``C^{-1}`` and ``t = lead^{-1} top C^{-1}`` with them
    and forms no ``n x n`` inverse.  Gram factors with the dense ``W``
    measured 5.8, and a certificate that formed ``B = W T^{-1}`` 4.79."""
    from daereach import load_model, to_autonomous

    auto = to_autonomous(*load_model("builtin:stokes:12"))
    compute_index_and_chain(auto)  # first-call imports and caches are not the run's
    tracemalloc.start()
    try:
        chain = compute_index_and_chain(auto)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * auto.n**2)
    print(f"\ncompute_index_and_chain peak: {arrays:.2f} n x n arrays")
    assert chain.mu == 2
    assert arrays <= 4.0


def test_decouple_peak_memory_on_stokes_12():
    """The chain followed by :func:`decouple` holds at most 3.93 ``n x n``
    arrays at once, traced from before the chain (it reads 2.98 at
    ``decouple``, and read 3.21 while the certificate's blocks kept the Gram
    factors, and their ``V``, alive until ``decouple``; the chain's own peak
    is 2.72): ``decouple`` keeps the corrected
    inverse as the certificate's blocks and one ``m x n`` coefficient block,
    and forms no ``n x n`` array, no ``E_2'`` and no ``A_2'``.  A chain that
    formed the uncorrected ``B`` and a ``decouple`` that corrected it in
    place measured 4.79, and one that formed the corrected inverse from the
    blocks and checked it a block of rows at a time, 3.93."""
    from daereach import load_model, to_autonomous

    arrays = _chain_and_decouple_peak(to_autonomous(*load_model("builtin:stokes:12")))
    print(f"\nchain and decouple peak: {arrays:.2f} n x n arrays")
    assert arrays <= 3.93


def _decouple_peak(auto):
    """The traced peak of :func:`decouple` alone, from after the chain, in
    ``n x n`` arrays: what it forms above the arrays the chain holds."""
    decouple(compute_index_and_chain(auto))  # first-call imports and caches
    chain = compute_index_and_chain(auto)
    tracemalloc.start()
    try:
        decouple(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * auto.n**2)


def large_semi_explicit_systems():
    """Five random semi-explicit index-2 systems of ``n`` from 160 to 200,
    whose ``E_0`` takes the certified QR and ``E_1`` the SVD: large enough
    that one ``n x n`` array (about 0.2-0.3 MB) outweighs the interpreter's
    objects in a traced peak."""
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        dynamic_dim = int(rng.integers(100, 120))
        blocks = [2] + list(rng.integers(1, 3, size=int(rng.integers(30, 60))))
        yield _semi_explicit_auto(rng, dynamic_dim, blocks)[0]


def test_decouple_peak_memory_on_svd_index_2_and_row_gather_index_3():
    """The chain followed by :func:`decouple`, traced from before the chain,
    on SVD-path index-2 semi-explicit systems of ``n`` about 200: at most
    7.00 ``n x n`` arrays (the worst was 6.998, at the chain's own SVDs),
    and ``decouple`` alone, from after the chain, at most 1.29 (worst
    1.2861), so a ``decouple`` that keeps one more ``n x n`` array fails.
    At index 3 on 100 nilpotent blocks (``n = 302``), at most 6.08 from
    before the chain (5.968, the chain's own peak), where ``decouple``
    copies the QR's ``W_1`` out of its ``W`` and drops ``W`` before it
    corrects, and keeps the corrected inverse as blocks; the QR factors
    keep a copy of their ``p x p`` lead block, not the ``n x p`` ``R``
    behind it (6.547 with ``R``).  A ``decouple`` that wrote the corrected
    inverse over the QR's ``W`` read 6.326, and one that kept the blocks
    but copied ``W_1`` only once they were corrected, 6.55."""
    systems = list(large_semi_explicit_systems())
    methods = [[d["method"] for d in compute_index_and_chain(auto).decisions] for auto in systems]
    assert methods == [["qr", "svd", "certificate"]] * len(systems)
    worst = max(_chain_and_decouple_peak(auto) for auto in systems)
    own = max(_decouple_peak(auto) for auto in systems)
    index_3 = _chain_and_decouple_peak(_nilpotent_auto(100))
    print(f"\nSVD index 2: chain and decouple {worst:.4f}, decouple {own:.4f}; "
          f"index 3: chain and decouple {index_3:.3f} n x n arrays")
    assert worst <= 7.00 and own <= 1.29 and index_3 <= 6.08


@pytest.mark.parametrize("model", ["builtin:rotating-masses", "builtin:stokes:8"])
def test_non_finite_terminal_inverse_fails_the_residual_check(model):
    """A NaN in the chain's terminal inverse (dense, or the certificate's
    block ``C^{-1}``) makes the residual of the frame's solve NaN, and the
    check raises when the lift is read, caching nothing; the full check at
    ``Y = I`` raises too."""
    from daereach import SingularMatrixError, load_model, to_autonomous

    chain = compute_index_and_chain(to_autonomous(*load_model(model)))
    block = chain.inverse.c_inv if chain.inverse.B is None else chain.inverse.B
    block[block.shape[0] // 2, 1] = np.nan
    dec = decouple(chain)
    with pytest.raises(SingularMatrixError, match="residual nan"):
        dec.lift
    assert not {"lift", "ode_matrix", "solve_residual"} & set(vars(dec))
    with pytest.raises(SingularMatrixError, match="residual nan"):
        dec.inverse_residual


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("block", ["Z", "C^-1"])
def test_corruption_the_solve_reads_fails_on_the_reach_path(monkeypatch, k, block):
    """A rank-one corruption of the corrected inverse's block ``Z`` in a
    direction that ``Y = A_mu' W`` reaches, or of the certificate's
    ``C^{-1}`` by ``1e-3`` of its largest entry, fails the frame's solve
    check: reading the lift or ``compute_reach`` raises."""
    import daereach.reachability
    from daereach import SingularMatrixError, StarSet, compute_reach

    auto = _stokes_k_auto(k)
    good = decouple(compute_index_and_chain(auto))
    lift = good.lift
    V = lift @ np.random.default_rng(k).normal(size=(lift.shape[1], 2))
    star = StarSet(V, np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    if block == "Z":
        bad = corrupt_solve_block(good, reached=True)
    else:
        chain = compute_index_and_chain(auto)
        c_inv = chain.inverse.c_inv
        rng = np.random.default_rng(k)
        u, v = rng.normal(size=(2, c_inv.shape[0]))
        c_inv += 1e-3 * np.abs(c_inv).max() * np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        bad = decouple(chain)
    with pytest.raises(SingularMatrixError, match="terminal solve has residual"):
        bad.lift
    monkeypatch.setattr(daereach.reachability, "decouple_system", lambda _: dataclasses.replace(bad))
    with pytest.raises(SingularMatrixError, match="terminal solve has residual"):
        compute_reach(auto, star, ReachSettings(1e-4, 5))


@pytest.mark.parametrize("k", [4, 8, 12])
def test_corruption_the_solve_does_not_read_fails_only_the_full_check(k):
    """The check reads only the ``r`` columns the verdict rests on: a
    rank-one corruption ``u v^T`` of the block ``Z`` with ``v^T Y = 0``, ``Y
    = A_mu' W``, leaves the frame's solve, its residual and the lift as
    they were up to rounding, and fails only the full check of
    ``inverse_residual`` at ``Y = I``, which ``--mode decouple`` reads."""
    from daereach import SingularMatrixError

    good = decouple(compute_index_and_chain(_stokes_k_auto(k)))
    bad = corrupt_solve_block(good, reached=False)
    assert bad.solve_residual <= 1e-12
    bound = good.raw.condition_bound * 2.0**-53
    assert np.abs(bad.lift - good.lift).max() <= bound * np.abs(good.lift).max()
    assert good.inverse_residual <= 1e-10
    with pytest.raises(SingularMatrixError, match="terminal solve has residual"):
        bad.inverse_residual


@pytest.mark.parametrize("model", ["builtin:rotating-masses", "builtin:stokes:4"])
def test_terminal_inverses_share_no_memory_with_the_blocks(model):
    """``chain.terminal_inverse`` and ``dec.terminal_inverse`` are new
    arrays: one read before :func:`decouple` corrects the blocks in place
    keeps its values, and writing into the decoupled system's does not
    change its operator."""
    from daereach import load_model, to_autonomous

    chain = compute_index_and_chain(to_autonomous(*load_model(model)))
    early = chain.terminal_inverse
    kept = early.copy()
    dec = decouple(chain)
    assert np.array_equal(early, kept)
    identity = np.eye(dec.n)
    N = dec.apply_N(identity)
    dec.terminal_inverse[...] = np.nan
    assert all(np.array_equal(a, N[i]) for i, a in dec.apply_N(identity).items())


def test_a_chain_decouples_once():
    """:func:`decouple` takes the chain's terminal inverse and corrects it in
    place: an inverse read before keeps its values, and a second
    :func:`decouple` or a later ``terminal_inverse`` raises, leaving the
    decoupled system as it was."""
    from daereach import load_model, to_autonomous

    chain = compute_index_and_chain(to_autonomous(*load_model("builtin:stokes:8")))
    early = chain.terminal_inverse
    kept = early.copy()
    dec = decouple(chain)
    assert chain.inverse is None
    assert np.array_equal(early, kept)
    corrected = dec.terminal_inverse
    with pytest.raises(ValueError, match="decouple took this chain's terminal inverse"):
        decouple(chain)
    with pytest.raises(ValueError, match="decouple took this chain's terminal inverse"):
        chain.terminal_inverse
    assert np.array_equal(dec.terminal_inverse, corrected)


def _row_masks_match_dense_products(monkeypatch, dec):
    """The operator blocks, the frame's ``ode_matrix`` and ``lift`` and the
    admissibility residual of ``dec``, through its row masks, are the bytes
    that dense products through every kernel basis give on a copy that
    shares its factors (:func:`oracles.dense_apply`, and ``A_mu'`` applied
    through the dense ``R_j`` of every kernel basis)."""
    X = np.random.default_rng(8).normal(size=(dec.n, 5))

    def blocks(system):
        out = {
            (name, key): value
            for name in ("apply_projectors", "apply_N", "apply_couplings")
            for key, value in getattr(system, name)(X).items()
        }
        out["ode_matrix"], out["lift"] = system.ode_matrix, system.lift
        return {key: value.tobytes() for key, value in out.items()}

    ours = blocks(dec)
    dense_copy = dataclasses.replace(dec)  # the same factors, no cached frame
    monkeypatch.setattr(DecoupledSystem, "_apply", dense_apply)
    def dense_rows(self, j, Y):
        return kernel_factors(self)[j][1] @ Y

    monkeypatch.setattr(DecoupledSystem, "_kernel_rows", dense_rows)
    dense = blocks(dense_copy)
    assert ours.keys() == dense.keys()
    assert [key for key in ours if ours[key] != dense[key]] == []
    assert dec.admissibility_residual == dense_admissibility_residual(dec)


@pytest.mark.parametrize("k", [4, 8, 12])
def test_stokes_row_masks_match_dense_products(monkeypatch, k):
    from daereach import load_model, to_autonomous

    dec = decouple(compute_index_and_chain(to_autonomous(*load_model(f"builtin:stokes:{k}"))))
    assert dec.raw.steps[0].columns is not None and dec.raw.steps[1].columns is None
    _row_masks_match_dense_products(monkeypatch, dec)


@pytest.mark.parametrize(
    "blocks", [[1] * 9, [2, 2, 1, 1, 1], [3, 2, 1, 1]], ids=["index-1", "index-2", "index-3"]
)
def test_weierstrass_row_masks_match_dense_products(monkeypatch, blocks):
    """A permuted Weierstrass form ``E = P diag(D, N) Q``, ``A = P diag(J, I)
    Q`` of index 1, 2 and 3: ``E_0`` takes the closed form, so ``Q_0 Y``
    is ``Y`` on the kernel rows.  The chain corrects only later projectors,
    whose kernel bases are dense (after a closed-form ``E_0``, a singular
    ``E_1`` that is a scaled column selection would have a zero column of
    ``E`` and ``A`` alike: an irregular pencil), so the scatter of a
    corrected ``R_0 Y`` runs on a copy given an oblique ``R_0``, ``K_0 R_0``
    a projector onto the same kernel, and the LU inverse of its own
    ``E_mu'`` (the solve check reads ``R_0``).  That copy takes the dense
    product ``R_0 Y`` and the frame on every row: its frame spans
    ``range(Pi)``, which is not zero on the kernel rows."""
    rng = np.random.default_rng(len(blocks))
    auto = AutonomousDae(*weierstrass_auto(rng, 14, blocks))
    dec = decouple(compute_index_and_chain(auto))
    assert auto.n >= _QR_MIN_N and dec.mu == reference_chain(auto)[4] == max(blocks)
    assert dec.raw.decisions[0]["method"] == "diagonal"
    assert dec.R[0] is None and dec._range_rows is not None
    _row_masks_match_dense_products(monkeypatch, dec)
    step = dec.raw.steps[0]
    K0, R0 = step.K, step.K.T
    G = rng.normal(size=R0.shape)
    oblique = R0 + G - (G @ K0) @ R0  # R K_0 = I: K_0 R projects onto Ker E_0
    assert np.abs(oblique @ K0 - np.eye(K0.shape[1])).max() <= 1e-12
    swapped = dataclasses.replace(dec, R=(oblique, *dec.R[1:]))
    E = chain_matrices(swapped)[0][dec.mu]
    swapped = dataclasses.replace(swapped, inverse=InverseBlocks(np.linalg.inv(E)))
    Y = rng.normal(size=(auto.n, 3))
    assert swapped._kernel_rows(0, Y).tobytes() == (oblique @ Y).tobytes()
    assert swapped._range_rows is None
    monkeypatch.undo()
    _row_masks_match_dense_products(monkeypatch, swapped)
    monkeypatch.undo()
    assert not dec.ode_basis[step.columns].any() and swapped.ode_basis[step.columns].any()
    for system in (dec, swapped):  # the frame spans range(Pi), off c_0 only for the raw R_0
        W = system.ode_basis
        assert np.abs(system.ode_component(W) - W).max() <= 1e-12
        assert np.abs(W.T @ W - np.eye(W.shape[1])).max() <= 1e-13


@pytest.mark.parametrize(
    "make_auto, index",
    [
        (lambda: canonical_auto(np.random.default_rng(71), 3, [1, 1])[0], 1),
        (lambda: canonical_auto(np.random.default_rng(72), 3, [2, 1])[0], 2),
        (lambda: canonical_auto(np.random.default_rng(73), 3, [3, 1])[0], 3),
        (lambda: next(semi_explicit_systems(1))[2], 1),
        (lambda: next(semi_explicit_systems(2))[2], 2),
        (lambda: next(semi_explicit_systems(3))[2], 3),
        (_stokes_auto, 2),
    ],
    ids=["index-1", "index-2", "index-3", "semi-1", "semi-2", "semi-3", "stokes-4"],
)
def test_make_admissible_factors_nothing(monkeypatch, make_auto, index):
    """The admissible correction in :func:`decouple` is rank-``m`` products
    of the raw chain's factors at every index: no SVD, QR, solve or
    inverse."""
    raw = compute_index_and_chain(make_auto())
    assert raw.mu == index
    for name in ("svd", "qr", "solve", "inv"):

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"decouple called np.linalg.{_name}")

        monkeypatch.setattr(np.linalg, name, refuse)
    assert decouple(raw).inverse_residual <= 1e-12


@pytest.mark.parametrize("systems", [random_systems, semi_explicit_systems])
def test_index_3_intermediate_is_the_raw_terminal_matrix_times_a_unipotent(systems):
    """With ``Q_1' = K_1 R_1`` corrected and ``Q_2 = K_2 K_2^T`` raw,
    ``(Q_1 - Q_1') Q_2 = 0``, so ``E_2'`` keeps the raw kernel ``K_2`` and
    ``A_2' K_2 = A_2 K_2``; and ``X = P_2 (Q_1 - Q_1')`` squares to 0, so
    ``E_2' - A_2' Q_2 = E_3 (I - X)`` has the inverse ``(I + X) E_3^{-1}``."""
    for seed, _, auto, _ in systems(3):
        raw = compute_index_and_chain(auto)
        raw_inverse = raw.terminal_inverse  # before decouple takes it
        ours = decouple(raw)
        K1, K2 = raw.steps[1].K, raw.steps[2].K
        swap = K1 @ (K1.T - ours.R[1])  # Q_1 - Q_1'
        X = swap - K2 @ (K2.T @ swap)
        assert np.abs(swap @ K2).max() <= 1e-10 * max(1.0, np.abs(swap).max()), seed
        E, A = chain_matrices(ours)
        E2 = E[2]
        assert np.abs(E2 @ K2).max() <= 1e-10 * max(1.0, np.abs(E2).max()), seed
        assert _relative_error(A[2] @ K2, chain_sequences(raw)[1][2] @ K2) <= 1e-10, seed
        assert np.abs(X @ X).max() <= 1e-10 * max(1.0, np.abs(X).max() ** 2), seed
        intermediate = E2 - (A[2] @ K2) @ K2.T
        inverse = raw_inverse + X @ raw_inverse
        assert np.abs(intermediate @ inverse - np.eye(auto.n)).max() <= 1e-10, seed


def _corrected_inverse_error(auto):
    """``(format, error, bound)``: the format the chain kept ``E_mu^{-1}``
    in (``"closed-form"``, ``"gram"`` or ``"qr"`` blocks, or ``"dense"``),
    and :func:`decouple`'s ``E_mu'^{-1}`` against ``np.linalg.inv`` of the
    dense ``E_mu'`` of :func:`oracles.chain_matrices`, relative to the
    largest entry, with the bound ``condition_bound * 2^-53`` (``cond_2``
    of ``E_mu'`` where its own SVD decided)."""
    raw = compute_index_and_chain(auto)
    method = raw.decisions[-2]["method"]  # of E_{mu-1}, whose factors the blocks are from
    if raw.inverse.B is not None:
        form = "dense"
    else:
        form = "closed-form" if method == "diagonal" else method
    dec = decouple(raw)
    E = chain_matrices(dec)[0][dec.mu]
    reference = np.linalg.inv(E)
    error = np.abs(dec.terminal_inverse - reference).max() / np.abs(reference).max()
    bound = raw.condition_bound if raw.condition_bound is not None else np.linalg.cond(E)
    return form, error, bound * 2.0**-53


@pytest.mark.parametrize("factors", ["gram", "qr"])
@pytest.mark.parametrize("k", [4, 8, 12, 16])
def test_stokes_corrected_inverse_matches_an_lu_inverse(monkeypatch, k, factors):
    """:func:`decouple` forms the corrected ``E_2'^{-1}`` once from the
    certificate's blocks of ``E_1``'s Gram factors (or its QR, with the
    Gram path refused), to the accuracy of an LU inverse of the dense
    ``E_2'``."""
    import daereach.linalg

    if factors == "qr":
        monkeypatch.setattr(daereach.linalg, "_gram_factors", lambda *args: None)
    form, error, bound = _corrected_inverse_error(_stokes_k_auto(k))
    print(f"\nstokes k={k} {factors}: forward error {error:.1e}, bound {bound:.1e}")
    assert form == factors and error <= bound


@pytest.mark.parametrize("index", [2, 3])
def test_semi_explicit_corrected_inverse_matches_an_lu_inverse(index):
    """The 20 semi-explicit systems of each index (the certificate on
    ``E_{mu-1}``'s SVD factors, a dense inverse corrected in place)."""
    for seed, _, auto, _ in semi_explicit_systems(index):
        form, error, bound = _corrected_inverse_error(auto)
        assert form == "dense" and error <= bound, seed


def _weierstrass_index_1():
    return AutonomousDae(*weierstrass_auto(np.random.default_rng(9), 14, [1] * 9))


@pytest.mark.parametrize(
    "make_auto, expected",
    [
        (_weierstrass_index_1, "closed-form"),
        (lambda: _nilpotent_auto(7), "qr"),
    ],
    ids=["closed-form-index-1", "qr-index-3"],
)
def test_row_gather_corrected_inverse_matches_an_lu_inverse(make_auto, expected):
    """The closed form's blocks at index 1, formed with ``R = K^T``, and a
    QR's at index 3, formed over its ``W`` with the ``I + X`` step."""
    form, error, bound = _corrected_inverse_error(make_auto())
    assert form == expected and error <= bound
