"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured evidence (run with ``pytest -s`` to see
the lines as they happen)."""

import json
import time

import numpy as np
import pytest

from daereach import (
    DaeSystem,
    IndexTooHighError,
    NonsingularEError,
    ParseError,
    ReachSettings,
    StarSet,
    UnsafeSpec,
    build_consistent_matrix,
    check_initial_star,
    compute_index_and_chain,
    compute_reach,
    decouple,
    decouple_system,
    load_model,
    rotating_masses_initial_star,
    save_model,
    to_autonomous,
    verify,
)
from daereach.cli import EXIT_INCONSISTENT, main
from daereach.model import AutonomousDae
from daereach.modelio import save_initial_star

from oracles import CanonicalDae, box_star, chain_matrices, chain_projectors
from test_decoupling import (
    EXPECTED_L3,
    EXPECTED_N1,
    EXPECTED_N3,
    EXPECTED_Q0,
    EXPECTED_Q1,
    dense_forms,
)


def report(criterion, detail):
    print(f"\ncriterion {criterion}: PASS - {detail}", flush=True)


def scaled(value):
    return max(1.0, float(np.abs(value).max()))


def test_criterion_1_end_to_end_verdicts(rotating_masses_auto, rotating_masses_star):
    started = time.perf_counter()
    settings = ReachSettings(time_step=0.01, num_steps=1000)
    reach = compute_reach(rotating_masses_auto, rotating_masses_star, settings)
    falsified = verify(reach, UnsafeSpec([[0.0, 0.0, 1.0, 0.0]], [-0.9]))
    cleared = verify(reach, UnsafeSpec([[0.0, 0.0, 0.0, 1.0]], [-1.0]))
    elapsed = time.perf_counter() - started

    assert falsified.status == "unsafe"
    assert cleared.status == "safe"
    # the trace is a genuine witness: predicate satisfied, unsafe set hit,
    # and replaying its start point reproduces it
    alpha = falsified.alpha_feasible
    star0 = reach.initial
    assert np.all(star0.C @ alpha <= star0.d + 1e-9)
    hit = falsified.unsafe_trace[falsified.first_unsafe_step]
    assert hit[2] <= -0.9 + 1e-9
    assert falsified.unsafe_trace.shape == (1001, 6)
    replay = compute_reach(
        rotating_masses_auto,
        StarSet((reach.bases[0] @ alpha)[:, None], [[1.0], [-1.0]], [1.0, -1.0]),
        settings,
    )
    replayed = replay.bases[:, :, 0]
    assert np.abs(replayed - falsified.unsafe_trace).max() <= 1e-9
    assert elapsed < 5.0
    report(
        1,
        f"unsafe at step {falsified.first_unsafe_step} with valid trace, "
        f"second spec safe, {elapsed:.2f} s",
    )


def test_criterion_2_worked_intermediate_matrices(rotating_masses_auto):
    dec = decouple(compute_index_and_chain(rotating_masses_auto))
    Q, _ = chain_projectors(dec)
    N, couplings, _ = dense_forms(dec)
    worst = 0.0
    for computed, expected in [
        (Q[0], EXPECTED_Q0),
        (Q[1], EXPECTED_Q1),
        (N[1], EXPECTED_N1),
        (N[2], np.zeros((6, 6))),
        (N[3], EXPECTED_N3),
        (couplings["L3"], EXPECTED_L3),
    ]:
        worst = max(worst, np.abs(computed - expected).max())
    assert worst <= 1e-9
    report(2, f"Q0, Q1, N1, N2=0, N3, L3 reproduced entrywise (worst {worst:.2e})")


def _property_suite(auto, tol=1e-8):
    """All projector/chain identities on one system; returns worst residual."""
    raw = compute_index_and_chain(auto)
    dec = decouple(raw)
    worst = 0.0

    def track(residual, scale=1.0):
        nonlocal worst
        worst = max(worst, float(residual) / max(1.0, scale))
        assert residual <= tol * max(1.0, scale)

    n = raw.n
    eye = np.eye(n)
    # orthogonal projector conditions on the raw chain
    for j, Q in enumerate(chain_projectors(raw)[0]):
        Z = raw.E_seq[j]
        track(np.linalg.norm(Z @ Q), np.linalg.norm(Z))
        track(np.linalg.norm(Q - Q.T))
        track(np.linalg.norm(Q @ Q - Q))
    # chain step-down and telescoping identities on both projector sets
    for stage in (raw, dec):
        Q, P = chain_projectors(stage)
        E, A = chain_matrices(raw, stage.factors)
        acc = A[0].copy()
        for j in range(raw.mu):
            scale = scaled(E[j + 1]) * scaled(Q[j])
            track(np.abs(E[j + 1] @ P[j] - E[j]).max(), scale)
            track(np.abs(E[j + 1] @ Q[j] + A[j] @ Q[j]).max(), scale)
            acc += E[j + 1] @ Q[j]
        track(np.abs(acc - A[raw.mu]).max(), scaled(A[raw.mu]))
    # admissibility and the corrected projectors' defining identities
    Q, P = chain_projectors(dec)
    E, _ = chain_matrices(raw, dec.factors)
    for j in range(dec.mu):
        Qj, Ej = Q[j], E[j]
        track(np.abs(Ej @ Qj).max(), scaled(Ej) * scaled(Qj))
        track(np.abs(Qj @ Qj - Qj).max(), scaled(Qj) ** 2)
        for i in range(j):
            Qi, Pi, Pj = Q[i], P[i], P[j]
            pair = scaled(Qj) * scaled(Qi)
            track(np.abs(Qj @ Qi).max(), pair)
            track(np.abs(Pj @ Qi - Qi).max(), pair)
            track(np.abs(Qj @ Pi - Qj).max(), pair)
            triple = scaled(Pi) ** 2 * scaled(Pj)
            track(np.abs(Pi @ Pj @ Pi - Pi @ Pj).max(), triple)
            track(np.abs(Pj @ Pi @ Pj - Pi @ Pj).max(), triple)
    # partition of identity over the subsystem projectors
    track(np.abs(sum(dec.projectors.values()) - eye).max())
    return dec.mu, worst


def test_criterion_3_projector_property_suite(rotating_masses_auto):
    started = time.perf_counter()
    worst = 0.0
    checked = 0

    mu, w = _property_suite(rotating_masses_auto)
    assert mu == 2
    worst = max(worst, w)
    checked += 1
    for k in (2, 3, 4):
        system, _ = load_model(f"builtin:stokes:{k}")
        mu, w = _property_suite(to_autonomous(system))
        assert mu == 2
        worst = max(worst, w)
        checked += 1

    block_menu = {
        1: [[1], [1, 1], [1, 1, 1]],
        2: [[2], [2, 1], [2, 2], [2, 1, 1]],
        3: [[3], [3, 1], [3, 2], [3, 1, 1]],
    }
    rng = np.random.default_rng(20240917)
    for index in (1, 2, 3):
        for trial in range(100):
            blocks = block_menu[index][trial % len(block_menu[index])]
            ws = CanonicalDae(rng, int(rng.integers(2, 4)), blocks)
            mu, w = _property_suite(AutonomousDae(ws.E, ws.A))
            assert mu == index
            worst = max(worst, w)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        3,
        f"{checked} systems (benchmarks + 100 per index), worst scaled "
        f"residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_small_scale_oracle_equivalence():
    rng = np.random.default_rng(424242)
    settings = ReachSettings(time_step=0.1, num_steps=10)
    times = settings.times
    instances = 0
    worst_gap = 0.0
    for index, blocks_options in ((1, [[1], [1, 1]]), (2, [[2], [2, 1]])):
        for trial in range(10):
            blocks = blocks_options[trial % len(blocks_options)]
            dynamic = int(rng.integers(2, 4))
            if dynamic + sum(blocks) > 6:
                dynamic = 6 - sum(blocks)
            ws = CanonicalDae(rng, dynamic, blocks)
            auto = AutonomousDae(ws.E, ws.A)
            dec = decouple(compute_index_and_chain(auto))
            star = box_star(rng, build_consistent_matrix(dec), auto.n, 2)
            reach = compute_reach(auto, star, settings)

            alphas = star.sample_coefficients(100, seed=trial)
            basis = reach.bases  # (steps+1, n, k)
            for alpha in alphas:
                x0 = star.V @ alpha
                exact = ws.exact_states(x0, times)
                computed = basis @ alpha
                gap = np.abs(computed - exact).max()
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-6

            # dense-sampling safety oracle with comfortable margins
            direction = rng.normal(size=auto.n)
            dense = star.sample_coefficients(10_000, seed=100 + trial)
            values = (basis @ dense.T) * direction[None, :, None]
            sampled_min = values.sum(axis=1).min()
            span = max(1.0, abs(sampled_min))
            for threshold, expected in [
                (sampled_min + 0.2 * span, "unsafe"),
                (sampled_min - 0.2 * span, "safe"),
            ]:
                outcome = verify(
                    reach,
                    UnsafeSpec(direction[None, :], [threshold], on_original_state=False),
                )
                assert outcome.status == expected
            instances += 1
    assert instances == 20
    report(
        4,
        f"{instances} systems x 100 trajectories within {worst_gap:.2e} of the "
        "independent integrator; safety verdicts match the sampling oracle",
    )


def _independent_reconstruction(N, L, v1):
    """Subsystem-wise state reconstruction, written out per index, from the
    dense coefficients ``N`` and derivative multipliers ``L``."""
    n1 = N[1]
    mu = len(N) - 1
    if mu == 1:
        return v1 + N[2] @ v1
    if mu == 2:
        return v1 + N[2] @ v1 + (N[3] + L["L3"] @ N[2] @ n1) @ v1
    return (
        v1
        + N[2] @ v1
        + (N[3] + L["L3"] @ N[2] @ n1) @ v1
        + (
            N[4]
            + L["L4"] @ (N[3] @ n1 + L["L3"] @ N[2] @ n1 @ n1)
            + L["Z4"] @ N[2] @ n1
        )
        @ v1
    )


def test_criterion_5_reconstruction_identity(
    rotating_masses_auto, rotating_masses_star
):
    rng = np.random.default_rng(5)
    worst = 0.0
    runs = []
    reach = compute_reach(
        rotating_masses_auto, rotating_masses_star, ReachSettings(0.01, 1000)
    )
    runs.append(("rotating-masses", reach))
    for k in (2, 3, 4):
        system, _ = load_model(f"builtin:stokes:{k}")
        auto = to_autonomous(system)
        dec = decouple(compute_index_and_chain(auto))
        star = box_star(rng, build_consistent_matrix(dec), auto.n, 2)
        runs.append((f"stokes:{k}", compute_reach(auto, star, ReachSettings(0.001, 100))))
    for name, run in runs:
        dec = run.decoupled
        N, L, _ = dense_forms(dec)
        ode_bases = dec.ode_basis @ run.ode_coordinates
        for v1, basis in zip(ode_bases, run.bases):
            gap = np.abs(basis - _independent_reconstruction(N, L, v1)).max()
            worst = max(worst, gap)
            assert gap <= 1e-8, name
    report(
        5,
        f"lifted bases equal term-by-term subsystem reconstruction on "
        f"{len(runs)} benchmarks (worst {worst:.2e})",
    )


def test_criterion_6_stokes_scaling():
    rng = np.random.default_rng(6)
    started = time.perf_counter()
    # n = 7, 39, 95, 175: the work of neighbouring sizes differs by far
    # more than host noise, which reordered sizes one apart (k = 2 and 3)
    sizes = (2, 4, 6, 8)
    autos, stars = {}, {}
    for k in sizes:
        system, inputs = load_model(f"builtin:stokes:{k}")
        auto = autos[k] = to_autonomous(system, inputs)
        dec = decouple(compute_index_and_chain(auto))
        assert dec.mu == 2
        stars[k] = box_star(rng, build_consistent_matrix(dec), auto.n, 2)
        assert check_initial_star(dec, stars[k]).consistent
    best = {}
    # min over many repeats, with the sizes interleaved inside each round,
    # so that a slow spell of the host or a busy BLAS thread hits every
    # size alike instead of inflating one size's whole sample
    for _ in range(20):
        for k in sizes:
            auto = autos[k]
            reach = compute_reach(auto, stars[k], ReachSettings(0.001, 100))
            assert len(reach.bases) == 101
            check_started = time.perf_counter()
            outcome = verify(
                reach, UnsafeSpec(np.ones((1, auto.n)), [-1e9], on_original_state=False)
            )
            safety_seconds = time.perf_counter() - check_started
            assert outcome.status == "safe"
            total = reach.timings["decouple_s"] + reach.timings["reach_s"]
            if k not in best or total < best[k][0]:
                best[k] = (total, reach.timings, safety_seconds)
    rows = [(k, autos[k].n, best[k]) for k in sizes]
    lines = []
    for k, n, (total, timings, safety_seconds) in rows:
        lines.append(
            f"k={k} (n={n}): D-T {timings['decouple_s'] * 1e3:.2f} ms, "
            f"RSC-T {timings['reach_s'] * 1e3:.2f} ms, "
            f"CS-T {safety_seconds * 1e3:.2f} ms"
        )
    totals = [total for _, _, (total, _, _) in rows]
    assert all(b > a for a, b in zip(totals, totals[1:])), totals
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(6, "index 2 at every size; decouple+reach time grows monotonically\n    " + "\n    ".join(lines))


def test_criterion_7_loader_contract_covers_external_models(tmp_path):
    # external benchmark matrices are not shipped; the file loader is the
    # supported path, so prove the contract on a stand-in system of the
    # same kind (an index-3 descriptor model with inputs)
    rng = np.random.default_rng(7)
    ws = CanonicalDae(rng, 3, [3, 1])
    B = rng.normal(size=(7, 2))
    system = DaeSystem(ws.E, ws.A, B)
    from daereach.model import InputModel

    inputs = InputModel(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    path = tmp_path / "external_style.json"
    save_model(path, system, inputs)
    loaded, loaded_inputs = load_model(path)
    assert np.array_equal(loaded.E, system.E)
    assert np.array_equal(loaded.A, system.A)
    assert np.array_equal(loaded.B, system.B)
    assert np.array_equal(loaded_inputs.a_u, inputs.a_u)
    # and the loaded system drives the pipeline identically
    direct = compute_index_and_chain(to_autonomous(system, inputs))
    reloaded = compute_index_and_chain(to_autonomous(loaded, loaded_inputs))
    assert direct.mu == reloaded.mu == 3
    report(
        7,
        "model-file loader round-trips bit-exactly and reproduces the "
        "pipeline on an index-3 stand-in; external matrices stay out of scope",
    )


def test_criterion_8_negative_paths(tmp_path, capsys):
    # non-square E fails parse
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(
        json.dumps({"n": 2, "m": 0, "E": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "A": [[1.0, 0.0], [0.0, 1.0]]})
    )
    with pytest.raises(ParseError):
        load_model(bad_model)

    # nonsingular E is rejected with the dedicated error
    with pytest.raises(NonsingularEError):
        decouple_system(to_autonomous(DaeSystem(np.eye(3), np.zeros((3, 3)))))
    with pytest.raises(NonsingularEError):
        compute_index_and_chain(AutonomousDae(np.eye(2), np.ones((2, 2))))

    # an index-4 style chain stops with the dedicated error
    ws = CanonicalDae(np.random.default_rng(8), 2, [4])
    with pytest.raises(IndexTooHighError):
        compute_index_and_chain(AutonomousDae(ws.E, ws.A))

    # a perturbed initial star exits the CLI with the inconsistent-init code
    star = rotating_masses_initial_star()
    V = star.V.copy()
    V[2, 0] += 1.0
    init = tmp_path / "perturbed.json"
    save_initial_star(init, StarSet(V, star.C, star.d))
    code = main(
        [
            "--model", "builtin:rotating-masses",
            "--init", str(init),
            "--mode", "check-consistency",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_INCONSISTENT
    assert "inconsistent-init" in capsys.readouterr().err
    report(
        8,
        "parse, nonsingular-E, index-too-high, and inconsistent-init paths "
        "all fail with their dedicated errors / exit code 3",
    )
