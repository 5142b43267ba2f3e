import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daereach import rotating_masses_initial_star
from daereach.cli import (
    EXIT_INCONSISTENT,
    EXIT_INDEX_TOO_HIGH,
    EXIT_IRREGULAR,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    MODES,
    main,
)
from daereach.linalg import CERTIFICATE_MARGIN, CONSISTENCY_TOL, FEASIBILITY_TOL, RANK_REL_TOL

from oracles import write_json

@pytest.fixture
def benchmark_files(tmp_path):
    init, star = tmp_path / "init.json", rotating_masses_initial_star()
    write_json(init, V=star.V, C=star.C, d=star.d)
    unsafe = tmp_path / "unsafe.json"
    write_json(unsafe, G=[[0.0, 0.0, 1.0, 0.0]], f=[-0.9])
    return init, unsafe


def run(argv):
    return main(argv)


def assert_chain_decisions(verdict, methods):
    """The verdict's chain decisions use ``methods`` in order, and each
    margin clears the rank cutoff: a certified bound by
    ``CERTIFICATE_MARGIN``, an SVD by keeping singular values above it and
    dropping those at or below it, the closed form likewise with exact
    zeros dropped; the last bound is the terminal one."""
    decisions = verdict["chain_decisions"]
    assert [d["method"] for d in decisions] == methods
    cutoff = RANK_REL_TOL
    for decision in decisions:
        if decision["method"] == "diagonal":
            assert cutoff < decision["kept"] <= 1.0 and decision["dropped"] == 0.0
        elif decision["method"] == "svd":
            assert cutoff < decision["kept"] <= 1.0
            assert decision["dropped"] is None or 0.0 <= decision["dropped"] <= cutoff
        else:
            assert 1.0 <= decision["bound"] < 1.0 / (CERTIFICATE_MARGIN * cutoff)
    assert decisions[-1]["bound"] == verdict["terminal_condition_bound"]


def read_verdict(out):
    return json.loads((Path(out) / "verdict.json").read_text())


def assert_decoupled_health(verdict, residual="solve_residual"):
    """The corrected chain's health fields of a run that decoupled the
    rotating masses: the residual of the terminal solve the lift reads, or
    with ``residual="terminal_inverse_residual"`` (decouple mode) the full
    residual of the terminal inverse, and not the other."""
    assert verdict["ode_rank"] == 3
    other = {"solve_residual", "terminal_inverse_residual"} - {residual}
    assert 0.0 <= verdict[residual] <= 1e-12 and not other & set(verdict)
    assert 0.0 <= verdict["admissibility_residual"] <= 1e-12


def last_error(capsys):
    """The JSON error object on the last line of stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestVerifyMode:
    def test_unsafe_run_writes_trace(self, tmp_path, benchmark_files, capsys):
        init, unsafe = benchmark_files
        out = tmp_path / "out"
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--unsafe", str(unsafe),
                "--mode", "verify",
                "--time-step", "0.01",
                "--time-bound", "10",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "unsafe"
        assert verdict["index"] == 2
        assert set(verdict["timings"]) >= {"decouple_s", "reach_s", "safety_s"}
        assert (verdict["lp_calls"], verdict["screened_steps"]) == (1, 166)
        assert verdict["support_method"] == "box"
        assert verdict["witness_violation"] <= 1e-7 * max(1.0, 0.9)
        assert verdict["ode_rank"] == 3
        assert 0.0 <= verdict["solve_residual"] <= 1e-12
        bound = verdict["terminal_condition_bound"]
        assert math.isfinite(bound)
        assert 1.0 <= bound <= 1.0 / RANK_REL_TOL
        assert 0.0 <= verdict["consistency_residual"] <= CONSISTENCY_TOL
        assert 0.0 <= verdict["admissibility_residual"] <= 1e-12
        assert_chain_decisions(verdict, ["svd", "svd", "certificate"])
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1001  # header plus one row per instant
        assert lines[0].startswith("time,x0,x1,x2,x3,u0,u1")
        torque = float(lines[1 + 166].split(",")[3])  # x2 at the first unsafe step
        assert verdict["witness_violation"] == pytest.approx(torque + 0.9, abs=1e-15)
        assert "verdict: unsafe" in capsys.readouterr().out

    def test_safe_run_has_no_trace(self, tmp_path, benchmark_files):
        init, _ = benchmark_files
        unsafe = tmp_path / "safe_spec.json"
        write_json(unsafe, G=[[0.0, 0.0, 0.0, 1.0]], f=[-1.0])
        out = tmp_path / "out_safe"
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--unsafe", str(unsafe),
                "--time-step", "0.01",
                "--time-bound", "10",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "safe"
        assert verdict["first_unsafe_step"] is None
        assert (verdict["lp_calls"], verdict["screened_steps"]) == (0, 1001)
        assert (verdict["support_method"], verdict["witness_violation"]) == ("box", None)
        assert not (out / "trace.csv").exists()

    def test_deterministic_verdict_excluding_timings(self, tmp_path, benchmark_files):
        init, unsafe = benchmark_files
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                [
                    "--model", "builtin:rotating-masses",
                    "--init", str(init),
                    "--unsafe", str(unsafe),
                    "--time-step", "0.01",
                    "--time-bound", "10",
                    "--out", str(out),
                ]
            )
            doc = json.loads((out / "verdict.json").read_text())
            doc.pop("timings")
            payloads.append(json.dumps(doc, sort_keys=True))
        assert payloads[0] == payloads[1]


class TestOtherModes:
    def test_index_mode_prints(self, tmp_path, capsys):
        code = run(
            ["--model", "builtin:rotating-masses", "--mode", "index", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert "index: 2" in capsys.readouterr().out
        verdict = read_verdict(tmp_path)
        assert verdict["index"] == 2
        assert_chain_decisions(verdict, ["svd", "svd", "certificate"])
        assert "ode_rank" not in verdict  # the index mode decouples nothing

    @pytest.mark.parametrize("mode", MODES)
    def test_completed_verdict_states_its_tolerances(self, tmp_path, benchmark_files, mode):
        init, unsafe = benchmark_files
        argv = ["--model", "builtin:rotating-masses", "--mode", mode, "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--time-bound", "0.1", "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        assert read_verdict(tmp_path)["tolerances"] == {
            "rank_rel_tol": RANK_REL_TOL,
            "consistency_tol": CONSISTENCY_TOL,
            "feasibility_tol": FEASIBILITY_TOL,
            "certificate_margin": CERTIFICATE_MARGIN,
        }

    def test_decouple_mode_writes_coefficients(self, tmp_path):
        code = run(
            ["--model", "builtin:rotating-masses", "--mode", "decouple", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "decoupled.json").read_text())
        assert doc["index"] == 2
        assert np.abs(np.array(doc["N"]["2"])).max() <= 1e-12
        verdict = read_verdict(tmp_path)
        assert_chain_decisions(verdict, ["svd", "svd", "certificate"])
        assert_decoupled_health(verdict, "terminal_inverse_residual")

    def test_decouple_mode_at_index_3(self, tmp_path):
        from daereach import DaeSystem, to_autonomous
        from daereach.model import InputModel
        from oracles import CanonicalDae, reference_decoupled

        # harmonic inputs drive the constraint subsystems, so N[4] and L4
        # are not zero
        rng = np.random.default_rng(31)
        ws = CanonicalDae(rng, 3, [3, 1])
        system = DaeSystem(ws.E, ws.A, rng.normal(size=(ws.E.shape[0], 2)))
        inputs = InputModel(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        model = tmp_path / "index3.json"
        write_json(
            model, n=system.n, m=system.m, E=system.E, A=system.A, B=system.B, A_u=inputs.a_u
        )
        code = run(["--model", str(model), "--mode", "decouple", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "decoupled.json").read_text())
        reference = reference_decoupled(to_autonomous(system, inputs))
        assert doc["index"] == reference.mu == 3
        assert sorted(doc["N"]) == ["1", "2", "3", "4"]
        pairs = [(doc["N"][str(i)], reference.N[i]) for i in reference.N]
        pairs += [(doc[key], getattr(reference, key)) for key in ("L3", "L4", "Z4")]
        # relative to the largest entry of all of them: N[2] is zero up to rounding
        scale = max(np.abs(expected).max() for _, expected in pairs)
        for ours, expected in pairs:
            assert np.abs(np.array(ours) - expected).max() <= 1e-10 * scale

    def test_check_consistency_ok(self, tmp_path, benchmark_files):
        init, _ = benchmark_files
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--mode", "check-consistency",
                "--out", str(tmp_path / "cc"),
            ]
        )
        assert code == EXIT_OK
        verdict = read_verdict(tmp_path / "cc")
        assert_chain_decisions(verdict, ["svd", "svd", "certificate"])
        assert_decoupled_health(verdict)
        assert verdict["consistent"] is True
        assert 0.0 <= verdict["consistency_residual"] <= CONSISTENCY_TOL
        assert (verdict["worst_column"], verdict["worst_row_block"]) == (None, None)
        assert "max_residual" not in verdict

    def test_check_consistency_perturbed_exits_3(self, tmp_path, capsys):
        star = rotating_masses_initial_star()
        V = star.V.copy()
        V[2, 0] += 1.0
        init = tmp_path / "bad_init.json"
        write_json(init, V=V, C=star.C, d=star.d)
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--mode", "check-consistency",
                "--out", str(tmp_path / "cc_bad"),
            ]
        )
        assert code == EXIT_INCONSISTENT
        err = capsys.readouterr().err
        assert "inconsistent-init" in err
        verdict = json.loads((tmp_path / "cc_bad" / "verdict.json").read_text())
        assert verdict["consistent"] is False
        assert verdict["worst_column"] == 0

    @pytest.mark.parametrize("mode", ["check-consistency", "reach", "verify"])
    def test_inconsistent_star_takes_the_one_error_path(self, tmp_path, capsys, mode):
        star = rotating_masses_initial_star()
        V = star.V.copy()
        V[2, 0] += 1.0
        init = tmp_path / "bad_init.json"
        write_json(init, V=V, C=star.C, d=star.d)
        unsafe = tmp_path / "unsafe.json"
        write_json(unsafe, G=[[0.0, 0.0, 1.0, 0.0]], f=[-0.9])
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--mode", mode, "--out", str(out)]
        assert run(argv) == EXIT_INCONSISTENT
        error = last_error(capsys)
        assert set(error) == {"error", "message"}
        verdict = read_verdict(out)
        assert set(verdict) == {
            "error", "message", "mode", "model", "timings",
            "consistent", "consistency_residual", "worst_column", "worst_row_block",
        }
        assert {key: verdict[key] for key in error} == error
        assert (verdict["mode"], verdict["model"]) == (mode, "builtin:rotating-masses")
        assert verdict["consistent"] is False
        assert verdict["consistency_residual"] > CONSISTENCY_TOL
        assert (verdict["worst_column"], verdict["worst_row_block"]) == (0, 1)
        assert [p.name for p in out.iterdir()] == ["verdict.json"]

    def test_reach_mode_writes_basis(self, tmp_path, benchmark_files):
        init, _ = benchmark_files
        out = tmp_path / "reach_out"
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--mode", "reach",
                "--time-step", "0.1",
                "--time-bound", "1.0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "reach.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 11
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["ode_rank"] == 3
        assert 0.0 <= verdict["solve_residual"] <= 1e-12
        assert 0.0 <= verdict["consistency_residual"] <= CONSISTENCY_TOL
        assert 0.0 <= verdict["admissibility_residual"] <= 1e-12

    def test_stokes_reach_decides_the_chain_by_closed_form_and_gram(self, tmp_path):
        from daereach import load_model, to_autonomous
        from oracles import box_star, reference_decoupled

        auto = to_autonomous(*load_model("builtin:stokes:4"))
        star = box_star(np.random.default_rng(3), reference_decoupled(auto).gamma, auto.n, 2)
        init, out = tmp_path / "init.json", tmp_path / "stokes_out"
        write_json(init, V=star.V, C=star.C, d=star.d)
        code = run(
            [
                "--model", "builtin:stokes:4",
                "--init", str(init),
                "--mode", "reach",
                "--time-step", "1e-3",
                "--time-bound", "0.005",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["index"] == 2
        assert_chain_decisions(verdict, ["diagonal", "gram", "certificate"])

    def test_bounds_with_directions(self, tmp_path, benchmark_files):
        init, unsafe = benchmark_files
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps({"D": [[0.0, 0.0, 1.0, 0.0]]}))
        out = tmp_path / "bounds_out"
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--unsafe", str(unsafe),
                "--mode", "verify",
                "--time-step", "0.1",
                "--time-bound", "1.0",
                "--directions", str(directions),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "bounds.csv").read_text().strip().splitlines()
        assert lines[0] == "time,dir0_min,dir0_max"
        assert len(lines) == 1 + 11
        first = np.array([float(v) for v in lines[1].split(",")])
        # at t = 0 the monitored torque spans [0.513.. * 0.1, 0.513.. * 0.2]
        lo, hi = first[1], first[2]
        assert lo == pytest.approx(0.1 * 5 / np.sqrt(95), abs=1e-9)
        assert hi == pytest.approx(0.2 * 5 / np.sqrt(95), abs=1e-9)


def scaled_box_predicate():
    """The bundled box with its rows scaled and one of them repeated."""
    star = rotating_masses_initial_star()
    scale = np.array([2.0, 0.5, 4.0, 3.0])
    C, d = scale[:, None] * star.C, scale * star.d
    return np.vstack([C, 7.0 * star.C[:1]]), np.concatenate([d, 7.0 * star.d[:1]])


def cut_box_predicate():
    """The bundled box with one corner cut off: five vertex subsets' worth."""
    star = rotating_masses_initial_star()
    return np.vstack([star.C, [[1.0, 1.0]]]), np.concatenate([star.d, [1.3]])


def twelve_gon_predicate():
    """Twelve constraints on two coefficients: C(12, 2) = 66 vertex subsets."""
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    C = np.column_stack([np.cos(angles), np.sin(angles)])
    return C, C @ np.array([0.15, 1.1]) + 0.05


# the support method each predicate takes over 21 instants
SUPPORT_METHODS = {
    scaled_box_predicate: "box",
    cut_box_predicate: "vertices",
    twelve_gon_predicate: "lp",
}


class TestBoundsAgainstLps:
    @pytest.mark.parametrize("predicate", list(SUPPORT_METHODS))
    def test_bounds_match_per_step_lps(self, tmp_path, rotating_masses_auto, predicate):
        # 21 instants: the box takes the closed form, the cut box the
        # vertex path, the 12-gon the per-step LPs; all must give the LP
        # extrema
        from daereach import ReachSettings, StarSet, compute_reach, lp

        method = SUPPORT_METHODS[predicate]
        C, d = predicate()
        star = StarSet(rotating_masses_initial_star().V, C, d)
        init = tmp_path / "init.json"
        write_json(init, V=star.V, C=star.C, d=star.d)
        D = np.vstack([np.eye(4)[2], np.random.default_rng(8).normal(size=4)])
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps({"D": D.tolist()}))
        out = tmp_path / "out"
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--mode", "reach",
                "--time-step", "0.1",
                "--time-bound", "2.0",
                "--directions", str(directions),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1)
        assert json.loads((out / "verdict.json").read_text())["support_method"] == method

        reach = compute_reach(rotating_masses_auto, star, ReachSettings(0.1, 20))
        assert reach.initial.support(len(reach.bases)).method == method
        D_ext = np.hstack([D, np.zeros((2, 2))])
        expected = []
        for V in reach.bases:
            row = []
            for h in D_ext @ V:
                row += [
                    lp.solve_lp(h, C, d).objective,
                    -lp.solve_lp(-h, C, d).objective,
                ]
            expected.append(row)
        expected = np.array(expected)
        assert rows.shape == (21, 5)
        np.testing.assert_allclose(rows[:, 1:], expected, rtol=1e-9, atol=1e-9)


def stokes_box_inputs(directory, grid, width, rng):
    """A consistent ``width``-column star of the Stokes model over the box
    ``[-1, 1]^width``, an unsafe set ``-(u_c + v_c) <= -100`` that no
    state reaches (unit-norm velocity columns), and four directions."""
    from daereach import build_stokes, stokes_center_velocity_rows

    model = build_stokes(grid)
    A, n_v = np.asarray(model.A), 2 * grid * (grid - 1)
    L, G = A[:n_v, :n_v], A[:n_v, n_v:]
    gram = G.T @ G
    W = rng.standard_normal((n_v, width))
    W -= G @ np.linalg.solve(gram, G.T @ W)  # divergence free
    W /= np.linalg.norm(W, axis=0)
    V = np.vstack([W, -np.linalg.solve(gram, G.T @ (L @ W))])  # hidden constraint
    C = np.vstack([np.eye(width), -np.eye(width)])
    init = directory / "init.json"
    write_json(init, V=V, C=C, d=np.ones(2 * width))
    centre = np.zeros((1, model.n))
    centre[0, list(stokes_center_velocity_rows(grid))] = -1.0
    unsafe = directory / "unsafe.json"
    write_json(unsafe, G=centre, f=[-100.0])
    D = np.vstack([-centre, np.eye(model.n)[0], rng.normal(size=(2, model.n))])
    directions = directory / "directions.json"
    directions.write_text(json.dumps({"D": D.tolist()}))
    return init, unsafe, directions


class TestLpCounts:
    """LPs solved per CLI run, counted at ``lp.solve_lp``.  Loading a star
    proves its predicate nonempty: a box with ``lower <= upper`` holds its
    midpoint and takes no LP, any other predicate takes one."""

    def test_rotating_masses_safe_verify(self, tmp_path, benchmark_files, lp_count):
        init, _ = benchmark_files
        unsafe = tmp_path / "safe_spec.json"
        write_json(unsafe, G=[[0.0, 0.0, 0.0, 1.0]], f=[-1.0])
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--out", str(out)]
        assert run(argv) == EXIT_OK
        assert len(lp_count) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert (verdict["status"], verdict["lp_calls"], verdict["screened_steps"]) == (
            "safe",
            0,
            1001,
        )

    def test_stokes_eight_dimensional_box(self, tmp_path, lp_count):
        # C(16, 8) = 12,870 vertex subsets exceed the 1,001 instants: only
        # the closed form screens this box and gives its bounds without LPs
        init, unsafe, directions = stokes_box_inputs(
            tmp_path, 8, 8, np.random.default_rng(12)
        )
        out = tmp_path / "out"
        argv = ["--model", "builtin:stokes:8", "--init", str(init), "--unsafe", str(unsafe)]
        argv += ["--directions", str(directions), "--time-step", "1e-4", "--time-bound", "0.1"]
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert len(lp_count) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert (verdict["status"], verdict["lp_calls"], verdict["screened_steps"]) == (
            "safe",
            0,
            1001,
        )
        assert verdict["support_method"] == "box"
        rows = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1)
        assert rows.shape == (1001, 1 + 2 * 4)
        assert np.all(rows[:, 1::2] <= rows[:, 2::2])

    def test_twelve_gon_keeps_one_lp_per_step(self, tmp_path, lp_count):
        C, d = twelve_gon_predicate()
        init = tmp_path / "init.json"
        write_json(init, V=rotating_masses_initial_star().V, C=C, d=d)
        unsafe = tmp_path / "unsafe.json"  # the torque stays above -0.87
        write_json(unsafe, G=[[0.0, 0.0, 1.0, 0.0]], f=[-0.9])
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps({"D": [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}))
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--directions", str(directions)]
        argv += ["--time-step", "0.1", "--time-bound", "2.0", "--out", str(out)]
        assert run(argv) == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert (verdict["status"], verdict["lp_calls"], verdict["screened_steps"]) == (
            "safe",
            21,
            0,
        )
        assert verdict["support_method"] == "lp"
        assert len(lp_count) == 1 + 21 + 2 * 2 * 21  # load, verify, bounds.csv


class TestErrorPaths:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text("{ not json")
        code = run(["--model", str(bad), "--mode", "index", "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert "parse" in capsys.readouterr().err

    def test_missing_init_is_parse_error(self, tmp_path):
        code = run(
            ["--model", "builtin:rotating-masses", "--mode", "reach", "--out", str(tmp_path)]
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "flag, document",
        [
            ("--unsafe", {"G": [[0.0, 0.0, 1.0]], "f": [-0.9]}),
            ("--unsafe", {"G": [[0.0, 0.0, 1.0, 0.0, 0.0]], "f": [-0.9]}),
            ("--unsafe", {"G": [[0.0, 0.0, 1.0, 0.0]], "f": [-0.9], "on_original_state": False}),
            ("--directions", {"D": [[0.0, 0.0, 1.0]]}),
            ("--directions", {"D": [[0.0, 0.0, 1.0, 0.0, 0.0]]}),
            ("--directions", {"D": [[]]}),
            ("--directions", {"D": {"shape": [2, 0], "triples": []}}),
        ],
    )
    def test_unsafe_or_directions_of_wrong_width(
        self, tmp_path, capsys, monkeypatch, benchmark_files, flag, document
    ):
        # the rotating masses have 4 states and 2 inputs: only 4 or 6 columns
        # fit, and the check runs before the pipeline
        import daereach.cli

        def pipeline(*args, **kwargs):
            raise AssertionError("the pipeline ran on a malformed file")

        monkeypatch.setattr(daereach.cli, "compute_reach", pipeline)
        init, unsafe = benchmark_files
        path = tmp_path / "spoiled.json"
        path.write_text(json.dumps(document))
        files = {"--unsafe": str(unsafe), flag: str(path)}
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init), "--out", str(out)]
        for key, value in files.items():
            argv += [key, value]
        assert run(argv) == EXIT_PARSE
        assert last_error(capsys)["error"] == "dimension-mismatch"
        assert sorted(p.name for p in out.iterdir()) == ["verdict.json"]

    @pytest.mark.parametrize("mode", MODES)
    def test_nonsingular_e_model_file(self, tmp_path, capsys, mode):
        # loading checks only shapes; every mode reaches the matrix chain,
        # whose first SVD rejects the model
        model = tmp_path / "ode.json"
        write_json(model, n=2, m=0, E=np.eye(2), A=-np.eye(2))
        init = tmp_path / "init.json"
        write_json(init, V=[[1.0], [0.0]], C=[[1.0], [-1.0]], d=[1.0, 1.0])
        unsafe = tmp_path / "unsafe.json"
        write_json(unsafe, G=[[1.0, 0.0]], f=[-2.0])
        out = tmp_path / "out"
        argv = ["--model", str(model), "--init", str(init), "--unsafe", str(unsafe)]
        assert run(argv + ["--mode", mode, "--out", str(out)]) == EXIT_PARSE
        assert last_error(capsys)["error"] == "nonsingular-e"
        assert json.loads((out / "verdict.json").read_text())["error"] == "nonsingular-e"
        assert [p.name for p in out.iterdir()] == ["verdict.json"]

    @pytest.mark.parametrize("grid", [3000, 20000])
    def test_builtin_grid_too_large_to_allocate_is_a_parse_error(self, tmp_path, capped_cli, grid):
        # the model is assembled as triples: k = 3000 (n = 27 million) needs
        # about 4 GiB of them, k = 20000 6 GiB for its first index array;
        # both fail at allocation (MemoryError under the 1 GiB cap)
        out = tmp_path / "out"
        argv = ["--model", f"builtin:stokes:{grid}", "--mode", "index", "--out", str(out)]
        done = capped_cli(argv)
        assert done.returncode == EXIT_PARSE, done.stderr
        error = json.loads(done.stderr.strip().splitlines()[-1])
        assert error["error"] == "parse"
        assert "too large" in error["message"]
        assert [p.name for p in out.iterdir()] == ["verdict.json"]
        verdict = read_verdict(out)
        assert sorted(verdict) == ["error", "message", "timings"]
        assert verdict["error"] == "parse"

    def test_index_too_high_exit_code(self, tmp_path, capsys):
        from oracles import CanonicalDae

        ws = CanonicalDae(np.random.default_rng(0), 2, [4])
        model = tmp_path / "index4.json"
        write_json(model, n=len(ws.E), m=0, E=ws.E, A=ws.A)
        code = run(["--model", str(model), "--mode", "index", "--out", str(tmp_path)])
        assert code == EXIT_INDEX_TOO_HIGH
        assert "index-too-high" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--time-step", "0"),
            ("--time-step", "nan"),
            ("--time-bound", "inf"),
            ("--time-bound", "1e300"),  # finite, but the step count overflows
            ("--time-bound", "0.001"),  # rounds to no step of the default 0.01
            ("--time-bound", "1"),  # 3.33 steps of 0.3 would round down to 0.9
            ("--time-bound", "0.105"),  # 10.5 steps of the default 0.01
        ],
    )
    def test_bad_numeric_argument_is_parse_error(
        self, tmp_path, benchmark_files, capsys, flag, value
    ):
        init, unsafe = benchmark_files
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--out", str(tmp_path / "out")]
        argv += {"1e300": ["--time-step", "1e-300"], "1": ["--time-step", "0.3"]}.get(value, [])
        code = run(argv + [flag, value])
        assert code == EXIT_PARSE
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "parse"
        assert flag in error["message"]

    @pytest.mark.parametrize(
        "step, bound, steps",
        [("1e-4", "0.01", 100), ("0.3", "0.9", 3), ("0.01", "0.01", 1)],
    )
    def test_time_bound_off_a_whole_step_count_by_rounding_is_accepted(
        self, tmp_path, benchmark_files, step, bound, steps
    ):
        # 0.01 / 1e-4 = 100.00000000000001 and 0.9 / 0.3 = 3.0000000000000004
        init, _ = benchmark_files
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init), "--mode", "reach"]
        argv += ["--time-step", step, "--time-bound", bound, "--out", str(out)]
        assert run(argv) == EXIT_OK
        assert json.loads((out / "verdict.json").read_text())["num_steps"] == steps

    def test_unbounded_directions_predicate(self, tmp_path, capsys):
        # the bundled box without its alpha_1 <= 0.2 row: the monitored
        # torque grows without bound along alpha_1
        star = rotating_masses_initial_star()
        init = tmp_path / "init.json"
        write_json(init, V=star.V, C=star.C[1:], d=star.d[1:])
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps({"D": [[0.0, 0.0, 1.0, 0.0]]}))
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--mode", "reach",
                "--time-step", "0.1",
                "--time-bound", "1.0",
                "--directions", str(directions),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_PARSE
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "unbounded-predicate"

    def test_failure_replaces_earlier_verdict(self, tmp_path, benchmark_files):
        init, unsafe = benchmark_files
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--time-bound", "2", "--out", str(out)]
        assert run(argv) == EXIT_OK
        assert json.loads((out / "verdict.json").read_text())["status"] == "unsafe"
        assert run(argv + ["--time-step", "nan"]) == EXIT_PARSE
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["error"] == "parse"
        assert "--time-step" in verdict["message"]
        assert "status" not in verdict

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "builtin:rotating-masses", "--mode", "bogus"],
            ["--model", "builtin:rotating-masses", "--time-step", "abc"],
            ["--mode", "index"],  # no --model
            ["--model", "builtin:rotating-masses", "--frobnicate", "1"],
            # removed flags
            ["--model", "builtin:rotating-masses", "--seed", "7"],
            ["--model", "builtin:rotating-masses", "--propagation", "expm"],
            ["--model", "builtin:rotating-masses", "--abs-tol", "1e-10"],
            ["--model", "builtin:rotating-masses", "--rel-tol", "1e-8"],
        ],
    )
    def test_unparsable_arguments_give_json_and_touch_nothing(self, tmp_path, capsys, argv):
        earlier = tmp_path / "verdict.json"
        earlier.write_text("{}\n")
        code = run(argv + ["--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert last_error(capsys)["error"] == "parse"
        assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]
        assert earlier.read_text() == "{}\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["--help"])
        assert exit_info.value.code == 0
        assert "--model" in capsys.readouterr().out

    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, below):
        regular = tmp_path / "regular"
        regular.write_text("not a directory")
        out = regular / "sub" if below else regular
        code = run(["--model", "builtin:rotating-masses", "--mode", "index", "--out", str(out)])
        assert code == EXIT_PARSE
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "parse"
        assert "--out" in error["message"]
        assert regular.read_text() == "not a directory"

    # each count fails numpy's size check before anything is allocated
    @pytest.mark.parametrize("time_step", ["1e-300", "1e-17"])
    def test_step_count_no_array_holds(self, tmp_path, benchmark_files, capsys, time_step):
        init, unsafe = benchmark_files
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--time-bound", "1", "--out", str(tmp_path)]
        code = run(argv + ["--time-step", time_step])
        assert code == EXIT_NUMERICAL
        error = last_error(capsys)
        assert error["error"] == "numerical-failure"
        assert "steps" in error["message"]


    def test_step_count_no_array_holds_without_ode_subsystem(self, tmp_path, capsys):
        # E = 0 leaves no ODE subsystem: its (steps, 0, 1) coordinates fit, and
        # the first array the grid outgrows is the verifier's pulled-back rows
        model = tmp_path / "static.json"
        write_json(model, n=2, m=0, E=np.zeros((2, 2)), A=np.eye(2))
        init = tmp_path / "init.json"
        write_json(init, V=np.zeros((2, 1)), C=[[1.0], [-1.0]], d=[1.0, 1.0])
        unsafe = tmp_path / "unsafe.json"
        write_json(unsafe, G=[[1.0, 0.0]], f=[-1.0])
        argv = ["--model", str(model), "--init", str(init), "--unsafe", str(unsafe)]
        argv += ["--time-step", "1e-17", "--time-bound", "1", "--out", str(tmp_path / "out")]
        assert run(argv) == EXIT_NUMERICAL
        assert last_error(capsys)["error"] == "numerical-failure"

    def test_singular_matrix_exit_code(self, tmp_path, capsys, monkeypatch, benchmark_files):
        # only the corrected chain's terminal solve check raises it
        import daereach.reachability
        from daereach import SingularMatrixError

        def singular(*args, **kwargs):
            raise SingularMatrixError("the corrected chain's terminal inverse is singular")

        monkeypatch.setattr(daereach.reachability, "decouple_system", singular)
        init, unsafe = benchmark_files
        out = tmp_path / "out"
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        assert run(argv + ["--unsafe", str(unsafe), "--out", str(out)]) == EXIT_NUMERICAL
        assert last_error(capsys)["error"] == "singular-matrix"
        verdict = json.loads((out / "verdict.json").read_text())
        assert set(verdict) == {"error", "message", "timings"}
        assert verdict["error"] == "singular-matrix"
        assert [p.name for p in out.iterdir()] == ["verdict.json"]

    @staticmethod
    def _corrupted_decoupling(monkeypatch, module, reached):
        """Make ``module``'s ``decouple_system`` return the decoupled system
        with its corrected inverse's block ``Z`` corrupted in a direction
        the frame's solve reaches, or one it does not
        (:func:`oracles.corrupt_solve_block`)."""
        from daereach.decoupling import decouple_system
        from oracles import corrupt_solve_block

        def corrupted(sys):
            return corrupt_solve_block(decouple_system(sys), reached)

        monkeypatch.setattr(module, "decouple_system", corrupted)

    def test_corrupted_solve_exits_6_with_an_error_verdict(self, tmp_path, capsys, monkeypatch):
        # a terminal inverse wrong in the columns the lift reads fails the
        # solve check on the reach path
        import daereach.reachability

        init, unsafe, _ = stokes_box_inputs(tmp_path, 4, 2, np.random.default_rng(4))
        self._corrupted_decoupling(monkeypatch, daereach.reachability, reached=True)
        out = tmp_path / "out"
        argv = ["--model", "builtin:stokes:4", "--init", str(init), "--unsafe", str(unsafe)]
        argv += ["--time-step", "1e-4", "--time-bound", "0.001", "--out", str(out)]
        assert run(argv) == EXIT_NUMERICAL
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "singular-matrix"
        assert "terminal solve has residual" in error["message"]
        verdict = read_verdict(out)
        assert set(verdict) == {"error", "message", "timings"}
        assert verdict["error"] == "singular-matrix"
        assert [p.name for p in out.iterdir()] == ["verdict.json"]

    def test_corruption_off_the_solve_fails_only_decouple_mode(self, tmp_path, capsys, monkeypatch):
        # the reach path checks the r columns its verdict rests on; decouple
        # mode, which writes every coefficient, checks all n^2 entries
        import daereach.cli
        import daereach.reachability

        init, unsafe, _ = stokes_box_inputs(tmp_path, 4, 2, np.random.default_rng(4))
        self._corrupted_decoupling(monkeypatch, daereach.reachability, reached=False)
        self._corrupted_decoupling(monkeypatch, daereach.cli, reached=False)
        out = tmp_path / "verify"
        argv = ["--model", "builtin:stokes:4", "--init", str(init), "--unsafe", str(unsafe)]
        argv += ["--time-step", "1e-4", "--time-bound", "0.001", "--out", str(out)]
        assert run(argv) == EXIT_OK
        verdict = read_verdict(out)
        assert verdict["status"] == "safe" and 0.0 <= verdict["solve_residual"] <= 1e-12
        out = tmp_path / "decouple"
        argv = ["--model", "builtin:stokes:4", "--mode", "decouple", "--out", str(out)]
        assert run(argv) == EXIT_NUMERICAL
        assert last_error(capsys)["error"] == "singular-matrix"
        assert read_verdict(out)["error"] == "singular-matrix"
        assert [p.name for p in out.iterdir()] == ["verdict.json"]


# E x' = A x with x2 = -x1 and x1' = 49 x1: from alpha in [0, 1], x1 = alpha
# e^{49 t} >= 0 is safe against x1 <= -1, and passes the largest double
# between t = 14 and 15
_GROWING = {
    "model": {"n": 2, "m": 0, "E": [[1, 0], [0, 0]], "A": [[50, 1], [1, 1]]},
    "init": {"V": [[1], [-1]], "C": [[1], [-1]], "d": [1, 0]},
    "unsafe": {"G": [[1, 0]], "f": [-1]},
    "directions": {"D": [[1, 0]]},
}


class TestNumericalEdgeCases:
    """Inputs at the edge of double precision exit by the contract, with
    the JSON line alone on the real stderr: no traceback, no numpy
    warning."""

    @pytest.mark.parametrize(
        "case, code, label, message",
        [
            pytest.param(*row, id=row[0])
            for row in [
                ("false-witness", EXIT_OK, "safe", None),
                ("huge-unsafe-rows", EXIT_NUMERICAL, "numerical-failure", "pull-back"),
                ("overflowing-reach", EXIT_NUMERICAL, "numerical-failure", "step 15"),
                ("overflowing-bounds", EXIT_NUMERICAL, "numerical-failure", "step 15"),
                ("huge-irregular-pencil", EXIT_IRREGULAR, "irregular-pencil", "det(sE - A)"),
            ]
        ],
    )
    def test_exit_code_and_stderr(self, tmp_path, capped_cli, case, code, label, message):
        paths = {}
        for name, document in _GROWING.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(document))
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"G": [[1.7e308] * 4], "f": [0]}))
        rm_init = tmp_path / "rm_init.json"
        star = rotating_masses_initial_star()
        write_json(rm_init, V=star.V, C=star.C, d=star.d)
        pencil = tmp_path / "pencil.json"
        pencil.write_text(
            json.dumps({"n": 2, "m": 0, "E": [[1e308, 0], [0, 0]], "A": [[0, 0], [0, 0]]})
        )
        growing = ["--model", str(paths["model"]), "--init", str(paths["init"])]
        argv = {
            "false-witness": growing
            + ["--unsafe", str(paths["unsafe"]), "--time-step", "1", "--time-bound", "10"],
            "huge-unsafe-rows": ["--model", "builtin:rotating-masses", "--init", str(rm_init)]
            + ["--unsafe", str(huge)],
            "overflowing-reach": growing
            + ["--mode", "reach", "--time-step", "1", "--time-bound", "20"],
            "overflowing-bounds": growing
            + ["--mode", "reach", "--time-step", "1", "--time-bound", "20"]
            + ["--directions", str(paths["directions"])],
            "huge-irregular-pencil": ["--model", str(pencil), "--mode", "index"],
        }[case]
        out = tmp_path / "out"
        done = capped_cli(argv + ["--out", str(out)])
        assert done.returncode == code, done.stderr
        if code == EXIT_OK:  # the screen proves the growing system safe
            assert done.stderr == ""
            assert read_verdict(out)["status"] == label
            return
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        error = json.loads(lines[0])
        assert error["error"] == label
        assert message in error["message"]
        assert [p.name for p in out.iterdir()] == ["verdict.json"]  # no trace.csv
        assert set(read_verdict(out)) == {"error", "message", "timings"}


class TestCsvRoundTrip:
    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[-0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, np.inf, -np.inf, np.nan]]),
            np.array([[0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]]),
            np.random.default_rng(5).normal(size=(2001, 7)) * 10.0 ** np.arange(-3, 4),
            np.arange(12.0).reshape(12, 1),
            np.empty((0, 3)),
        ],
        ids=["specials", "single-row", "multi-block", "one-column", "no-rows"],
    )
    def test_writer_matches_savetxt_bytes(self, tmp_path, rows):
        from daereach.cli import _write_csv

        header = [f"c{i}" for i in range(rows.shape[1])]
        _write_csv(tmp_path / "ours.csv", header, rows)
        np.savetxt(
            tmp_path / "savetxt.csv",
            rows,
            fmt="%.17g",
            delimiter=",",
            header=",".join(header),
            comments="",
        )
        ours = (tmp_path / "ours.csv").read_bytes()
        assert ours == (tmp_path / "savetxt.csv").read_bytes()

    def test_every_entry_parses_back_bit_identical(
        self, tmp_path, benchmark_files, rotating_masses_auto
    ):
        from daereach import ReachSettings, UnsafeSpec, compute_reach, verify

        init, unsafe = benchmark_files
        D = np.vstack([np.eye(4)[2], np.random.default_rng(3).normal(size=4)])
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps({"D": D.tolist()}))
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--directions", str(directions)]
        argv += ["--time-step", "0.01", "--time-bound", "2"]
        assert run(argv + ["--mode", "reach", "--out", str(tmp_path / "reach")]) == EXIT_OK
        assert run(argv + ["--mode", "verify", "--out", str(tmp_path / "verify")]) == EXIT_OK

        grid = ReachSettings(0.01, 200)
        reach = compute_reach(rotating_masses_auto, rotating_masses_initial_star(), grid)
        outcome = verify(reach, UnsafeSpec([[0.0, 0.0, 1.0, 0.0]], [-0.9]))
        assert not outcome.is_safe
        times = grid.times
        pulled_back = (np.hstack([D, np.zeros((2, 2))]) @ reach.lift) @ reach.ode_coordinates
        extrema = reach.initial.support(len(times)).extrema(pulled_back)
        expected = {
            "reach/reach.csv": np.column_stack(
                [times, reach.bases.transpose(0, 2, 1).reshape(len(times), -1)]
            ),
            "verify/trace.csv": np.column_stack([times, outcome.unsafe_trace]),
            "reach/bounds.csv": np.column_stack([times, extrema.reshape(len(times), -1)]),
            "verify/bounds.csv": np.column_stack([times, extrema.reshape(len(times), -1)]),
        }
        for name, table in expected.items():
            lines = (tmp_path / name).read_text().splitlines()[1:]
            parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert parsed.shape == table.shape, name
            assert parsed.tobytes() == table.tobytes(), name


def _write_inputs(directory):
    """Every input file the property test draws from, good and bad."""
    star = rotating_masses_initial_star()
    files = {"missing": directory / "missing.json"}
    files["init"] = directory / "init.json"
    write_json(files["init"], V=star.V, C=star.C, d=star.d)
    V = star.V.copy()
    V[2, 0] += 1.0
    files["inconsistent"] = directory / "inconsistent.json"
    write_json(files["inconsistent"], V=V, C=star.C, d=star.d)
    files["unsafe"] = directory / "unsafe.json"
    write_json(files["unsafe"], G=[[0.0, 0.0, 1.0, 0.0]], f=[-0.9])
    files["directions"] = directory / "directions.json"
    files["directions"].write_text(json.dumps({"D": [[0.0, 0.0, 1.0, 0.0]]}))
    files["wide"] = directory / "wide.json"  # more columns than the state has
    files["wide"].write_text(json.dumps({"D": [[1.0] * 9]}))
    files["garbage"] = directory / "garbage.json"
    files["garbage"].write_text("{ not json")
    return files


# a valid run is drawn from GOOD, then up to two flags are replaced by BAD
# values (None drops the flag); at most 100 steps, so no count comes near
# an allocation limit
GOOD = {
    "--model": ["builtin:rotating-masses"],
    "--mode": ["index", "decouple", "check-consistency", "reach", "verify"],
    "--init": ["@init"],
    "--unsafe": ["@unsafe"],
    "--directions": [None, "@directions"],
    "--time-step": ["0.01", "0.05"],
    "--time-bound": ["1", "0.5"],
    "--out": ["@out"],
}
BAD = {
    "--model": [None, "builtin:nope", "@missing", "@garbage"],
    "--mode": ["x"],
    "--init": [None, "@inconsistent", "@missing", "@garbage"],
    "--unsafe": [None, "@missing", "@garbage"],
    "--directions": ["@wide", "@missing"],
    "--time-step": ["0", "-0.1", "nan", "abc", "2"],
    "--time-bound": ["-1", "inf", "x"],
    "--propagation": ["expm", "adaptive", "rk4"],  # removed flags
    "--abs-tol": ["1e-10", "0", "nan"],
    "--out": ["@garbage"],
    "--frobnicate": ["1"],
}
ARGUMENTS = st.tuples(
    st.fixed_dictionaries({flag: st.sampled_from(values) for flag, values in GOOD.items()}),
    st.lists(
        st.sampled_from([(flag, value) for flag, values in BAD.items() for value in values]),
        max_size=2,
    ),
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(ARGUMENTS)
def test_exit_code_contract_holds_for_drawn_arguments(drawn):
    good, bad = drawn
    arguments = {**good, **dict(bad)}
    with tempfile.TemporaryDirectory() as scratch:
        files = _write_inputs(Path(scratch))
        files["out"] = Path(scratch) / "out"
        argv = []
        for flag, value in arguments.items():
            if value is not None:
                argv += [flag, str(files[value[1:]]) if value.startswith("@") else value]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in {0, 2, 3, 4, 5, 6}
        if code:
            error = json.loads(stderr.getvalue().strip().splitlines()[-1])
            assert set(error) == {"error", "message"}
