import json

import numpy as np
import pytest

from daereach import (
    UnsafeSpec,
    rotating_masses_initial_star,
    save_initial_star,
    save_unsafe,
)
from daereach.cli import (
    EXIT_INCONSISTENT,
    EXIT_INDEX_TOO_HIGH,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    main,
)


@pytest.fixture
def benchmark_files(tmp_path):
    init = tmp_path / "init.json"
    save_initial_star(init, rotating_masses_initial_star())
    unsafe = tmp_path / "unsafe.json"
    save_unsafe(unsafe, UnsafeSpec([[0.0, 0.0, 1.0, 0.0]], [-0.9]))
    return init, unsafe


def run(argv):
    return main(argv)


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
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1001  # header plus one row per instant
        assert lines[0].startswith("time,x0,x1,x2,x3,u0,u1")
        assert "verdict: unsafe" in capsys.readouterr().out

    def test_safe_run_has_no_trace(self, tmp_path, benchmark_files):
        init, _ = benchmark_files
        unsafe = tmp_path / "safe_spec.json"
        save_unsafe(unsafe, UnsafeSpec([[0.0, 0.0, 0.0, 1.0]], [-1.0]))
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
        assert not (out / "trace.csv").exists()

    def test_adaptive_propagation_matches_expm_verdict(self, tmp_path, benchmark_files):
        init, unsafe = benchmark_files
        verdicts = {}
        for mode in ("expm", "adaptive"):
            out = tmp_path / f"prop_{mode}"
            code = run(
                [
                    "--model", "builtin:rotating-masses",
                    "--init", str(init),
                    "--unsafe", str(unsafe),
                    "--time-step", "0.02",
                    "--time-bound", "4",
                    "--propagation", mode,
                    "--out", str(out),
                ]
            )
            assert code == EXIT_OK
            verdicts[mode] = json.loads((out / "verdict.json").read_text())
        assert verdicts["expm"]["status"] == verdicts["adaptive"]["status"] == "unsafe"
        assert (
            verdicts["expm"]["first_unsafe_step"]
            == verdicts["adaptive"]["first_unsafe_step"]
        )

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

    def test_decouple_mode_writes_coefficients(self, tmp_path):
        code = run(
            ["--model", "builtin:rotating-masses", "--mode", "decouple", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "decoupled.json").read_text())
        assert doc["index"] == 2
        assert np.abs(np.array(doc["N"]["2"])).max() <= 1e-12

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

    def test_check_consistency_perturbed_exits_3(self, tmp_path, capsys):
        star = rotating_masses_initial_star()
        V = star.V.copy()
        V[2, 0] += 1.0
        from daereach import StarSet

        bad = StarSet(V, star.C, star.d)
        init = tmp_path / "bad_init.json"
        save_initial_star(init, bad)
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


def cut_box_predicate():
    """The bundled box with one corner cut off: five vertex subsets' worth."""
    star = rotating_masses_initial_star()
    return np.vstack([star.C, [[1.0, 1.0]]]), np.concatenate([star.d, [1.3]])


def twelve_gon_predicate():
    """Twelve constraints on two coefficients: C(12, 2) = 66 vertex subsets."""
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    C = np.column_stack([np.cos(angles), np.sin(angles)])
    return C, C @ np.array([0.15, 1.1]) + 0.05


class TestBoundsAgainstLps:
    @pytest.mark.parametrize("predicate", [cut_box_predicate, twelve_gon_predicate])
    def test_bounds_match_per_step_lps(self, tmp_path, rotating_masses_auto, predicate):
        # 21 instants: the cut box takes the vertex path, the 12-gon the
        # per-step LPs; both must give the LP extrema
        from daereach import ReachSettings, StarSet, compute_reach, lp

        C, d = predicate()
        star = StarSet(rotating_masses_initial_star().V, C, d)
        init = tmp_path / "init.json"
        save_initial_star(init, star)
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

        reach = compute_reach(rotating_masses_auto, star, ReachSettings(0.1, 20))
        takes_vertices = reach.initial.vertices_within(len(reach.bases)) is not None
        assert takes_vertices == (predicate is cut_box_predicate)
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

    def test_index_too_high_exit_code(self, tmp_path, capsys):
        from oracles import CanonicalDae
        from daereach import save_model, DaeSystem

        ws = CanonicalDae(np.random.default_rng(0), 2, [4])
        model = tmp_path / "index4.json"
        save_model(model, DaeSystem(ws.E, ws.A))
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
            ("--rel-tol", "0"),
            ("--abs-tol", "nan"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_numeric_argument_is_parse_error(
        self, tmp_path, benchmark_files, capsys, flag, value
    ):
        init, unsafe = benchmark_files
        argv = ["--model", "builtin:rotating-masses", "--init", str(init)]
        argv += ["--unsafe", str(unsafe), "--out", str(tmp_path / "out")]
        argv += ["--time-step", "1e-300"] if value == "1e300" else []
        code = run(argv + [flag, value])
        assert code == EXIT_PARSE
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "parse"
        assert flag in error["message"]

    def test_unbounded_directions_predicate(self, tmp_path, capsys):
        # the bundled box without its alpha_1 <= 0.2 row: the monitored
        # torque grows without bound along alpha_1
        star = rotating_masses_initial_star()
        from daereach import StarSet

        init = tmp_path / "init.json"
        save_initial_star(init, StarSet(star.V, star.C[1:], star.d[1:]))
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

    def test_failed_integration_is_numerical_failure(
        self, tmp_path, benchmark_files, capsys, monkeypatch
    ):
        import types

        import scipy.integrate

        def failing(*args, **kwargs):
            return types.SimpleNamespace(success=False, message="step size too small")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", failing)
        init, unsafe = benchmark_files
        code = run(
            [
                "--model", "builtin:rotating-masses",
                "--init", str(init),
                "--unsafe", str(unsafe),
                "--propagation", "adaptive",
                "--time-step", "0.1",
                "--time-bound", "1.0",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_NUMERICAL
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "numerical-failure"
        assert "step size too small" in error["message"]

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
