"""Checks of the benchmark harness itself.

Run with ``python3 -m pytest bench/test_bench.py``.  The smoke run pushes
all four workloads at tiny size through the harness, untraced and traced,
in seconds; the gate tests corrupt real artifacts and expect the gate to
report them.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import daereach.cli  # noqa: E402

import workloads as wl  # noqa: E402


def test_smoke_run_passes_every_gate():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert f"{workload['name']}:{metric['name']}" in result["metrics"]


def _run(name, tmp_path, seed=3):
    inputs = wl.generate(wl.smoke_variant(wl.WORKLOADS[name]), seed, tmp_path / "in")
    out = tmp_path / "out"
    code = daereach.cli.main(inputs.cli_argv(out))
    assert wl.check_cli(inputs, out, code) == []
    return inputs, out


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(repr(v) for v in row) for row in rows]) + "\n")


def test_gate_rejects_a_wrong_verdict(tmp_path):
    inputs, out = _run("rm-safe-1k", tmp_path)
    verdict = json.loads((out / "verdict.json").read_text())
    verdict["status"] = "unsafe"
    (out / "verdict.json").write_text(json.dumps(verdict))
    assert wl.check_cli(inputs, out, 0)


@pytest.mark.parametrize("row, column, delta", [(0, 1, 0.5), (10, 3, 1.0)])
def test_gate_rejects_a_witness_that_does_not_replay(tmp_path, row, column, delta):
    # row 0 leaves the span of the initial basis; the last row leaves the unsafe set
    inputs, out = _run("rm-unsafe-2k", tmp_path)

    def edit(rows):
        rows[row][column] += delta

    _rewrite_csv(out / "trace.csv", edit)
    assert wl.check_cli(inputs, out, 0)


def test_gate_rejects_bounds_that_disagree_with_the_vertices(tmp_path):
    inputs, out = _run("rm-bounds-200", tmp_path)

    def edit(rows):
        rows[0][1] -= 1e-3

    _rewrite_csv(out / "bounds.csv", edit)
    assert wl.check_cli(inputs, out, 0)


def test_stokes_inputs_depend_on_the_seed_only(tmp_path):
    workload = wl.smoke_variant(wl.WORKLOADS["stokes-k12"])
    first = wl.generate(workload, 5, tmp_path / "a")
    again = wl.generate(workload, 5, tmp_path / "b")
    other = wl.generate(workload, 6, tmp_path / "c")
    assert (tmp_path / "a" / "init.json").read_bytes() == (tmp_path / "b" / "init.json").read_bytes()
    assert not np.allclose(first.V0, other.V0)
