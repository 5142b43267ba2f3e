"""The package runs on numpy alone: importing it and running the CLI end to
end loads no ``scipy`` module (scipy is a test dependency only)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import daereach
from daereach import load_model, rotating_masses_initial_star, to_autonomous

from oracles import box_star, reference_decoupled, write_json

# runs in a fresh interpreter: the checks come after both CLI runs, so an
# import moved into a function body is caught too
_CHILD = """
import json, sys
import daereach, daereach.cli
codes = [daereach.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_load_no_scipy_module(tmp_path):
    rm_init, unsafe = tmp_path / "rm_init.json", tmp_path / "unsafe.json"
    star = rotating_masses_initial_star()
    write_json(rm_init, V=star.V, C=star.C, d=star.d)
    write_json(unsafe, G=[[0.0, 0.0, 0.0, 1.0]], f=[-1.0])
    auto = to_autonomous(*load_model("builtin:stokes:4"))
    stokes_init = tmp_path / "stokes_init.json"
    gamma = reference_decoupled(auto).gamma
    star = box_star(np.random.default_rng(3), gamma, auto.n, 2)
    write_json(stokes_init, V=star.V, C=star.C, d=star.d)
    runs = [
        ["--model", "builtin:rotating-masses", "--init", str(rm_init), "--unsafe", str(unsafe)]
        + ["--time-step", "0.01", "--time-bound", "1", "--out", str(tmp_path / "verify")],
        ["--model", "builtin:stokes:4", "--init", str(stokes_init)]
        + ["--mode", "check-consistency", "--out", str(tmp_path / "consistency")],
    ]
    src = str(Path(daereach.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "scipy": []}
    verdict = json.loads((tmp_path / "verify" / "verdict.json").read_text())
    assert verdict["status"] == "safe"
