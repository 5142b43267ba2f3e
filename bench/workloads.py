"""Workload definitions, seeded input generation and correctness gates.

Each workload is one fixed pipeline job.  Its input files (model, initial
star, unsafe set, directions) are generated from the workload seed and
written to disk; the ``daereach`` CLI then receives only those files.

The gates check every job's outputs against facts that do not come from
the library's own algebra: the expected verdict, a witness replay from
``trace.csv``, the model's algebraic equations along the witness, and
``bounds.csv`` at ``t = 0`` against the extrema over the box vertices.
"""

import csv
import json
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from daereach import build_stokes, stokes_center_velocity_rows

# Rotating masses: states are two angular velocities and two coupling
# torques, inputs two harmonic torques (u' = A_u u).  Index 2.
RM_E = np.diag([1.0, 2.0, 0.0, 0.0])
RM_A = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, -1.0],
        [-1.0, 1.0, 0.0, 0.0],
    ]
)
RM_B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
RM_AU = np.array([[0.0, 1.0], [-1.0, 0.0]])
# consistent lifted basis (state, input) and its coefficient box
RM_V0 = np.column_stack(
    [
        np.array([0.0, 0.0, 5.0, -5.0, -6.0, 3.0]) / np.sqrt(95.0),
        np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0]) / np.sqrt(5.0),
    ]
)
RM_BOX = ((0.1, 0.2), (1.0, 1.2))
STOKES_BOX = ((-1.0, 1.0), (-1.0, 1.0))

# slack of the witness replay checks, relative to the compared magnitudes
REPLAY_TOL = 1e-7
# agreement of LP extrema with vertex extrema, relative to max(1, |value|)
BOUNDS_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One benchmark job: the model, the pipeline mode and what must come out."""

    name: str
    model: str  # "rotating-masses" or "stokes"
    mode: str  # CLI mode: "verify" or "reach"
    time_step: float
    num_steps: int
    unsafe: tuple | None  # (state row or "center", sign, bound): sign * x <= bound
    directions: bool
    expect_status: str | None
    expect_first_unsafe: int | None
    expect_index: int
    grid: int = 0
    meter: str = "interpreter"  # the host meter that resembles the dominant cost

    @property
    def instants(self):
        return self.num_steps + 1

    @property
    def time_bound(self):
        return self.time_step * self.num_steps


# BENCHMARK.json and README.md record why each workload was chosen
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rm-safe-1k", "rotating-masses", "verify", 0.01, 1_000,
            unsafe=(3, 1.0, -1.0), directions=False,
            expect_status="safe", expect_first_unsafe=None, expect_index=2,
        ),
        Workload(
            "rm-unsafe-2k", "rotating-masses", "verify", 0.01, 2_000,
            unsafe=(2, 1.0, -0.9), directions=False,
            expect_status="unsafe", expect_first_unsafe=166, expect_index=2,
        ),
        Workload(
            "rm-bounds-200", "rotating-masses", "reach", 0.01, 200,
            unsafe=None, directions=True,
            expect_status=None, expect_first_unsafe=None, expect_index=2,
        ),
        Workload(
            "stokes-k12", "stokes", "verify", 1e-4, 100, grid=12, meter="dense",
            unsafe=("center", -1.0, -5.0), directions=False,
            expect_status="safe", expect_first_unsafe=None, expect_index=2,
        ),
    )
}

# Tiny variants for the smoke mode and for warming a worker up: about ten
# steps each, Stokes at k = 4.  The unsafe variant takes larger steps so
# that step 10 (t = 1.7) already lies in the unsafe window.
SMOKE = {
    "rm-safe-1k": dict(num_steps=10),
    "rm-unsafe-2k": dict(time_step=0.17, num_steps=10, expect_first_unsafe=10),
    "rm-bounds-200": dict(num_steps=10),
    "stokes-k12": dict(num_steps=10, grid=4),
}


def smoke_variant(workload):
    return replace(workload, **SMOKE[workload.name])


@dataclass
class Inputs:
    """Generated input files of one workload plus the arrays behind them."""

    workload: Workload
    directory: Path
    E: np.ndarray  # lifted autonomous pair, for the algebraic-equation gate
    A: np.ndarray
    V0: np.ndarray  # lifted initial basis
    box: tuple  # (low, high) of each coefficient
    G: np.ndarray | None  # unsafe set over the lifted state
    f: np.ndarray | None
    D: np.ndarray | None  # directions over the lifted state

    def cli_argv(self, out_dir, with_directions=True):
        w = self.workload
        argv = [
            "--model", str(self.directory / "model.json"),
            "--init", str(self.directory / "init.json"),
            "--mode", w.mode,
            "--time-step", repr(w.time_step),
            "--time-bound", repr(w.time_bound),
            "--out", str(out_dir),
        ]
        if self.G is not None:
            argv += ["--unsafe", str(self.directory / "unsafe.json")]
        if self.D is not None and with_directions:
            argv += ["--directions", str(self.directory / "directions.json")]
        return argv


def _box_predicate(box):
    """``C alpha <= d`` for the coefficient box ``low <= alpha <= high``."""
    k = len(box)
    C = np.vstack([np.eye(k), -np.eye(k)])
    d = np.array([high for _, high in box] + [-low for low, _ in box])
    return C, d


def _dense(matrix):
    return [[float(v) for v in row] for row in matrix]


def _triples(matrix):
    rows, cols = np.nonzero(matrix)
    return {
        "shape": list(matrix.shape),
        "triples": [[int(i), int(j), float(matrix[i, j])] for i, j in zip(rows, cols)],
    }


def _write_json(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _stokes_consistent_basis(A, n_v, rng):
    """Two seeded consistent states of the index-2 Stokes DAE.

    A consistent state has a divergence-free velocity (``G^T v = 0``, the
    discrete Leray projection of a random vector) and the pressure fixed
    by the hidden constraint ``G^T (L v + G p) = 0``.  Each column's
    velocity part has unit 2-norm.
    """
    L, G = A[:n_v, :n_v], A[:n_v, n_v:]
    if not (np.allclose(L, L.T) and np.allclose(A[n_v:, :n_v], G.T)):
        raise ValueError("Stokes model lost its saddle-point structure")
    gram = G.T @ G
    W = rng.standard_normal((n_v, 2))
    W -= G @ np.linalg.solve(gram, G.T @ W)
    W /= np.linalg.norm(W, axis=0)
    P = -np.linalg.solve(gram, G.T @ (L @ W))
    return np.vstack([W, P])


def generate(workload, seed, directory):
    """Write the workload's input files into ``directory`` from ``seed``.

    The seed drives the Stokes initial basis and the second direction row;
    the rotating-masses star and unsafe sets are fixed, because their
    verdicts (safe; first unsafe step 166) are the expected results.
    """
    rng = np.random.default_rng(seed % 2**64)  # the generator takes no negative seeds
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    w = workload
    if w.model == "rotating-masses":
        n, m = 4, 2
        _write_json(
            directory / "model.json",
            {"n": n, "m": m, "E": _dense(RM_E), "A": _dense(RM_A),
             "B": _dense(RM_B), "A_u": _dense(RM_AU)},
        )
        E = np.block([[RM_E, np.zeros((n, m))], [np.zeros((m, n)), np.eye(m)]])
        A = np.block([[RM_A, RM_B], [np.zeros((m, n)), RM_AU]])
        V0, box = RM_V0, RM_BOX
    else:
        model = build_stokes(w.grid)
        n, m = model.n, model.m
        _write_json(
            directory / "model.json",
            {"n": n, "m": m, "E": _triples(model.E), "A": _triples(model.A),
             "B": _triples(model.B), "A_u": None},
        )
        E, A = np.asarray(model.E), np.asarray(model.A)
        V0 = _stokes_consistent_basis(A, 2 * w.grid * (w.grid - 1), rng)
        box = STOKES_BOX
    dim = E.shape[0]
    C, d = _box_predicate(box)
    _write_json(directory / "init.json", {"V": _dense(V0), "C": _dense(C), "d": list(d)})

    G = f = D = None
    if w.unsafe is not None:
        row, sign, bound = w.unsafe
        G = np.zeros((1, dim))
        if row == "center":
            G[0, list(stokes_center_velocity_rows(w.grid))] = sign
        else:
            G[0, row] = sign
        f = np.array([bound])
        _write_json(directory / "unsafe.json", {"G": _dense(G[:, :n]), "f": list(f)})
    if w.directions:
        second = rng.standard_normal(n)
        D_orig = np.vstack([np.eye(n)[2], second / np.linalg.norm(second)])
        _write_json(directory / "directions.json", {"D": _dense(D_orig)})
        D = np.hstack([D_orig, np.zeros((2, dim - n))])
    return Inputs(w, directory, E, A, V0, box, G, f, D)


# ---------------------------------------------------------------- gates


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def replay_witness(inputs, trace, first_step):
    """Problems with a counterexample trace (one row per instant, lifted state)."""
    w = inputs.workload
    problems = []
    if trace.shape != (w.instants, inputs.E.shape[0]):
        return [f"trace has shape {trace.shape}, expected ({w.instants}, {inputs.E.shape[0]})"]
    x0 = trace[0]
    alpha, *_ = np.linalg.lstsq(inputs.V0, x0, rcond=None)
    if np.linalg.norm(inputs.V0 @ alpha - x0) > 1e-9 * max(1.0, np.linalg.norm(x0)):
        problems.append("trace row 0 is not in the span of the initial basis")
    low, high = np.array(inputs.box).T
    if np.any(alpha < low - REPLAY_TOL) or np.any(alpha > high + REPLAY_TOL):
        problems.append(f"trace row 0 has coefficients {alpha} outside the initial box")
    excess = inputs.G @ trace[first_step] - inputs.f
    if np.any(excess > REPLAY_TOL * np.maximum(1.0, np.abs(inputs.f))):
        problems.append(f"trace row {first_step} misses the unsafe set by {excess.max():.3e}")
    algebraic = ~inputs.E.any(axis=1)
    residual = np.abs(trace @ inputs.A[algebraic].T).max(initial=0.0)
    if residual > REPLAY_TOL * max(1.0, np.abs(trace).max()):
        problems.append(f"trace violates the model's algebraic equations by {residual:.3e}")
    return problems


def check_bounds(inputs, path):
    """Problems with ``bounds.csv``: rows, ordering, and the ``t = 0`` extrema."""
    w = inputs.workload
    header, rows = _read_csv(path)
    q = inputs.D.shape[0]
    if len(header) != 1 + 2 * q or rows.shape[0] != w.instants:
        return [f"bounds.csv is {rows.shape}, expected {w.instants} rows of {1 + 2 * q}"]
    problems = []
    times = np.arange(w.instants) * w.time_step
    if not np.allclose(rows[:, 0], times, rtol=0.0, atol=1e-9 * max(1.0, times[-1])):
        problems.append("bounds.csv time column does not match the grid")
    lo, hi = rows[:, 1::2], rows[:, 2::2]
    scale = np.maximum(1.0, np.abs(rows[:, 1:]).max())
    if np.any(lo > hi + BOUNDS_TOL * scale):
        problems.append("bounds.csv has a row with min > max")
    vertices = np.array(list(product(*inputs.box)))
    values = inputs.D @ inputs.V0 @ vertices.T  # (q, vertices)
    expected = np.column_stack([values.min(axis=1), values.max(axis=1)]).ravel()
    if not np.allclose(rows[0, 1:], expected, rtol=BOUNDS_TOL, atol=BOUNDS_TOL):
        problems.append(f"t = 0 bounds {rows[0, 1:]} differ from vertex extrema {expected}")
    return problems


def check_cli(inputs, out_dir, exit_code, with_directions=True):
    """Problems with one CLI job's exit code and artifacts; empty when it passed."""
    w = inputs.workload
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out_dir = Path(out_dir)
    with open(out_dir / "verdict.json", encoding="utf-8") as handle:
        verdict = json.load(handle)
    problems = []
    if verdict.get("index") != w.expect_index:
        problems.append(f"index {verdict.get('index')}, expected {w.expect_index}")
    if w.mode == "verify":
        if verdict.get("status") != w.expect_status:
            problems.append(f"status {verdict.get('status')}, expected {w.expect_status}")
        if verdict.get("first_unsafe_step") != w.expect_first_unsafe:
            problems.append(
                f"first unsafe step {verdict.get('first_unsafe_step')}, "
                f"expected {w.expect_first_unsafe}"
            )
        trace_path = out_dir / "trace.csv"
        if w.expect_status == "unsafe":
            if not trace_path.exists():
                problems.append("unsafe verdict without trace.csv")
            elif not problems:
                _, rows = _read_csv(trace_path)
                problems += replay_witness(inputs, rows[:, 1:], w.expect_first_unsafe)
        elif trace_path.exists():
            problems.append("safe verdict wrote a trace.csv")
    else:
        if verdict.get("num_stars") != w.instants:
            problems.append(f"{verdict.get('num_stars')} stars, expected {w.instants}")
        reach_path = out_dir / "reach.csv"
        if not reach_path.exists() or _read_csv(reach_path)[1].shape[0] != w.instants:
            problems.append(f"reach.csv does not have {w.instants} rows")
    if inputs.D is not None and with_directions:
        if (out_dir / "bounds.csv").exists():
            problems += check_bounds(inputs, out_dir / "bounds.csv")
        else:
            problems.append("bounds.csv missing")
    return problems


def check_pipeline(inputs, outcome):
    """Problems with a library-path verification outcome (``None`` in reach mode)."""
    w = inputs.workload
    if w.mode != "verify":
        return []
    problems = []
    if outcome.status != w.expect_status:
        problems.append(f"status {outcome.status}, expected {w.expect_status}")
    if outcome.first_unsafe_step != w.expect_first_unsafe:
        problems.append(
            f"first unsafe step {outcome.first_unsafe_step}, expected {w.expect_first_unsafe}"
        )
    if not problems and w.expect_status == "unsafe":
        problems += replay_witness(inputs, np.asarray(outcome.unsafe_trace), w.expect_first_unsafe)
    return problems
