"""Command-line front end.

Loads a model (file or builtin alias), runs one of the pipeline modes,
and writes machine-readable artifacts into the output directory:

* ``verdict.json`` -- always; mode-specific fields plus per-phase timings
* ``trace.csv`` -- verify mode, when the verdict is unsafe
* ``reach.csv`` -- reach mode; per-step star basis entries
* ``bounds.csv`` -- reach/verify modes when ``--directions`` is given;
  per-step min/max of each direction over the coefficient polytope, read
  off the predicate's vertices when it is a bounded polytope with few
  vertices and solved as two LPs per direction and step otherwise

Exit codes: 0 for a completed run (either verdict), 2 parse/model errors,
3 inconsistent initial set, 4 index above 3, 5 irregular pencil,
6 numerical failure.  A failed run leaves an error verdict, never one
from an earlier run in the same directory.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lp
from .consistency import build_consistent_matrix, check_initial_star
from .decoupling import compute_index_and_chain, decouple_system
from .errors import (
    DaeError,
    DimensionMismatchError,
    EmptyPredicateError,
    InconsistentInitialSetError,
    IndexTooHighError,
    IrregularPencilError,
    NonsingularEError,
    NumericalFailureError,
    ParseError,
    UnboundedPredicateError,
)
from .linalg import DEFAULT_TOLERANCES
from .model import REGULARITY_SEED, to_autonomous
from .modelio import load_directions, load_initial_star, load_model, load_unsafe
from .reachability import (
    ADAPTIVE_INTEGRATOR,
    TRANSITION_MATRIX,
    ReachSettings,
    compute_reach,
)
from .safety import verify

__all__ = ["JobConfig", "build_parser", "run_job", "main"]

MODES = ("index", "decouple", "check-consistency", "reach", "verify")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_INDEX_TOO_HIGH = 4
EXIT_IRREGULAR = 5
EXIT_NUMERICAL = 6

_ERROR_CLASSES = (
    (ParseError, "parse", EXIT_PARSE),
    (NonsingularEError, "nonsingular-e", EXIT_PARSE),
    (DimensionMismatchError, "dimension-mismatch", EXIT_PARSE),
    (EmptyPredicateError, "empty-predicate", EXIT_PARSE),
    (UnboundedPredicateError, "unbounded-predicate", EXIT_PARSE),
    (InconsistentInitialSetError, "inconsistent-init", EXIT_INCONSISTENT),
    (IndexTooHighError, "index-too-high", EXIT_INDEX_TOO_HIGH),
    (IrregularPencilError, "irregular-pencil", EXIT_IRREGULAR),
    (NumericalFailureError, "numerical-failure", EXIT_NUMERICAL),
)


@dataclass
class JobConfig:
    """Everything one pipeline run needs."""

    model_path: str
    mode: str = "verify"
    init_path: str | None = None
    unsafe_path: str | None = None
    time_step: float = 0.01
    time_bound: float = 10.0
    propagation_mode: str = TRANSITION_MATRIX
    abs_tol: float = 1e-12
    rel_tol: float = 1e-8
    output_dir: str = "."
    seed: int = REGULARITY_SEED
    directions_path: str | None = None

    @property
    def num_steps(self):
        steps = round(self.time_bound / self.time_step)
        if steps < 1:
            raise ParseError(
                f"time bound {self.time_bound} spans no steps of size {self.time_step}"
            )
        return steps

    def reach_settings(self):
        return ReachSettings(
            time_step=self.time_step,
            num_steps=self.num_steps,
            propagation_mode=self.propagation_mode,
            integrator_abs_tol=self.abs_tol,
            integrator_rel_tol=self.rel_tol,
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="daereach",
        description=(
            "Bounded-time safety verification and falsification of linear "
            "DAE systems (index 1-3) via decoupling and star-set reachability."
        ),
    )
    parser.add_argument(
        "--model",
        required=True,
        help="model file, or builtin:rotating-masses / builtin:stokes:<k>",
    )
    parser.add_argument("--init", help="initial star file (V, C, d)")
    parser.add_argument("--unsafe", help="unsafe set file (G, f)")
    parser.add_argument("--mode", choices=MODES, default="verify")
    parser.add_argument("--time-step", type=float, default=0.01, metavar="H")
    parser.add_argument("--time-bound", type=float, default=10.0, metavar="T")
    parser.add_argument(
        "--propagation",
        choices=("expm", "adaptive"),
        default="expm",
        help="basis propagation: one reused matrix exponential, or an "
        "adaptive integrator per basis column",
    )
    parser.add_argument("--abs-tol", type=float, default=1e-12)
    parser.add_argument("--rel-tol", type=float, default=1e-8)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=REGULARITY_SEED)
    parser.add_argument(
        "--directions",
        help="directions file; adds per-step extrema of each direction to bounds.csv",
    )
    return parser


def config_from_args(args):
    return JobConfig(
        model_path=args.model,
        mode=args.mode,
        init_path=args.init,
        unsafe_path=args.unsafe,
        time_step=args.time_step,
        time_bound=args.time_bound,
        propagation_mode=TRANSITION_MATRIX if args.propagation == "expm" else ADAPTIVE_INTEGRATOR,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        output_dir=args.out,
        seed=args.seed,
        directions_path=args.directions,
    )


def _check_numbers(cfg):
    """:class:`ParseError` for a numeric argument outside its domain."""
    positive = {
        "--time-step": cfg.time_step,
        "--time-bound": cfg.time_bound,
        "--abs-tol": cfg.abs_tol,
        "--rel-tol": cfg.rel_tol,
    }
    for flag, value in positive.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ParseError(f"must be positive and finite, got {value!r}", field=flag)
    if not math.isfinite(cfg.time_bound / cfg.time_step):
        raise ParseError("the step count overflows", field="--time-bound")
    if cfg.seed < 0:
        raise ParseError(f"must be non-negative, got {cfg.seed!r}", field="--seed")


def _format(value):
    return f"{value:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format(v) for v in row) + "\n")


def _write_verdict(out_dir, payload, timings):
    document = dict(payload)
    document["timings"] = {k: round(v, 6) for k, v in timings.items()}
    with open(out_dir / "verdict.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_trace(out_dir, times, trace, n_orig):
    dim = trace.shape[1]
    header = ["time"] + [f"x{i}" for i in range(n_orig)] + [
        f"u{i}" for i in range(dim - n_orig)
    ]
    rows = (np.concatenate([[t], row]) for t, row in zip(times, trace))
    _write_csv(out_dir / "trace.csv", header, rows)


def _write_reach(out_dir, times, bases):
    steps, dim, width = bases.shape
    header = ["time"] + [f"v{r}_{c}" for c in range(width) for r in range(dim)]
    columns = bases.transpose(0, 2, 1).reshape(steps, -1)  # column-major per step
    _write_csv(out_dir / "reach.csv", header, np.column_stack([times, columns]))


def _write_bounds(out_dir, times, reach, directions, tol):
    """Per-step extrema of each direction row over the coefficient polytope."""
    bases, predicate = reach.bases, reach.initial
    dim = bases.shape[1]
    q, cols = directions.shape
    if cols < dim:
        directions = np.hstack([directions, np.zeros((q, dim - cols))])
    elif cols > dim:
        raise DimensionMismatchError(
            f"directions have {cols} columns but the state dimension is {dim}"
        )
    header = ["time"]
    for i in range(q):
        header += [f"dir{i}_min", f"dir{i}_max"]
    projected = directions @ bases  # (steps, q, k)
    extrema = np.empty(projected.shape[:2] + (2,))
    vertices = predicate.vertices_within(len(bases), tol)
    if vertices is not None:
        values = projected @ vertices.T
        extrema[..., 0] = values.min(axis=2)
        extrema[..., 1] = values.max(axis=2)
    else:
        C, d, ftol = predicate.C, predicate.d, tol.feasibility_tol
        for t, step, row in zip(times, projected, extrema):
            for i in range(q):
                lo = lp.solve_lp(step[i], C, d, tol=ftol)
                hi = lp.solve_lp(-step[i], C, d, tol=ftol)
                if lp.UNBOUNDED in (lo.status, hi.status):
                    raise UnboundedPredicateError(
                        f"direction {i} is unbounded over the predicate at time {t}"
                    )
                if lo.status != lp.OPTIMAL or hi.status != lp.OPTIMAL:
                    raise NumericalFailureError(f"direction {i} failed at time {t}")
                row[i] = lo.objective, -hi.objective
    rows = np.column_stack([times, extrema.reshape(len(bases), 2 * q)])
    _write_csv(out_dir / "bounds.csv", header, rows)


def run_job(cfg):
    """Execute one configured run; returns the process exit code.

    Removes any earlier ``verdict.json`` from the output directory first,
    so a run that raises leaves none unless it wrote its own.
    """
    tol = DEFAULT_TOLERANCES
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verdict.json").unlink(missing_ok=True)
    started = time.perf_counter()
    _check_numbers(cfg)

    system, inputs = load_model(cfg.model_path)
    autonomous = to_autonomous(system, inputs)
    payload = {"mode": cfg.mode, "model": str(cfg.model_path), "seed": cfg.seed}

    if cfg.mode == "index":
        chain = compute_index_and_chain(autonomous, tol, regularity_seed=cfg.seed)
        print(f"index: {chain.mu}")
        payload["index"] = chain.mu
        _write_verdict(out_dir, payload, {"total_s": time.perf_counter() - started})
        return EXIT_OK

    if cfg.mode == "decouple":
        dec = decouple_system(autonomous, tol, regularity_seed=cfg.seed)
        document = {
            "index": dec.mu,
            "N": {str(i): [list(map(float, r)) for r in dec.N[i]] for i in dec.N},
            "L3": None if dec.L3 is None else [list(map(float, r)) for r in dec.L3],
            "L4": None if dec.L4 is None else [list(map(float, r)) for r in dec.L4],
            "Z4": None if dec.Z4 is None else [list(map(float, r)) for r in dec.Z4],
        }
        with open(out_dir / "decoupled.json", "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"index: {dec.mu}; wrote decoupled.json")
        payload["index"] = dec.mu
        _write_verdict(out_dir, payload, {"total_s": time.perf_counter() - started})
        return EXIT_OK

    if cfg.init_path is None:
        raise ParseError(f"mode {cfg.mode!r} requires --init")
    theta0 = load_initial_star(cfg.init_path, system.n, autonomous.m_orig)

    if cfg.mode == "check-consistency":
        dec = decouple_system(autonomous, tol, regularity_seed=cfg.seed)
        cert = check_initial_star(build_consistent_matrix(dec), theta0, tol)
        payload.update(
            {
                "index": dec.mu,
                "consistent": cert.consistent,
                "max_residual": cert.max_residual,
                "worst_column": cert.worst_column,
                "worst_row_block": cert.worst_row_block,
            }
        )
        _write_verdict(out_dir, payload, {"total_s": time.perf_counter() - started})
        if not cert.consistent:
            raise InconsistentInitialSetError(cert)
        print(f"consistent (max residual {cert.max_residual:.3e})")
        return EXIT_OK

    settings = cfg.reach_settings()
    reach = compute_reach(autonomous, theta0, settings, tol, regularity_seed=cfg.seed)
    times = settings.times
    timings = dict(reach.timings)
    payload.update(
        {
            "index": reach.decoupled.mu,
            "time_step": cfg.time_step,
            "num_steps": settings.num_steps,
            "propagation": cfg.propagation_mode,
        }
    )

    directions = None
    if cfg.directions_path is not None:
        directions = load_directions(cfg.directions_path)

    if cfg.mode == "reach":
        _write_reach(out_dir, times, reach.bases)
        if directions is not None:
            _write_bounds(out_dir, times, reach, directions, tol)
        payload["num_stars"] = len(reach.bases)
        timings["total_s"] = time.perf_counter() - started
        _write_verdict(out_dir, payload, timings)
        print(f"reach: {len(reach.bases)} stars written")
        return EXIT_OK

    # verify
    if cfg.unsafe_path is None:
        raise ParseError("mode 'verify' requires --unsafe")
    unsafe = load_unsafe(cfg.unsafe_path)
    check_started = time.perf_counter()
    outcome = verify(reach, unsafe, tol)
    timings["safety_s"] = time.perf_counter() - check_started
    payload.update(
        {
            "status": outcome.status,
            "first_unsafe_step": outcome.first_unsafe_step,
            "first_unsafe_time": None
            if outcome.first_unsafe_step is None
            else outcome.first_unsafe_step * cfg.time_step,
            "lp_calls": outcome.lp_calls,
            "screened_steps": outcome.screened_steps,
        }
    )
    if not outcome.is_safe:
        _write_trace(out_dir, times, outcome.unsafe_trace, autonomous.n_orig)
    if directions is not None:
        _write_bounds(out_dir, times, reach, directions, tol)
    timings["total_s"] = time.perf_counter() - started
    _write_verdict(out_dir, payload, timings)
    print(f"verdict: {outcome.status}")
    if outcome.first_unsafe_step is not None:
        print(f"first unsafe step: {outcome.first_unsafe_step}")
    return EXIT_OK


def _classify(exc):
    for klass, label, code in _ERROR_CLASSES:
        if isinstance(exc, klass):
            return label, code
    return "error", EXIT_NUMERICAL


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    started = time.perf_counter()
    try:
        return run_job(cfg)
    except DaeError as exc:
        label, code = _classify(exc)
        error = {"error": label, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        out_dir = Path(cfg.output_dir)
        if not (out_dir / "verdict.json").exists():  # else the run wrote its own
            _write_verdict(out_dir, error, {"total_s": time.perf_counter() - started})
        return code


if __name__ == "__main__":
    sys.exit(main())
