"""Command-line front end.

Parses the arguments, loads a model (file or builtin alias), runs one of
the pipeline modes, and writes machine-readable artifacts into the
output directory:

* ``verdict.json`` -- always; mode-specific fields plus ``timings`` in
  seconds: ``decouple_s`` (reach and verify: the chain, the admissible
  correction, the lazily built ``W``, ``W^T N_1 W`` and lift with the
  check of the one solve they take, and the consistency check),
  ``reach_s`` (reach and verify: the expm and the propagation),
  ``safety_s`` (verify: the pull-back, the screen, the LPs and the trace)
  and ``total_s`` (the whole run)
* ``trace.csv`` -- verify mode, when the verdict is unsafe
* ``reach.csv`` -- reach mode; per-step star basis entries
* ``bounds.csv`` -- reach/verify modes when ``--directions`` is given;
  per-step min/max of each direction over the coefficient polytope, from
  the predicate's support function (:meth:`StarSet.support`): closed form
  for a box, the vertices of a bounded polytope with few of them, and two
  LPs per direction and step otherwise

The CSV values are the bytes of ``"%.17g" % v``
(:func:`~daereach.csvtext.write_csv`).

Exit codes: 0 for a completed run (either verdict), 2 parse/model errors,
3 inconsistent initial set, 4 index above 3, 5 irregular pencil,
6 numerical failure or a singular matrix.  Every failure prints one JSON
line ``{"error": ..., "message": ...}`` to stderr, bad arguments included.
Arguments that do not parse write nothing; an ``--out`` that cannot be
created is a parse error; a step count too large for an array exits 6.
A failed run leaves an error verdict with the same two keys, never one
from an earlier run in the same directory; an inconsistent initial set's
also names the mode and model and carries the consistency certificate.
Every completed run's verdict reports the health of the stages it ran:
the chain's rank decisions and certified terminal bound, and past the
index, the ODE rank and the corrected chain's residuals: the residual of
the terminal solve the lift reads (``solve_residual``), or in decouple
mode, which writes the dense coefficients, the full residual of the
terminal inverse (``terminal_inverse_residual``); it also states the
``tolerances`` the run decided by.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .consistency import check_initial_star
from .csvtext import write_csv as _write_csv
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
    SingularMatrixError,
    UnboundedPredicateError,
)
from .linalg import CERTIFICATE_MARGIN, CONSISTENCY_TOL, FEASIBILITY_TOL, RANK_REL_TOL
from .model import to_autonomous
from .modelio import load_directions, load_initial_star, load_model, load_unsafe
from .reachability import ReachSettings, compute_reach
from .safety import over_state, verify

__all__ = ["build_parser", "run_job", "main"]

MODES = ("index", "decouple", "check-consistency", "reach", "verify")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_INDEX_TOO_HIGH = 4
EXIT_IRREGULAR = 5
EXIT_NUMERICAL = 6

# the thresholds every completed run decides by, stated in its verdict
_TOLERANCES = {
    "rank_rel_tol": RANK_REL_TOL,
    "consistency_tol": CONSISTENCY_TOL,
    "feasibility_tol": FEASIBILITY_TOL,
    "certificate_margin": CERTIFICATE_MARGIN,
}

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
    (SingularMatrixError, "singular-matrix", EXIT_NUMERICAL),
    (MemoryError, "numerical-failure", EXIT_NUMERICAL),  # an array the grid outgrew
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as :class:`ParseError` instead of printing
    usage and exiting, so it takes the same error path as every failure."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    parser = _Parser(
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
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--directions",
        help="directions file; adds per-step extrema of each direction to bounds.csv",
    )
    return parser


def _reach_settings(args):
    """The numeric arguments as :class:`ReachSettings`; a value outside its
    domain raises :class:`ParseError` naming its flag.  ``--time-bound``
    must be a whole number of steps: rounding would move the horizon."""
    positive = {"--time-step": args.time_step, "--time-bound": args.time_bound}
    for flag, value in positive.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ParseError(f"must be positive and finite, got {value!r}", field=flag)
    ratio = args.time_bound / args.time_step
    if not math.isfinite(ratio):
        raise ParseError("the step count overflows", field="--time-bound")
    num_steps = round(ratio)  # within 1e-9 is whole: 0.01 / 1e-4 = 100.00000000000001
    if num_steps < 1 or abs(ratio - num_steps) > 1e-9 * ratio:
        raise ParseError(
            f"spans {ratio:.12g} steps of size {args.time_step}, not a whole number",
            field="--time-bound",
        )
    return ReachSettings(time_step=args.time_step, num_steps=num_steps)


def _write_json(path, document, indent):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def _write_verdict(out_dir, payload, timings):
    document = dict(payload)
    document["timings"] = {k: round(v, 6) for k, v in timings.items()}
    _write_json(out_dir / "verdict.json", document, indent=2)


def _write_trace(out_dir, times, trace, n_orig):
    inputs = trace.shape[1] - n_orig
    header = ["time"] + [f"x{i}" for i in range(n_orig)] + [f"u{i}" for i in range(inputs)]
    _write_csv(out_dir / "trace.csv", header, np.column_stack([times, trace]))


def _write_reach(out_dir, times, bases):
    steps, dim, width = bases.shape
    header = ["time"] + [f"v{r}_{c}" for c in range(width) for r in range(dim)]
    columns = bases.transpose(0, 2, 1).reshape(steps, -1)  # column-major per step
    _write_csv(out_dir / "reach.csv", header, np.column_stack([times, columns]))


def _write_bounds(out_dir, times, reach, directions):
    """Per-step extrema of each direction row over the coefficient polytope;
    ``directions`` spans the whole stacked state.  Returns the support
    method that found them."""
    q = directions.shape[0]
    header = ["time"]
    for i in range(q):
        header += [f"dir{i}_min", f"dir{i}_max"]
    support = reach.initial.support(len(times))
    extrema = support.extrema(reach.pull_back(directions), times)  # (steps, q, 2)
    rows = np.column_stack([times, extrema.reshape(len(times), 2 * q)])
    _write_csv(out_dir / "bounds.csv", header, rows)
    return support.method


def _health(chain, decoupled=None, full_check=False):
    """The health fields of the stages a run took: the index, each raw
    chain matrix's rank decision and the certified terminal bound, and,
    given the :class:`~daereach.decoupling.DecoupledSystem`, the ODE rank,
    the residual of the terminal solve the lift reads (with ``full_check``,
    of the whole terminal inverse instead) and the admissibility
    residual."""
    health = {
        "index": chain.mu,
        "chain_decisions": list(chain.decisions),
        "terminal_condition_bound": chain.condition_bound,
    }
    if decoupled is not None:
        health["ode_rank"] = decoupled.ode_rank
        if full_check:
            health["terminal_inverse_residual"] = decoupled.inverse_residual
        else:
            health["solve_residual"] = decoupled.solve_residual
        health["admissibility_residual"] = decoupled.admissibility_residual
    return health


def _consistency(certificate):
    """The verdict fields of a consistency certificate."""
    return {
        "consistent": certificate.consistent,
        "consistency_residual": certificate.max_residual,
        "worst_column": certificate.worst_column,
        "worst_row_block": certificate.worst_row_block,
    }


def _prepare_output(out):
    """The output directory, created if missing, with no earlier verdict in it."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verdict.json").unlink(missing_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot use as output directory: {exc}", field="--out")
    return out_dir


def run_job(args):
    """Execute one run from the namespace :func:`build_parser` parses;
    returns the process exit code.

    Removes any earlier ``verdict.json`` from the output directory first,
    so a run that raises leaves none unless it wrote its own.
    """
    out_dir = _prepare_output(args.out)
    started = time.perf_counter()
    settings = _reach_settings(args)

    system, inputs = load_model(args.model)
    autonomous = to_autonomous(system, inputs)
    payload = {"mode": args.mode, "model": args.model}
    timings = {}

    theta0 = None
    if args.mode in ("check-consistency", "reach", "verify"):
        if args.init is None:
            raise ParseError(f"mode {args.mode!r} requires --init")
        theta0 = load_initial_star(args.init, system.n, autonomous.m_orig)

    if args.mode == "index":
        chain = compute_index_and_chain(autonomous)
        payload.update(_health(chain))
        summary = f"index: {chain.mu}"
    elif args.mode == "decouple":
        dec = decouple_system(autonomous)
        health = _health(dec.raw, dec, full_check=True)  # checked before anything is written
        identity = np.eye(dec.n)
        couplings = dec.apply_couplings(identity)
        document = {
            "index": dec.mu,
            "N": {str(i): N.tolist() for i, N in dec.apply_N(identity).items()},
        }
        for key in ("L3", "L4", "Z4"):
            document[key] = couplings[key].tolist() if key in couplings else None
        _write_json(out_dir / "decoupled.json", document, indent=1)
        payload.update(health)
        summary = f"index: {dec.mu}; wrote decoupled.json"
    elif args.mode == "check-consistency":
        dec = decouple_system(autonomous)
        cert = check_initial_star(dec, theta0)
        if not cert.consistent:
            raise InconsistentInitialSetError(cert)
        payload.update(_health(dec.raw, dec), **_consistency(cert))
        summary = f"consistent (max residual {cert.max_residual:.3e})"
    else:
        # read and size-check the unsafe set and the directions before the
        # O(n^3) pipeline runs, so a bad file fails fast
        dim, n_orig = autonomous.n, autonomous.n_orig
        unsafe = directions = None
        if args.mode == "verify":
            if args.unsafe is None:
                raise ParseError("mode 'verify' requires --unsafe")
            unsafe = load_unsafe(args.unsafe)
            unsafe.extended(dim, n_orig)
        if args.directions is not None:
            directions = over_state(load_directions(args.directions), dim, n_orig, "D")
        reach = compute_reach(autonomous, theta0, settings)
        times = settings.times
        timings.update(reach.timings)
        payload.update(
            _health(reach.decoupled.raw, reach.decoupled),
            time_step=args.time_step,
            num_steps=settings.num_steps,
            consistency_residual=reach.certificate.max_residual,
        )
        if args.mode == "reach":
            _write_reach(out_dir, times, reach.bases)
            payload["num_stars"] = len(times)
            summary = f"reach: {len(times)} stars written"
        else:
            check_started = time.perf_counter()
            outcome = verify(reach, unsafe)
            timings["safety_s"] = time.perf_counter() - check_started
            step = outcome.first_unsafe_step
            payload.update(
                {
                    "status": outcome.status,
                    "first_unsafe_step": step,
                    "first_unsafe_time": None if step is None else step * args.time_step,
                    "lp_calls": outcome.lp_calls,
                    "screened_steps": outcome.screened_steps,
                    "support_method": outcome.support_method,
                    "witness_violation": None,
                }
            )
            if not outcome.is_safe:
                G = unsafe.extended(dim, n_orig)
                excess = G @ outcome.unsafe_trace[step] - unsafe.f
                payload["witness_violation"] = float(excess.max())
                _write_trace(out_dir, times, outcome.unsafe_trace, n_orig)
            summary = f"verdict: {outcome.status}"
            if step is not None:
                summary += f"\nfirst unsafe step: {step}"
        if directions is not None:
            payload["support_method"] = _write_bounds(out_dir, times, reach, directions)

    payload["tolerances"] = _TOLERANCES
    timings["total_s"] = time.perf_counter() - started
    _write_verdict(out_dir, payload, timings)
    print(summary)
    return EXIT_OK


def _classify(exc):
    for klass, label, code in _ERROR_CLASSES:
        if isinstance(exc, klass):
            return label, code
    return "error", EXIT_NUMERICAL


def main(argv=None):
    """Parse ``argv``, run the job and report; returns the exit code."""
    started = time.perf_counter()
    args = None
    try:
        args = build_parser().parse_args(argv)
        return run_job(args)
    except (DaeError, MemoryError) as exc:
        label, code = _classify(exc)
        error = {"error": label, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        # none when the arguments or --out failed
        verdict = None if args is None else Path(args.out, "verdict.json")
        if verdict is not None and verdict.parent.is_dir() and not verdict.exists():
            if isinstance(exc, InconsistentInitialSetError):
                error.update(mode=args.mode, model=args.model, **_consistency(exc.certificate))
            _write_verdict(verdict.parent, error, {"total_s": time.perf_counter() - started})
        return code


if __name__ == "__main__":
    sys.exit(main())
