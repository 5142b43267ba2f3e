"""Benchmark of the daereach verify pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload rm-safe-1k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload all --smoke

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics from a separate traced run; ``all``
runs every workload both ways, one worker process after another.
``--smoke`` shrinks each workload to about ten steps (Stokes at k = 4)
to check the harness and its gates in seconds.

The report goes to standard output, and its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every job passed its correctness gate.
Per-run results, environment notes and traced spans are kept in
``.bench_runs/`` at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# one BLAS thread in every process started here: a shared host's two
# vCPUs change speed independently, and a job split over both follows the
# slower one, which the single-threaded host meter does not see
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "daereach" / "__init__.py").is_file():
        fail(f"no daereach sources under {SRC}")
    return spec


def run_worker(workload, seed, seconds, trace, smoke, result_path):
    """One workload in its own worker process; returns its result document."""
    stem = result_path.stem
    workdir = RUNS / f"work-{os.getpid()}-{stem}"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path),
    ]
    if trace:
        command += ["--spans", str(RUNS / f"{stem}-spans.json")]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=sys.stderr, timeout=seconds + 120,
                              env=dict(os.environ, **SINGLE_THREAD))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not result_path.exists():
        fail(f"worker for {workload} exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_one(spec, workload, seed, seconds, trace, smoke):
    """Measure one workload; returns (result, {metric: {value, unit}})."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    RUNS.mkdir(exist_ok=True)
    result_path = RUNS / (f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "") + ".json")
    result = run_worker(workload, seed, seconds, trace, smoke, result_path)
    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"{workload} produced no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, metrics=metrics), handle, indent=1)
    report(result, metrics)
    return result, metrics


def report(result, metrics):
    env = result["environment"]
    print(f"\n== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    env["host_meter_s"] = "/".join(f"{x:.5f}" for x in env["host_meter_s"])
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"   jobs: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    for name, metric in metrics.items():
        samples = result["samples"].get(name)
        spread = ""
        if samples and len(samples) > 1:
            spread = f"  (median of n={len(samples)}, min {min(samples):.6g}, max {max(samples):.6g})"
        elif samples:
            spread = "  (n=1)"
        print(f"   {name:30s} {metric['value']:>14.6g} {metric['unit']}{spread}")
    for name in ("cli_s", "pipeline_s", "host_meter_s"):
        samples = sorted(result["samples"].get(name) or [])
        if samples and not result["trace"]:
            print(f"   raw {name:26s} {statistics.median(samples):>14.6g} s  (median of n={len(samples)}, "
                  f"min {samples[0]:.6g}, p90 {samples[int(0.9 * len(samples))]:.6g}, max {samples[-1]:.6g})")
    if result.get("self_table"):
        print(f"   self time per traced CLI job (median over jobs; "
              f"trace_overhead_s {metrics['trace_overhead_s']['value']:.6g} s):")
        print(f"   {'span':40s} {'calls':>8s} {'total_s':>12s} {'self_s':>12s}")
        for row in result["self_table"]:
            print(f"   {row['span']:40s} {row['calls']:>8g} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")
    for name in result.get("missing_spans", []):
        print(f"   note: no library function {name}; its span is absent")


def main(argv=None):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="daereach verify-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else spec["run_seconds"]

    started = time.perf_counter()
    if args.workload == "all":
        runs = [(w, t) for w in workloads for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        result, values = run_one(spec, workload, args.seed, seconds, trace, args.smoke)
        attempted += result["attempted"]
        failed += result["failed"]
        if len(runs) == 1:
            metrics = values
        else:
            metrics.update({f"{workload}:{name}": m for name, m in values.items()})
    print(f"\n{len(runs)} run(s) in {time.perf_counter() - started:.1f} s; "
          f"{failed} of {attempted} jobs failed a correctness gate")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
