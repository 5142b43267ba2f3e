"""One workload's measurement, run in a single worker process.

Untraced runs time whole jobs: a CLI job is one ``daereach`` run
in-process through ``daereach.cli.main`` (argv to every artifact
written), a library job the path ``to_autonomous`` -> ``compute_reach``
-> ``verify``.  Each job's wall time is divided by the workload's host
meter, read right before and after it (``cli_rel``, ``pipeline_rel``),
so that the result follows the program and not the shared host's
changing speed; the raw seconds are kept beside the ratios.  Traced runs
wrap each layer's public function in a span recorder (from here, not
inside the library) and derive the per-layer metrics from the spans of
traced CLI jobs; they also time untraced CLI jobs, so the tracing
overhead is measured in the same process.  Every job, warm-up included, passes through the correctness
gates in ``workloads.py``; a job that fails is counted, never dropped.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR --result FILE [--smoke]
"""

import argparse
import contextlib
import ctypes
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import daereach  # noqa: E402
import daereach.cli  # noqa: E402
from daereach import (  # noqa: E402
    ReachSettings,
    compute_reach,
    load_initial_star,
    load_model,
    load_unsafe,
    to_autonomous,
    verify,
)

import workloads as wl  # noqa: E402

# (module, function) pairs wrapped in a span named "<module>.<function>";
# the span is taken wherever the library calls the function by that name
LAYER_CALLS = (
    ("modelio", "load_model"),
    ("modelio", "load_initial_star"),
    ("modelio", "load_unsafe"),
    ("modelio", "load_directions"),
    ("model", "check_regularity"),
    ("decoupling", "compute_index_and_chain"),
    ("decoupling", "make_admissible"),
    ("decoupling", "decouple"),
    ("consistency", "build_consistent_matrix"),
    ("consistency", "check_initial_star"),
    ("linalg", "matrix_exponential"),
    ("reachability", "propagate_basis"),
    ("reachability", "build_psi"),
    ("reachability", "compute_reach"),
    ("safety", "verify"),
    ("cli", "main"),
)
JOB_SPAN = "cli.main"
LP_SPAN = "lp.feasible"
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "job")


class Tracer:
    """Spans kept in memory until the run ends, one list per span:
    name, start and end (ns), index of the parent span, job id."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.last = {}  # latest return value per span name
        self.missing = []  # layer functions the library no longer has
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, last = self.spans, self._stack, self.last

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                last[name] = result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self):
        """Replace every library reference to a layer function by its span wrapper."""
        self.missing = []
        for module, name in LAYER_CALLS:
            target = getattr(importlib.import_module(f"daereach.{module}"), name, None)
            if target is None:
                self.missing.append(f"{module}.{name}")
                continue
            inner = self._verify_with_timed_kernel(target) if name == "verify" else target
            wrapper = self.wrap(f"{module}.{name}", inner)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "daereach"]:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _verify_with_timed_kernel(self, verify_fn):
        from daereach.safety import feasibility_check

        def verify_timed(reach, unsafe, tol=daereach.DEFAULT_TOLERANCES, kernel=None, **kw):
            kernel = self.wrap(LP_SPAN, feasibility_check if kernel is None else kernel)
            return verify_fn(reach, unsafe, tol, kernel=kernel, **kw)

        return verify_timed

    def per_job(self):
        """Per job: total and self nanoseconds by span name, and span counts."""
        child_ns = defaultdict(int)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        total = defaultdict(lambda: defaultdict(int))
        own = defaultdict(lambda: defaultdict(int))
        count = defaultdict(lambda: defaultdict(int))
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            total[job][name] += end - start
            own[job][name] += end - start - child_ns[index]
            count[job][name] += 1
        return total, own, count



# Host meters: fixed work that does not use daereach, one per kind of
# cost a workload is bound by (``Workload.meter``); see host_meter_s.
METER_SMALL = np.eye(6) + 0.01
METER_TABLE = np.random.default_rng(1).standard_normal((8, 12))
METER_DENSE = np.random.default_rng(0).standard_normal((300, 300))


def _small_algebra():
    a = METER_SMALL
    for _ in range(1_000):
        a = a @ a
        a /= np.abs(a).max()


def _python_loop():
    table, acc = {}, 0
    for i in range(20_000):
        acc += (i * 7) % 13
        table[i & 255] = acc


def _ratio_tests():
    a = METER_TABLE
    for k in range(400):
        j = int(np.argmin(a[k % 8, :-1]))
        column = a[:, j]
        positive = column > 0
        ratios = np.where(positive, a[:, -1] / np.where(positive, column, 1.0), np.inf)
        i = int(np.argmin(ratios))
        np.outer(column, a[i]).sum()


def _dense_solves():
    for _ in range(2):
        np.linalg.solve(METER_DENSE, METER_DENSE)


METERS = {
    "interpreter": (_small_algebra, _python_loop, _ratio_tests),
    "dense": (_dense_solves,),
}


def host_meter_s(kind):
    """Seconds for the meter of one kind: the geometric mean of its loops' times.

    On a shared host the speed of the same code changes by up to a factor
    of two within seconds.  A job timed between two meter readings is
    divided by their mean, and that ratio does not follow the host.  The
    change is not the same for every kind of code, so each workload reads
    the meter that resembles its dominant cost: the "interpreter" meter
    (6x6 numpy algebra, a plain Python loop, small-array ratio tests) for
    the LP and lift loops, the "dense" meter (300x300 solves) for the
    decoupling of a large model.
    """
    product = 1.0
    for loop in METERS[kind]:
        start = time.perf_counter()
        loop()
        product *= time.perf_counter() - start
    return product ** (1.0 / len(METERS[kind]))


# fresh interpreters timed for setup_s, spread over the run so that
# their median does not hang on one moment of the host's speed; the
# median also absorbs the first one byte-compiling the package on a new
# checkout
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import daereach, daereach.cli; print(time.perf_counter() - t, daereach.__file__)"
)


def setup_s():
    """Seconds to import daereach and daereach.cli in a fresh interpreter."""
    src = ROOT / "src"
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(src))],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        sys.exit(f"importing daereach failed:\n{done.stderr}")
    seconds, path = done.stdout.split()
    if Path(path).resolve().parent != src / "daereach":
        sys.exit(f"imported daereach from {path}, not from {src}")
    return float(seconds)


def environment(meter_kind, meter_s):
    """Where a result was measured; results from different notes are not comparable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "host_meter": meter_kind,
        "host_meter_s": meter_s,
    }


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or the environment's setting."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return f"{var}={os.environ[var]}"
    return "unknown"


class Gate:
    """Counts jobs and the ones that failed a correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
            print(f"gate failed: {self.problems[-1]}", file=sys.stderr)


class Jobs:
    """The CLI and library jobs of one workload's generated inputs."""

    def __init__(self, inputs, out_dir, gate):
        self.inputs = inputs
        self.out_dir = Path(out_dir)
        self.gate = gate
        w = inputs.workload
        system, input_model = load_model(inputs.directory / "model.json")
        star = load_initial_star(inputs.directory / "init.json", system.n, input_model.dimension)
        unsafe = load_unsafe(inputs.directory / "unsafe.json") if inputs.G is not None else None
        self.library_args = (system, input_model, star, unsafe)
        self.settings = ReachSettings(time_step=w.time_step, num_steps=w.num_steps)

    def cli(self, with_directions=True):
        """One gated CLI job; returns its wall time in seconds."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for entry in self.out_dir.iterdir():
            entry.unlink()
        argv = self.inputs.cli_argv(self.out_dir, with_directions)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = daereach.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # counted as a failed job; the run goes on
            traceback.print_exc()
            code = "raised"
        seconds = time.perf_counter() - start
        try:
            problems = wl.check_cli(self.inputs, self.out_dir, code, with_directions)
        except Exception as exc:  # unreadable artifacts fail the job
            problems = [f"artifacts unreadable: {exc!r}"]
        self.gate.record(f"cli {self.inputs.workload.name}", problems)
        return seconds

    def library(self):
        """One gated ``to_autonomous -> compute_reach -> verify`` job; wall seconds."""
        system, input_model, star, unsafe = self.library_args
        start = time.perf_counter()
        try:
            reach = compute_reach(to_autonomous(system, input_model), star, self.settings)
            outcome = None if unsafe is None else verify(reach, unsafe)
        except Exception:  # counted as a failed job; the run goes on
            traceback.print_exc()
            seconds = time.perf_counter() - start
            self.gate.record(f"library {self.inputs.workload.name}", ["raised"])
            return seconds
        seconds = time.perf_counter() - start
        self.gate.record(f"library {self.inputs.workload.name}", wl.check_pipeline(self.inputs, outcome))
        return seconds

    def output_bytes(self):
        return sum(entry.stat().st_size for entry in self.out_dir.iterdir())


def run_untraced(jobs, seconds, meter_kind, setup_samples):
    """Alternate CLI and library jobs, each timed between two host-meter readings.

    ``cli_rel`` and ``pipeline_rel`` are the medians of job time divided by
    the mean of the meter readings on either side of the job.  The
    ``setup_s`` samples are taken at even intervals between the jobs.
    """
    times = {"cli_s": [], "pipeline_s": [], "setup_s": []}
    ratios = {"cli_rel": [], "pipeline_rel": []}
    meter = [host_meter_s(meter_kind)]
    begin = time.perf_counter()
    deadline = begin + seconds
    last_round = 0.0
    while not times["cli_s"] or time.perf_counter() + last_round <= deadline:
        started = time.perf_counter()
        setup = times["setup_s"]
        if len(setup) < setup_samples and started >= begin + len(setup) * seconds / setup_samples:
            setup.append(setup_s())
            meter.append(host_meter_s(meter_kind))
        for name, job in (("cli", jobs.cli), ("pipeline", jobs.library)):
            wall = job()
            meter.append(host_meter_s(meter_kind))
            times[f"{name}_s"].append(wall)
            ratios[f"{name}_rel"].append(wall / ((meter[-2] + meter[-1]) / 2))
        last_round = time.perf_counter() - started
    while len(times["setup_s"]) < setup_samples:
        times["setup_s"].append(setup_s())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: statistics.median(values) for name, values in ratios.items()}
    metrics["setup_s"] = statistics.median(times["setup_s"])
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    return metrics, dict(times, **ratios, host_meter_s=meter)


def run_traced(jobs, seconds, tracer):
    """Interleaved untraced and traced CLI jobs; per-layer metrics from the spans."""
    inputs = jobs.inputs
    w = inputs.workload
    plain, traced, no_dirs = [], [], []
    traced_ids, no_dir_ids, output_bytes = [], [], []
    job_ids = itertools.count()

    def traced_job(with_directions):
        tracer.job = next(job_ids)
        tracer.install()
        try:
            return tracer.job, jobs.cli(with_directions)
        finally:
            tracer.uninstall()
            tracer.job = None

    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while not traced or time.perf_counter() + last_round <= deadline:
        started = time.perf_counter()
        plain.append(jobs.cli())
        job, wall = traced_job(True)
        traced_ids.append(job)
        traced.append(wall)
        output_bytes.append(jobs.output_bytes())
        if inputs.D is not None:
            job, wall = traced_job(False)
            no_dir_ids.append(job)
            no_dirs.append(wall)
        last_round = time.perf_counter() - started

    total, own, count = tracer.per_job()

    def median_over_jobs(table, *names):
        return statistics.median(sum(table[j][n] for n in names) for j in traced_ids) / 1e9

    lp_ns = [end - start for name, start, end, _, job in tracer.spans
             if name == LP_SPAN and job in traced_ids]
    lp_calls = statistics.median(count[j][LP_SPAN] for j in traced_ids)
    loads = [f"modelio.{name}" for module, name in LAYER_CALLS if module == "modelio"]
    bounds_s = statistics.median(traced) - statistics.median(no_dirs) if no_dirs else 0.0
    bounds_lps = 2 * inputs.D.shape[0] * w.instants if inputs.D is not None else 0
    try:
        with open(jobs.out_dir / "verdict.json", encoding="utf-8") as handle:
            index = json.load(handle)["index"]
    except (OSError, ValueError, KeyError):  # the job failed and was counted
        index = -1
    decoupled = tracer.last.get("decoupling.decouple")
    metrics = {
        "modelio.load_s": median_over_jobs(total, *loads),
        "model.regularity_s": median_over_jobs(total, "model.check_regularity"),
        "decoupling.chain_s": median_over_jobs(total, "decoupling.compute_index_and_chain"),
        "decoupling.admissible_s": median_over_jobs(total, "decoupling.make_admissible"),
        "decoupling.decouple_s": median_over_jobs(total, "decoupling.decouple"),
        "consistency.gamma_s": median_over_jobs(total, "consistency.build_consistent_matrix"),
        "consistency.check_s": median_over_jobs(total, "consistency.check_initial_star"),
        "linalg.expm_s": median_over_jobs(total, "linalg.matrix_exponential"),
        "reachability.propagate_s": median_over_jobs(total, "reachability.propagate_basis"),
        "reachability.psi_s": median_over_jobs(total, "reachability.build_psi"),
        "reachability.compute_reach_s": median_over_jobs(total, "reachability.compute_reach"),
        "reachability.lift_s": median_over_jobs(own, "reachability.compute_reach"),
        "safety.verify_s": median_over_jobs(total, "safety.verify"),
        "safety.lp_s": median_over_jobs(total, LP_SPAN),
        "safety.self_s": median_over_jobs(own, "safety.verify"),
        "safety.lp_calls": lp_calls,
        "safety.lp_per_instant": lp_calls / w.instants,
        "lp.feasible_call_us": statistics.median(lp_ns) / 1e3 if lp_ns else 0.0,
        "cli.bounds_s": bounds_s,
        "lp.bounds_call_us": bounds_s / bounds_lps * 1e6 if bounds_lps else 0.0,
        "cli.self_s": median_over_jobs(own, JOB_SPAN) - bounds_s,
        "cli.output_bytes": statistics.median(output_bytes),
        "decoupling.index": index,
        "reachability.n": inputs.E.shape[0],
        "reachability.ode_rank": -1 if decoupled is None
        else int(round(np.trace(decoupled.projectors[1]))),
        "reachability.instants": w.instants,
        "trace_overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    names = sorted({name for j in traced_ids for name in total[j]})
    self_table = [
        {
            "span": name,
            "calls": statistics.median(count[j][name] for j in traced_ids),
            "total_s": median_over_jobs(total, name),
            "self_s": median_over_jobs(own, name),
        }
        for name in names
    ]
    self_table.sort(key=lambda row: -row["self_s"])
    samples = {"cli_s": plain, "traced_cli_s": traced, "no_directions_cli_s": no_dirs}
    job_kinds = {job: "cli" for job in traced_ids}
    job_kinds.update({job: "cli without --directions" for job in no_dir_ids})
    return metrics, samples, self_table, job_kinds


def write_spans(path, tracer, workload, seed, job_kinds):
    document = {
        "workload": workload,
        "seed": seed,
        "fields": SPAN_FIELDS,
        "jobs": job_kinds,
        "spans": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workload = wl.WORKLOADS[args.workload]
    warm_workload = wl.smoke_variant(workload)
    if args.smoke:
        workload = warm_workload
    gate = Gate()
    inputs = wl.generate(workload, args.seed, workdir / "inputs")
    warm_inputs = wl.generate(warm_workload, args.seed, workdir / "warm-inputs")
    jobs = Jobs(inputs, workdir / "out", gate)

    # warm-up on the tiny variant: lazy imports and first-call costs
    warm = Jobs(warm_inputs, workdir / "warm-out", gate)
    warm.cli()
    warm.library()

    meter_s = [host_meter_s(workload.meter)]
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer = Tracer()
        metrics, samples, self_table, job_kinds = run_traced(jobs, args.seconds, tracer)
        result.update(self_table=self_table, missing_spans=tracer.missing)
        if args.spans:
            write_spans(args.spans, tracer, workload.name, args.seed, job_kinds)
    else:
        setup_samples = 1 if args.smoke else SETUP_SAMPLES
        metrics, samples = run_untraced(jobs, args.seconds, workload.meter, setup_samples)
    meter_s.append(host_meter_s(workload.meter))
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        problems=gate.problems,
        metrics=metrics,
        samples=samples,
        environment=environment(workload.meter, meter_s),
    )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
