"""Scaling study on the semidiscretized Stokes family.

Refining the staggered grid produces index-2 DAEs of growing dimension
(n = 3k^2 - 2k - 1 for a k-by-k grid).  For each size this script first
times the three stages that build the decoupled system, each the median of
three runs: the matrix chain (``compute_index_and_chain``, whose first step
is the closed form of E = diag(I, 0), so A_1 K_1 is taken from the velocity
columns of A alone), ``decouple`` (the admissible correction, which keeps
the corrected terminal inverse as the chain's certificate blocks and one
m x n block, with no n x n array) and the ODE frame (``W``, drawn and
factored on the velocity rows, as the ODE subspace is exactly zero on the
pressures, the reduced matrix ``W^T N_1 W`` and the lift ``psi W``, and
the check of the one solve E_mu'^-1 (A_mu' W) they take).
It then builds a consistent initial star from random combinations of the
columns of the lift (its range is the consistent space), runs a
reachable-set computation of 1e-4 s steps (100 unless ``--steps`` says
otherwise), and checks a safety direction on the
center-cell velocities, reporting the per-phase time breakdown:
decoupling (D-T), reachable set computation (RSC-T), and
checking safety (CS-T).  More columns show accuracy and memory without the
benchmark: the relative residual max|E_mu' X - Y| / max|Y| of that solve,
X = E_mu'^-1 Y for Y = A_mu' W (the ``solve_residual`` of
``verdict.json``), and the peak of the arrays that loading the model
file, ``to_autonomous`` and ``compute_reach`` allocate, the model's own
``E`` and ``A`` built from the file's triples included, and of those the
result keeps, traced by ``tracemalloc`` in a second, untimed run, in MB
and in n x n arrays of 8n^2 bytes; the last column is the process's
``ru_maxrss`` so far (run one grid size in a fresh process to read its
own; the model file is written from ``build_stokes``, which forms dense
arrays first).  Past the smallest
grids, where fixed costs weigh, the peak at 100 steps stays under four
such arrays and under three and a half are kept (the coordinates of more
steps add to both): the chain keeps no chain matrix past the
model's own E and A and no n x n inverse (its Gram factors of E_1 and the
certificate's small blocks), the decoupled system applies A_mu' from the
chain's factors and E_mu'^-1 from the certificate's blocks, so it adds no
n x n array, and the frame keeps none of the projector words it applies
to S W.

Grid sizes may be given on the command line, for example
``python demos/04_stokes_scaling.py 16 24 32``; the default is
2, 3, 4, 5, 6, 8, 10, 12 and 16.  ``--steps N`` sets the number of time
steps, for example ``python demos/04_stokes_scaling.py --steps 1000 24 32``
for the propagation at large ``r``, where it marches in blocks of instants.
``--json PATH`` also writes the printed rows to ``PATH`` as one JSON
object, ``{"steps": N, "rows": [...]}``, one row per grid with the keys
of ``ROW_KEYS`` (times in ms, peak and kept in n x n arrays, ``ru_maxrss``
in MB).
"""

import argparse
import json
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from daereach import (
    ReachSettings,
    StarSet,
    UnsafeSpec,
    build_stokes,
    compute_index_and_chain,
    compute_reach,
    decouple,
    load_model,
    stokes_center_velocity_rows,
    to_autonomous,
    verify,
)


def write_model(k, directory):
    """The Stokes grid ``k`` as a model file of triples; returns its path."""
    system = build_stokes(k)

    def triples(matrix):
        rows, cols, values = matrix.triples()
        return {"shape": list(matrix.shape), "triples": [list(t) for t in zip(
            rows.tolist(), cols.tolist(), values.tolist())]}

    B = np.asarray(system.B)
    rows, cols = np.nonzero(B)
    document = {
        "n": system.n, "m": system.m, "E": triples(system.E), "A": triples(system.A),
        "B": {"shape": list(B.shape), "triples": [[int(i), int(j), float(B[i, j])]
                                                  for i, j in zip(rows, cols)]},
    }
    path = Path(directory) / f"stokes-{k}.json"
    path.write_text(json.dumps(document))
    return path


ROW_KEYS = (
    "k", "n", "index", "chain_ms", "decouple_ms", "frame_ms", "d_t_ms", "rsc_t_ms", "cs_t_ms",
    "verdict", "solve_residual", "peak_mb", "peak_nxn", "kept_nxn", "maxrss_mb",
)


def stage_times(auto, repeats=3):
    """Medians over ``repeats`` runs of the chain, ``decouple`` and the
    frame, in ms, and the last decoupled system."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        chain = compute_index_and_chain(auto)
        chained = time.perf_counter()
        dec = decouple(chain)
        decoupled = time.perf_counter()
        dec.lift
        times.append((chained - started, decoupled - chained, time.perf_counter() - decoupled))
    return 1e3 * np.median(times, axis=0), dec


parser = argparse.ArgumentParser(description="Scaling study on the Stokes family.")
parser.add_argument("grids", nargs="*", type=int, metavar="k", help="grid sizes")
parser.add_argument("--steps", type=int, default=100, help="time steps of 1e-4 s (default 100)")
parser.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
args = parser.parse_args()
grids = args.grids or [2, 3, 4, 5, 6, 8, 10, 12, 16]
rng = np.random.default_rng(0)
print(f"{'k':>3} {'n':>6} {'index':>5} {'chain':>8} {'decouple':>8} {'frame':>8} "
      f"{'D-T [ms]':>10} {'RSC-T [ms]':>11} {'CS-T [ms]':>10} {'verdict':>8} {'solve res':>9} "
      f"{'peak [MB]':>10} {'[n x n]':>8} {'kept [n x n]':>12} {'maxrss [MB]':>11}")

directory = tempfile.TemporaryDirectory()
rows = []
for k in grids:
    path = write_model(k, directory.name)
    auto = to_autonomous(*load_model(path))

    (chain_ms, decouple_ms, frame_ms), dec = stage_times(auto)

    basis = dec.lift @ rng.normal(size=(dec.ode_rank, 2))
    basis /= np.linalg.norm(basis, axis=0)
    box = np.vstack([np.eye(2), -np.eye(2)])
    star = StarSet(basis, box, np.array([1.0, 1.0, 1.0, 1.0]))

    settings = ReachSettings(time_step=1e-4, num_steps=args.steps)
    reach = compute_reach(auto, star, settings)
    tracemalloc.start()
    traced = compute_reach(to_autonomous(*load_model(path)), star, settings)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del traced
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux

    u_row, v_row = stokes_center_velocity_rows(k)
    direction = np.zeros(auto.n)
    direction[u_row] = -1.0
    direction[v_row] = -1.0
    unsafe = UnsafeSpec(direction[None, :], [-5.0], on_original_state=False)

    check_started = time.perf_counter()
    outcome = verify(reach, unsafe)
    cs_ms = 1e3 * (time.perf_counter() - check_started)

    row = dict(zip(ROW_KEYS, (
        k, auto.n, dec.mu, chain_ms, decouple_ms, frame_ms,
        1e3 * reach.timings["decouple_s"], 1e3 * reach.timings["reach_s"], cs_ms,
        outcome.status, reach.decoupled.solve_residual, peak / 2**20,
        peak / (8 * auto.n**2), kept / (8 * auto.n**2), maxrss,
    )))
    rows.append({key: value.item() if isinstance(value, np.generic) else value
                 for key, value in row.items()})
    print(
        "{k:>3} {n:>6} {index:>5} {chain_ms:>8.2f} {decouple_ms:>8.2f} {frame_ms:>8.2f} "
        "{d_t_ms:>10.2f} {rsc_t_ms:>11.2f} {cs_t_ms:>10.2f} {verdict:>8} {solve_residual:>9.1e} "
        "{peak_mb:>10.2f} {peak_nxn:>8.2f} {kept_nxn:>12.2f} {maxrss_mb:>11.1f}".format(**row)
    )
directory.cleanup()
if args.json:
    Path(args.json).write_text(json.dumps({"steps": args.steps, "rows": rows}, indent=1) + "\n")

print(
    "\nchain, decouple and frame are the medians of three runs in ms.  Decoupling\n"
    "and reachable-set computation dominate and grow with the dimension; the\n"
    "safety check stays nearly flat because it is one closed-form support\n"
    "function of the predicate box plus a small LP for each step left over."
)
