"""Scaling study on the semidiscretized Stokes family.

Refining the staggered grid produces index-2 DAEs of growing dimension
(n = 3k^2 - 2k - 1 for a k-by-k grid).  For each size this script first
times the three stages that build the decoupled system, each the median of
three runs: the matrix chain (``compute_index_and_chain``), ``decouple``
(the admissible correction, which forms the one n x n corrected terminal
inverse from the chain's certificate blocks, and its residual check) and
the ODE frame (``W``, the reduced matrix ``W^T N_1 W`` and the lift
``psi W``).  It then builds a consistent initial star from random
combinations of the columns of the lift (its range is the consistent
space), runs a 100-step reachable-set computation, and checks a safety
direction on the center-cell velocities, reporting the per-phase time
breakdown: decoupling (D-T), reachable set computation (RSC-T), and
checking safety (CS-T).  More columns show accuracy and memory without the
benchmark: the corrected terminal inverse's residual max|E_mu' E_mu'^-1 -
I| (the ``terminal_inverse_residual`` of ``verdict.json``), and the peak
of the arrays ``compute_reach`` allocates and those its result keeps,
traced by ``tracemalloc`` in a second, untimed run, in MB and in n x n
arrays of 8n^2 bytes.  Past the smallest grids, where fixed costs weigh,
the peak stays under five such arrays and under four are kept: the chain
keeps no chain matrix past the model's own E and A and no n x n inverse
(its Gram factors of E_1 and the certificate's small blocks), the
decoupled system applies A_mu' from the chain's factors, so the one n x n
array it adds is the corrected terminal inverse, and the frame keeps none
of the projector words it applies to S W.

Grid sizes may be given on the command line, for example
``python demos/04_stokes_scaling.py 16 24 32``; the default is
2, 3, 4, 5, 6, 8, 10, 12 and 16.
"""

import sys
import time
import tracemalloc

import numpy as np

from daereach import (
    ReachSettings,
    StarSet,
    UnsafeSpec,
    build_stokes,
    compute_index_and_chain,
    compute_reach,
    decouple,
    stokes_center_velocity_rows,
    to_autonomous,
    verify,
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


grids = [int(k) for k in sys.argv[1:]] or [2, 3, 4, 5, 6, 8, 10, 12, 16]
rng = np.random.default_rng(0)
print(f"{'k':>3} {'n':>6} {'index':>5} {'chain':>8} {'decouple':>8} {'frame':>8} "
      f"{'D-T [ms]':>10} {'RSC-T [ms]':>11} {'CS-T [ms]':>10} {'verdict':>8} {'residual':>9} "
      f"{'peak [MB]':>10} {'[n x n]':>8} {'kept [n x n]':>12}")

for k in grids:
    system = build_stokes(k)
    auto = to_autonomous(system)

    (chain_ms, decouple_ms, frame_ms), dec = stage_times(auto)

    basis = dec.lift @ rng.normal(size=(dec.ode_rank, 2))
    basis /= np.linalg.norm(basis, axis=0)
    box = np.vstack([np.eye(2), -np.eye(2)])
    star = StarSet(basis, box, np.array([1.0, 1.0, 1.0, 1.0]))

    settings = ReachSettings(time_step=1e-4, num_steps=100)
    reach = compute_reach(auto, star, settings)
    tracemalloc.start()
    traced = compute_reach(auto, star, settings)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del traced

    u_row, v_row = stokes_center_velocity_rows(k)
    direction = np.zeros(auto.n)
    direction[u_row] = -1.0
    direction[v_row] = -1.0
    unsafe = UnsafeSpec(direction[None, :], [-5.0], on_original_state=False)

    check_started = time.perf_counter()
    outcome = verify(reach, unsafe)
    cs_ms = 1e3 * (time.perf_counter() - check_started)

    print(
        f"{k:>3} {auto.n:>6} {dec.mu:>5} {chain_ms:>8.2f} {decouple_ms:>8.2f} {frame_ms:>8.2f} "
        f"{1e3 * reach.timings['decouple_s']:>10.2f} "
        f"{1e3 * reach.timings['reach_s']:>11.2f} "
        f"{cs_ms:>10.2f} {outcome.status:>8} "
        f"{reach.decoupled.inverse_residual:>9.1e} {peak / 2**20:>10.2f} "
        f"{peak / (8 * auto.n**2):>8.2f} {kept / (8 * auto.n**2):>12.2f}"
    )

print(
    "\nchain, decouple and frame are the medians of three runs in ms.  Decoupling\n"
    "and reachable-set computation dominate and grow with the dimension; the\n"
    "safety check stays nearly flat because it is one closed-form support\n"
    "function of the predicate box plus a small LP for each step left over."
)
