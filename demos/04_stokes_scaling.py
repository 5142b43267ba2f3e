"""Scaling study on the semidiscretized Stokes family.

Refining the staggered grid produces index-2 DAEs of growing dimension
(n = 3k^2 - 2k - 1 for a k-by-k grid).  For each size this script
decouples, builds a consistent initial star by projecting random columns
into the consistent space, runs a 100-step reachable-set computation, and
checks a safety direction on the center-cell velocities, reporting the
per-phase time breakdown: decoupling (D-T), reachable set computation
(RSC-T), and checking safety (CS-T).
"""

import time

import numpy as np
from scipy.linalg import null_space

from daereach import (
    ReachSettings,
    StarSet,
    UnsafeSpec,
    build_consistent_matrix,
    build_stokes,
    compute_index_and_chain,
    compute_reach,
    decouple,
    stokes_center_velocity_rows,
    to_autonomous,
    verify,
)

rng = np.random.default_rng(0)
print(f"{'k':>3} {'n':>6} {'index':>5} {'D-T [ms]':>10} {'RSC-T [ms]':>11} "
      f"{'CS-T [ms]':>10} {'verdict':>8}")

for k in (2, 3, 4, 5, 6, 8, 10):
    system = build_stokes(k)
    auto = to_autonomous(system)

    dec = decouple(compute_index_and_chain(auto))
    gamma = build_consistent_matrix(dec)

    kernel = null_space(gamma, rcond=1e-9)
    basis = kernel @ (kernel.T @ rng.normal(size=(auto.n, 2)))
    basis /= np.linalg.norm(basis, axis=0)
    box = np.vstack([np.eye(2), -np.eye(2)])
    star = StarSet(basis, box, np.array([1.0, 1.0, 1.0, 1.0]))

    reach = compute_reach(auto, star, ReachSettings(time_step=1e-4, num_steps=100))

    u_row, v_row = stokes_center_velocity_rows(k)
    direction = np.zeros(auto.n)
    direction[u_row] = -1.0
    direction[v_row] = -1.0
    unsafe = UnsafeSpec(direction[None, :], [-5.0], on_original_state=False)

    check_started = time.perf_counter()
    outcome = verify(reach, unsafe)
    cs_ms = 1e3 * (time.perf_counter() - check_started)

    print(
        f"{k:>3} {auto.n:>6} {dec.mu:>5} "
        f"{1e3 * reach.timings['decouple_s']:>10.2f} "
        f"{1e3 * reach.timings['reach_s']:>11.2f} "
        f"{cs_ms:>10.2f} {outcome.status:>8}"
    )

print(
    "\nDecoupling and reachable-set computation dominate and grow with the\n"
    "dimension; the safety check stays nearly flat because it is one closed-form\n"
    "support function of the predicate box plus a small LP for each step left over."
)
