"""Consistent initial sets, and what goes wrong without them.

A DAE solution must satisfy the algebraic constraints and their hidden
differentiated consequences at t = 0.  The consistent space is the kernel
of one stacked matrix; a star-shaped initial set is consistent for every
coefficient choice iff that matrix annihilates its basis.  This script
checks the bundled consistent star, shows how a one-entry perturbation is
diagnosed, and then computes a reachable set and per-coordinate envelopes.
"""

import numpy as np

from daereach import (
    ReachSettings,
    StarSet,
    build_consistent_matrix,
    build_rotating_masses,
    check_initial_star,
    compute_index_and_chain,
    compute_reach,
    decouple,
    make_admissible,
    rotating_masses_initial_star,
    to_autonomous,
)
from daereach import lp

np.set_printoptions(precision=4, suppress=True, linewidth=120)

system, inputs = build_rotating_masses()
auto = to_autonomous(system, inputs)
dec = decouple(make_admissible(compute_index_and_chain(auto)))
gamma = build_consistent_matrix(dec)
print("consistency matrix has", gamma.shape[0], "rows: one block per constraint level")

star = rotating_masses_initial_star()
cert = check_initial_star(gamma, star)
print("bundled initial star: consistent =", cert.consistent,
      f"(max residual {cert.max_residual:.2e})")

perturbed_basis = star.V.copy()
perturbed_basis[2, 0] += 1.0
bad = StarSet(perturbed_basis, star.C, star.d)
cert_bad = check_initial_star(gamma, bad)
print("perturbing one torque entry: consistent =", cert_bad.consistent,
      f"(residual {cert_bad.max_residual:.2e}, worst basis column "
      f"{cert_bad.worst_column}, constraint block {cert_bad.worst_row_block})")

print("\nreachable set over 10 s with step 0.01 s ...")
settings = ReachSettings(time_step=0.01, num_steps=1000)
reach = compute_reach(auto, star, settings)
print("stars computed:", len(reach.bases), "| predicate shared across all steps")

# per-step envelope of the first torque coordinate via two LPs per step
times = settings.times
monitored_row = 2  # the torque the unsafe specification will constrain
lo_envelope, hi_envelope = [], []
for basis in reach.bases[::50]:
    c = basis[monitored_row]
    low = lp.solve_lp(c, star.C, star.d)
    high = lp.solve_lp(-c, star.C, star.d)
    lo_envelope.append(low.objective)
    hi_envelope.append(-high.objective)
print("\ntorque envelope every 0.5 s:")
for t, lo, hi in zip(times[::50], lo_envelope, hi_envelope):
    bar = "#" * int(round(28 * (hi - lo)))
    print(f"  t={t:5.2f}  [{lo:8.4f}, {hi:8.4f}]  {bar}")
print("tightest lower value:", min(lo_envelope))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.2))
    ax.fill_between(times[::50], lo_envelope, hi_envelope, alpha=0.4)
    ax.axhline(-0.9, linestyle="--", color="tab:red", label="unsafe threshold")
    ax.set_xlabel("time [s]")
    ax.set_ylabel("coupling torque")
    ax.legend()
    fig.tight_layout()
    fig.savefig("reach_envelope.png", dpi=120)
    print("wrote reach_envelope.png")
except ImportError:
    print("(matplotlib not installed; skipping the plot)")
