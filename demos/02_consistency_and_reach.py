"""Consistent initial sets, and what goes wrong without them.

A DAE solution must satisfy the algebraic constraints and their hidden
differentiated consequences at t = 0.  Every solution is its ODE
component lifted by psi, so the consistent space is the range of the lift
psi W, and a star-shaped initial set is consistent for every coefficient
choice iff the lift reproduces its basis: psi W W^T Pi V = V.  This script
checks the bundled consistent star, shows how a one-entry perturbation is
diagnosed, and then computes a reachable set and per-coordinate envelopes.
"""

import numpy as np

from daereach import (
    ReachSettings,
    StarSet,
    build_rotating_masses,
    check_initial_star,
    compute_index_and_chain,
    compute_reach,
    decouple,
    rotating_masses_initial_star,
    to_autonomous,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

system, inputs = build_rotating_masses()
auto = to_autonomous(system, inputs)
dec = decouple(compute_index_and_chain(auto))
print("ODE subsystem rank:", dec.ode_rank, "| the lift psi W has shape", dec.lift.shape,
      "and its range is the consistent space")

star = rotating_masses_initial_star()
cert = check_initial_star(dec, star)
print("bundled initial star: consistent =", cert.consistent,
      f"(max residual {cert.max_residual:.2e})")

perturbed_basis = star.V.copy()
perturbed_basis[2, 0] += 1.0
bad = StarSet(perturbed_basis, star.C, star.d)
cert_bad = check_initial_star(dec, bad)
print("perturbing one torque entry: consistent =", cert_bad.consistent,
      f"(residual {cert_bad.max_residual:.2e}, worst basis column "
      f"{cert_bad.worst_column}, constraint block {cert_bad.worst_row_block})")

print("\nreachable set over 10 s with step 0.01 s ...")
settings = ReachSettings(time_step=0.01, num_steps=1000)
reach = compute_reach(auto, star, settings)
print("stars computed:", len(reach.bases), "| predicate shared across all steps")

# per-step envelope of the first torque coordinate from the predicate's
# support function: the star's rows at each instant, pulled back onto its
# coefficients, then their extrema over the predicate (a box: closed form)
times = settings.times[::50]
monitored_row = 2  # the torque the unsafe specification will constrain
rows = reach.pull_back(np.eye(auto.n)[[monitored_row]])[::50]
lo_envelope, hi_envelope = star.support(len(rows)).extrema(rows)[:, 0].T
print("\ntorque envelope every 0.5 s:")
for t, lo, hi in zip(times, lo_envelope, hi_envelope):
    bar = "#" * int(round(28 * (hi - lo)))
    print(f"  t={t:5.2f}  [{lo:8.4f}, {hi:8.4f}]  {bar}")
print("tightest lower value:", min(lo_envelope))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.2))
    ax.fill_between(times, lo_envelope, hi_envelope, alpha=0.4)
    ax.axhline(-0.9, linestyle="--", color="tab:red", label="unsafe threshold")
    ax.set_xlabel("time [s]")
    ax.set_ylabel("coupling torque")
    ax.legend()
    fig.tight_layout()
    fig.savefig("reach_envelope.png", dpi=120)
    print("wrote reach_envelope.png")
except ImportError:
    print("(matplotlib not installed; skipping the plot)")
