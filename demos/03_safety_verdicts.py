"""Safety verification and falsification with counterexample traces.

Each reachable star is checked against a linear unsafe set: steps whose
pulled-back unsafe rows stay above their bounds over the whole
coefficient box (its support function, in closed form) are safe at once,
and the rest are decided by one small feasibility LP each, stacking the pulled-back unsafe inequalities
with the predicate.  The first feasible step yields a coefficient vector
that replays into a concrete unsafe trajectory.  One
threshold here is (barely) reachable and gets falsified; a second one is
not, and the run is certified safe up to the time bound.
"""

import numpy as np

from daereach import (
    ReachSettings,
    UnsafeSpec,
    build_rotating_masses,
    compute_reach,
    rotating_masses_initial_star,
    to_autonomous,
    verify,
)

system, inputs = build_rotating_masses()
auto = to_autonomous(system, inputs)
star = rotating_masses_initial_star()
settings = ReachSettings(time_step=0.01, num_steps=1000)
reach = compute_reach(auto, star, settings)

print("checking: coupling torque  x3 <= -0.9")
falsified = verify(reach, UnsafeSpec([[0.0, 0.0, 1.0, 0.0]], [-0.9]))
print("  verdict:", falsified.status)
print("  first unsafe step:", falsified.first_unsafe_step,
      f"(t = {falsified.first_unsafe_step * settings.time_step:.2f} s)")
print("  witness coefficients:", np.round(falsified.alpha_feasible, 6))
print(f"  LPs solved: {falsified.lp_calls}; steps screened out by the "
      f"{falsified.support_method} support function: {falsified.screened_steps}")

trace = falsified.unsafe_trace
j = falsified.first_unsafe_step
print("  trace around the violation (time, x0..x3):")
for step in range(j - 2, j + 3):
    state = trace[step][:4]
    marker = "  <-- unsafe" if step == j else ""
    print(f"    t={step * settings.time_step:6.2f}  {np.round(state, 4)}{marker}")

print("\nchecking: second torque  x4 <= -1.0")
cleared = verify(reach, UnsafeSpec([[0.0, 0.0, 0.0, 1.0]], [-1.0]))
print("  verdict:", cleared.status, "(no reachable state crosses the threshold")
lo = min(
    min(basis[3] @ np.array([a1, a2]) for a1 in (0.1, 0.2) for a2 in (1.0, 1.2))
    for basis in reach.bases
)
print(f"   over the whole horizon; the coordinate never drops below {lo:.4f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    times = settings.times
    fig, ax = plt.subplots(figsize=(7, 3.2))
    ax.plot(times, trace[:, 2], label="witness torque trajectory")
    ax.axhline(-0.9, linestyle="--", color="tab:red", label="unsafe threshold")
    ax.plot([j * settings.time_step], [trace[j, 2]], "o", color="tab:red")
    ax.set_xlabel("time [s]")
    ax.set_ylabel("coupling torque")
    ax.legend()
    fig.tight_layout()
    fig.savefig("unsafe_trace.png", dpi=120)
    print("\nwrote unsafe_trace.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
