"""Walk through the projector decoupling of a small DAE, step by step.

The interconnected rotating-masses model has four states (two angular
velocities, two coupling torques) driven by two harmonic input torques.
Lifting the inputs into the state gives a six-dimensional autonomous DAE
whose matrix E is singular: two rows of the original E are zero because
they encode torque balance, not dynamics.  This script shows the matrix
chain, the tractability index, the corrected (admissible) projectors, and
the decoupled subsystem coefficients.
"""

import numpy as np

from daereach import build_rotating_masses, compute_index_and_chain, decouple, to_autonomous

np.set_printoptions(precision=4, suppress=True, linewidth=120)

system, inputs = build_rotating_masses()
print("original system: n =", system.n, "states,", system.m, "inputs")
print("E =\n", np.asarray(system.E))
print("A =\n", np.asarray(system.A))

auto = to_autonomous(system, inputs)
print("\nautonomous lift: dimension", auto.n, "(states + inputs)")

chain = compute_index_and_chain(auto)
print("\ntractability index:", chain.mu)
# the chain keeps one step per singular chain matrix E_j: its kernel basis
# K_j and the product A_j K_j; of the terminal matrix only its inverse
for j, (step, decision) in enumerate(zip(chain.steps, chain.decisions)):
    margin = ", ".join(f"{key} {value:.3g}" for key, value in decision.items() if key != "method")
    print(f"  E_{j}: kernel dimension {step.K.shape[1]} of {chain.n}, "
          f"rank decided by {decision['method']} ({margin})")
print(f"  E_{chain.mu}: nonsingular, certified with condition bound {chain.condition_bound:.3g}")

# each projector is kept factored as Q_j = K_j K_j^T
Q = [step.K @ step.K.T for step in chain.steps]
print("\nraw kernel projector Q0 (orthogonal):\n", Q[0])
print("raw Q1 @ Q0 is nonzero -> not admissible:\n", Q[1] @ Q[0])

# decoupling corrects the projectors to admissible ones, Q_j = K_j R_j, and
# keeps each R_j (None where Q_j is the chain's own)
dec = decouple(chain)
Q = [step.K @ (step.K.T if R is None else R) for step, R in zip(chain.steps, dec.R)]
print("\nafter correction, Q1 @ Q0 vanishes:")
print("  max |Q1 @ Q0| =", np.abs(Q[1] @ Q[0]).max())
print("corrected Q1 (oblique, fractions of thirds):\n", Q[1])

# the decoupled system is an operator on blocks; on the identity it gives
# the dense coefficients
identity = np.eye(dec.n)
N = dec.apply_N(identity)
print("\ndecoupled subsystems (index 2 -> one ODE + two constraint levels):")
print("ODE coefficient N1 =\n", N[1])
print("constraint level 1: N2 = 0 for this model, max |N2| =", np.abs(N[2]).max())
print("constraint level 2: N3 =\n", N[3])
print("derivative coupling L3 =\n", dec.apply_couplings(identity)["L3"])

total = sum(dec.apply_projectors(identity).values())
print(
    "\nsubsystem projectors partition the identity: max |sum - I| =",
    np.abs(total - np.eye(dec.n)).max(),
)
