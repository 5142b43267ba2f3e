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
# the chain keeps the singular matrices it factored, and of the terminal
# one only its inverse
for j, E_j in enumerate(chain.E_seq):
    print(f"  rank(E_{j}) = {np.linalg.matrix_rank(E_j)} of {chain.n}")
rank = np.linalg.matrix_rank(chain.terminal_inverse)
print(f"  rank(E_{chain.mu}) = {rank} of {chain.n} (nonsingular)")

# the chain keeps each projector factored as Q_j = K_j R_j
Q = [K @ R for K, R in chain.factors]
print("\nraw kernel projector Q0 (orthogonal):\n", Q[0])
print("raw Q1 @ Q0 is nonzero -> not admissible:\n", Q[1] @ Q[0])

# decoupling corrects the projectors to admissible ones and keeps them
# factored the same way
dec = decouple(chain)
Q = [K @ R for K, R in dec.factors]
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
