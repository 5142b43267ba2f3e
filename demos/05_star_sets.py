"""The star-set representation and its algebra.

A star set is a basis matrix V with a polyhedral predicate over the
combination coefficients: the set {V a : C a <= d}.  Linear maps act on
the basis alone, so pushing a star through LTI dynamics costs one matrix
product per step while the predicate never changes.  This script shows
construction, linear images, sampling, and why predicate immutability
makes per-step safety checks cheap.
"""

import numpy as np

from daereach import StarSet

np.set_printoptions(precision=4, suppress=True)


def sample_points(star, count, seed):
    """``count`` points of a bounded star: convex mixtures of its
    coefficient vertices with Dirichlet weights, mapped through the basis."""
    vertices = star.coefficient_vertices()
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(vertices)), size=count)
    return weights @ vertices @ star.V.T


# a 2-D box of coefficients, embedded in state space through a basis
V = np.array([[1.0, 0.0], [0.0, 1.0]])
C = np.vstack([np.eye(2), -np.eye(2)])
d = np.array([1.0, 1.0, 1.0, 1.0])  # coefficients in [-1, 1]^2
square = StarSet(V, C, d)
print("star:", square)
print("coefficient vertices:\n", square.coefficient_vertices())

# a rotation acts on the basis; the predicate is untouched
angle = np.pi / 4
rotation = np.array(
    [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
)
diamond = StarSet(rotation @ square.V, square.C, square.d)
print("\nafter a 45-degree rotation the basis changes ...")
print("V =\n", np.asarray(diamond.V))
print("... but the predicate object is literally shared:",
      diamond.C is square.C)

# sampling always lands inside the set (convex mixing of vertices)
points = sample_points(diamond, 5, seed=1)
print("\nsample points of the rotated star:\n", points)

# mapping first or sampling first commutes
projection = np.array([[1.0, 1.0]])
shadow = StarSet(projection @ diamond.V, diamond.C, diamond.d)
print("\nprojection of samples == samples of projection:",
      np.allclose(
          sample_points(diamond, 5, seed=7) @ projection.T,
          sample_points(shadow, 5, seed=7),
      ))

# degenerate predicates are fine: an exact point is a star too
point = StarSet(np.array([[2.0], [1.0]]), np.array([[1.0], [-1.0]]), np.zeros(2))
print("\ndegenerate star samples to a single point:\n",
      sample_points(point, 3, seed=0))

# empty predicates are rejected at construction
try:
    StarSet(V, np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-2.0, 1.0]))
except Exception as exc:
    print("\nempty predicate rejected:", type(exc).__name__, "-", exc)
