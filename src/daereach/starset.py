"""Star sets: a basis matrix paired with a polyhedral coefficient predicate.

A star represents the set ``{V @ alpha : C @ alpha <= d}``.  Affine maps
act on the basis alone and leave the predicate untouched, which is what
makes the representation cheap to push through linear dynamics.
"""

from itertools import combinations
from math import comb

import numpy as np

from . import lp
from .errors import (
    DimensionMismatchError,
    EmptyPredicateError,
    UnboundedPredicateError,
)
from .linalg import DEFAULT_TOLERANCES, as_matrix, as_vector, readonly

__all__ = ["StarSet"]

# vertex enumeration visits C(p, k) constraint subsets; beyond this the
# caller should not be using a combinatorial method at all
_MAX_VERTEX_COMBINATIONS = 200_000


class StarSet:
    """The set ``{V @ alpha : C @ alpha <= d}``.

    Parameters
    ----------
    V : array_like, shape (n, k)
        Basis matrix; column ``i`` multiplies coefficient ``alpha_i``.
    C, d : array_like, shapes (p, k) and (p,)
        Linear predicate over the coefficients.
    check_feasible : bool
        Verify at construction that the coefficient polytope is nonempty
        (raises :class:`EmptyPredicateError` otherwise).  Internal callers
        that reuse an already-validated predicate switch this off.

    The stored arrays are read-only; stars are immutable values and safe
    to share between threads.
    """

    __slots__ = ("V", "C", "d")

    def __init__(self, V, C, d, *, check_feasible=True, tol=DEFAULT_TOLERANCES):
        V = as_matrix(V, "V")
        C = as_matrix(C, "C")
        d = as_vector(d, "d")
        if C.shape[0] != d.shape[0]:
            raise DimensionMismatchError(
                f"C has {C.shape[0]} rows but d has {d.shape[0]} entries"
            )
        if C.shape[1] != V.shape[1]:
            raise DimensionMismatchError(
                f"V has {V.shape[1]} columns but C constrains {C.shape[1]} coefficients"
            )
        if check_feasible and lp.find_feasible(C, d, tol=tol.feasibility_tol) is None:
            raise EmptyPredicateError(
                "the coefficient predicate C alpha <= d has no solution"
            )
        self.V = readonly(V)
        self.C = readonly(C)
        self.d = readonly(d)

    @property
    def dim(self):
        """State-space dimension (rows of the basis)."""
        return self.V.shape[0]

    @property
    def width(self):
        """Number of basis columns / coefficients."""
        return self.V.shape[1]

    def __repr__(self):
        return (
            f"StarSet(dim={self.dim}, width={self.width}, "
            f"constraints={self.C.shape[0]})"
        )

    def with_basis(self, V):
        """A star with a new basis and this star's (already validated) predicate."""
        return StarSet(V, self.C, self.d, check_feasible=False)

    def linear_image(self, T):
        """The star ``{T x : x in self}``; the predicate is unchanged."""
        T = as_matrix(T, "T")
        if T.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"map has {T.shape[1]} columns but the star lives in dimension {self.dim}"
            )
        return self.with_basis(T @ self.V)

    def coefficient_vertices(self, tol=DEFAULT_TOLERANCES):
        """Vertices of the coefficient polytope, one per row.

        Enumerates all ``k``-subsets of active constraints, so this is only
        meant for the low-dimensional predicates that arise in initial sets
        and test oracles.
        """
        C, d = self.C, self.d
        p, k = C.shape
        combos = comb(p, k)
        if combos > _MAX_VERTEX_COMBINATIONS:
            raise ValueError(
                f"vertex enumeration over {combos} constraint subsets refused"
            )
        slack = tol.feasibility_tol * np.maximum(1.0, np.abs(d))
        found = []
        for rows in combinations(range(p), k):
            sub = C[list(rows)]
            if np.linalg.matrix_rank(sub) < k:
                continue
            vertex = np.linalg.solve(sub, d[list(rows)])
            if np.all(C @ vertex <= d + slack):
                found.append(vertex)
        if not found:
            raise UnboundedPredicateError(
                "the coefficient polytope has no vertices; it is unbounded "
                "or degenerate beyond what vertex enumeration handles"
            )
        vertices = np.array(found)
        _, unique = np.unique(np.round(vertices, 9), axis=0, return_index=True)
        return vertices[np.sort(unique)]

    def vertices_within(self, budget, tol=DEFAULT_TOLERANCES):
        """The coefficient polytope's vertices, or ``None`` when they are
        not a cheap or sound stand-in for LPs over the predicate.

        Over a bounded nonempty polytope the minimum and maximum of any
        linear function are attained at a vertex, so one product with the
        vertex matrix gives the exact support function in every direction.
        The vertices are returned only when enumeration visits at most
        ``budget`` constraint subsets and the predicate is proven bounded
        (``2k`` LPs); an unbounded predicate still has vertices (``alpha
        >= 1`` has ``alpha = 1``), but its support function does not come
        from them.
        """
        p, k = self.C.shape
        if comb(p, k) > min(budget, _MAX_VERTEX_COMBINATIONS):
            return None
        try:
            self._assert_bounded(tol)
            return self.coefficient_vertices(tol)
        except UnboundedPredicateError:  # unbounded, or no vertices at all
            return None

    def _assert_bounded(self, tol):
        ftol = tol.feasibility_tol
        for i in range(self.width):
            direction = np.zeros(self.width)
            direction[i] = 1.0
            for sgn in (1.0, -1.0):
                result = lp.solve_lp(sgn * direction, self.C, self.d, tol=ftol)
                if result.status == lp.UNBOUNDED:
                    raise UnboundedPredicateError(
                        f"coefficient {i} is unbounded over the predicate"
                    )

    def sample_coefficients(self, count, seed, tol=DEFAULT_TOLERANCES):
        """``count`` predicate-satisfying coefficient vectors, shape (count, k).

        Points are convex mixtures of the polytope vertices with
        Dirichlet weights from a generator seeded by ``seed``, so results
        are reproducible and always feasible.
        """
        if count < 1:
            raise ValueError("count must be positive")
        self._assert_bounded(tol)
        vertices = self.coefficient_vertices(tol)
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(vertices.shape[0]), size=count)
        return weights @ vertices

    def sample_points(self, count, seed, tol=DEFAULT_TOLERANCES):
        """``count`` states of the star, shape (count, n)."""
        alphas = self.sample_coefficients(count, seed, tol)
        return alphas @ self.V.T
