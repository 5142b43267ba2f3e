"""Star sets: a basis matrix paired with a polyhedral coefficient predicate.

A star represents the set ``{V @ alpha : C @ alpha <= d}``.  Affine maps
act on the basis alone and leave the predicate untouched, which is what
makes the representation cheap to push through linear dynamics.

:meth:`StarSet.support` is the one support-function primitive over the
predicate: the minimum and maximum of linear functions of ``alpha``, in
closed form for a box, from the vertices of a polytope with few of them,
and by two LPs per row otherwise.
"""

from itertools import combinations
from math import comb

import numpy as np

from . import lp
from .errors import (
    DimensionMismatchError,
    EmptyPredicateError,
    NumericalFailureError,
    UnboundedPredicateError,
)
from .linalg import FEASIBILITY_TOL, as_matrix, as_vector, readonly

__all__ = ["StarSet", "Support"]

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
        Linear predicate over the coefficients.  It must be nonempty, or
        :class:`EmptyPredicateError` is raised: a box (see :meth:`box`)
        with ``lower <= upper`` is, and anything else takes one
        feasibility LP.

    The stored arrays are read-only; stars are immutable values and safe
    to share between threads.
    """

    __slots__ = ("V", "C", "d")

    def __init__(self, V, C, d):
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
        self.V = readonly(V)
        self.C = readonly(C)
        self.d = readonly(d)
        bounds = self.box()  # with lower <= upper it holds its midpoint
        boxed = bounds is not None and np.all(bounds[0] <= bounds[1])
        if not boxed and lp.find_feasible(C, d, tol=FEASIBILITY_TOL) is None:
            raise EmptyPredicateError("the coefficient predicate C alpha <= d has no solution")

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

    def box(self):
        """The predicate as coefficient bounds ``(lower, upper)``, or ``None``
        when it is not a box.

        It is a box when every row of ``C`` has exactly one nonzero and
        every coefficient has at least one upper and one lower row; scaled,
        duplicate and redundant rows are allowed, and the tightest
        ``d_i / c_i`` on each side is the bound.  Such a predicate is
        bounded by its structure, with no LP.
        """
        C, d = self.C, self.d
        nonzero = C != 0.0
        if not np.all(nonzero.sum(axis=1) == 1):
            return None
        bound = d[:, None] / np.where(nonzero, C, 1.0)
        upper = np.where(C > 0.0, bound, np.inf).min(axis=0, initial=np.inf)
        lower = np.where(C < 0.0, bound, -np.inf).max(axis=0, initial=-np.inf)
        if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
            return None
        return lower, upper

    def support(self, budget):
        """The support function of the coefficient polytope, by the cheapest
        exact method the predicate allows (see :class:`Support`).

        A box takes the closed form; any other bounded predicate whose
        vertex enumeration visits at most ``budget`` constraint subsets
        takes its vertices (:meth:`vertices_within`); everything else
        takes LPs.  Nonemptiness was proven when the star was built.
        """
        bounds = self.box()
        if bounds is not None:
            return Support("box", self, bounds)
        vertices = self.vertices_within(budget)
        if vertices is not None:
            return Support("vertices", self, vertices)
        return Support("lp", self, None)

    def coefficient_vertices(self):
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
        slack = FEASIBILITY_TOL * np.maximum(1.0, np.abs(d))
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

    def vertices_within(self, budget):
        """The coefficient polytope's vertices, or ``None`` when they are
        not a cheap or sound stand-in for LPs over the predicate.

        Over a bounded nonempty polytope the minimum and maximum of any
        linear function are attained at a vertex, so one product with the
        vertex matrix gives the exact support function in every direction.
        The vertices are returned only when enumeration visits at most
        ``budget`` constraint subsets and the predicate is proven bounded
        (by its box structure, else ``2k`` LPs); an unbounded predicate
        still has vertices (``alpha >= 1`` has ``alpha = 1``), but its
        support function does not come from them.
        """
        p, k = self.C.shape
        if comb(p, k) > min(budget, _MAX_VERTEX_COMBINATIONS):
            return None
        try:
            if self.box() is None:  # the LP extrema of +-e_i raise if unbounded
                Support("lp", self, None).extrema(np.eye(self.width)[None])
            return self.coefficient_vertices()
        except UnboundedPredicateError:  # unbounded, or no vertices at all
            return None


class Support:
    """Minimum and maximum of linear functions over a star's coefficient
    polytope; built by :meth:`StarSet.support`.

    ``method`` names how the extrema are found:

    * ``"box"`` -- ``lower <= alpha <= upper``: each term of ``h @ alpha``
      is extremal at one end of its interval, so the minimum is
      ``sum_i min(h_i lower_i, h_i upper_i)`` (the same value as
      ``h @ c - |h| @ r`` for the centre ``c`` and radii ``r``, without
      the cancellation), and no LP runs;
    * ``"vertices"`` -- one product with the vertex matrix, whose row
      minimum and maximum are exact over a bounded polytope;
    * ``"lp"`` -- two simplex LPs per row.
    """

    __slots__ = ("method", "_star", "_points")

    def __init__(self, method, star, points):
        self.method = method
        self._star = star
        self._points = points  # (lower, upper), the vertices, or None

    def __repr__(self):
        return f"Support(method={self.method!r})"

    def extrema(self, H, times=None):
        """``(min, max)`` of every row ``h`` of ``H`` as ``h @ alpha`` over
        the polytope, shape ``H.shape[:-1] + (2,)``.

        On the LP path ``H`` is a stack of one ``(q, k)`` block per step,
        and ``times`` (optional) names the steps in error messages: a row
        unbounded over the predicate raises
        :class:`UnboundedPredicateError`, an LP that finds the predicate
        empty :class:`EmptyPredicateError` (the constructor proved it
        nonempty, so this checks the LP's own answer), any other failed LP
        :class:`NumericalFailureError`.
        """
        H = np.asarray(H, dtype=float)
        if self.method == "box":
            # one copy with the axes reversed: each coefficient's bound scales
            # one contiguous slab, the instants innermost, and the terms are
            # summed slab by slab (below 9 coefficients numpy's order along a
            # row too, so the values are the same bit for bit)
            along = np.ascontiguousarray(H.T)
            shape = (-1,) + (1,) * (along.ndim - 1)
            lower, upper = (bound.reshape(shape) for bound in self._points)
            at_lower, at_upper = along * lower, along * upper
            return np.stack(
                [
                    np.minimum(at_lower, at_upper).sum(axis=0).T,
                    np.maximum(at_lower, at_upper).sum(axis=0).T,
                ],
                axis=-1,
            )
        if self.method == "vertices":
            values = H @ self._points.T
            return np.stack([values.min(axis=-1), values.max(axis=-1)], axis=-1)
        return self._lp_extrema(H, times)

    def slack_minimum(self, H, c):
        """The minimum of ``h @ alpha - c |h| @ |alpha|`` over the polytope
        for every row ``h`` of ``H``, shape ``H.shape[:-1]``; box and
        vertices only.

        The function is concave, so its minimum lies at a vertex: for a box
        each term takes the smaller of its two values at the ends of its
        interval; for vertices the rows are copied once with the axes
        reversed, the instants innermost, and each vertex takes one pass
        over all of them, a row of one ``v x k`` by ``k x (J+1) q`` product,
        not one small product per instant."""
        H = np.asarray(H, dtype=float)
        if self.method == "box":
            slack = c * np.abs(H)
            ends = [H * end - slack * np.abs(end) for end in self._points]
            return np.minimum(*ends).sum(axis=-1)
        vertices = self._points
        along = np.ascontiguousarray(H.T)
        rows = along.reshape(len(along), -1)
        values = vertices @ rows - np.abs(vertices) @ (c * np.abs(rows))
        return values.min(axis=0).reshape(along.shape[1:]).T

    def _lp_extrema(self, H, times):
        C, d = self._star.C, self._star.d
        extrema = np.empty(H.shape[:-1] + (2,))
        for j, (step, row) in enumerate(zip(H, extrema)):
            where = f"step {j}" if times is None else f"time {times[j]}"
            for i, h in enumerate(step):
                lo = lp.solve_lp(h, C, d, tol=FEASIBILITY_TOL)
                hi = lp.solve_lp(-h, C, d, tol=FEASIBILITY_TOL)
                if lp.UNBOUNDED in (lo.status, hi.status):
                    raise UnboundedPredicateError(
                        f"direction {i} is unbounded over the predicate at {where}"
                    )
                if lp.INFEASIBLE in (lo.status, hi.status):
                    raise EmptyPredicateError(
                        "the coefficient predicate C alpha <= d has no solution"
                    )
                if lo.status != lp.OPTIMAL or hi.status != lp.OPTIMAL:
                    raise NumericalFailureError(f"direction {i} failed at {where}")
                row[i] = lo.objective, -hi.objective
        return extrema
