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
        Linear predicate over the coefficients.
    check_feasible : bool
        Verify at construction that the coefficient polytope is nonempty
        (raises :class:`EmptyPredicateError` otherwise): a box (see
        :meth:`box`) with ``lower <= upper`` is, and anything else takes
        one feasibility LP.  Internal callers that reuse an
        already-validated predicate switch this off.

    The stored arrays are read-only; stars are immutable values and safe
    to share between threads.
    """

    __slots__ = ("V", "C", "d")

    def __init__(self, V, C, d, *, check_feasible=True):
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
        if check_feasible:
            bounds = self.box()  # with lower <= upper it holds its midpoint
            boxed = bounds is not None and np.all(bounds[0] <= bounds[1])
            if not boxed and lp.find_feasible(C, d, tol=FEASIBILITY_TOL) is None:
                raise EmptyPredicateError(
                    "the coefficient predicate C alpha <= d has no solution"
                )

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
            self._assert_bounded()
            return self.coefficient_vertices()
        except UnboundedPredicateError:  # unbounded, or no vertices at all
            return None

    def _assert_bounded(self):
        """Raise :class:`UnboundedPredicateError` unless every coefficient is
        bounded: a box is, anything else takes the LP extrema of ``±e_i``."""
        if self.box() is None:
            Support("lp", self, None).extrema(np.eye(self.width)[None])

    def sample_coefficients(self, count, seed):
        """``count`` predicate-satisfying coefficient vectors, shape (count, k).

        Points are convex mixtures of the polytope vertices with
        Dirichlet weights from a generator seeded by ``seed``, so results
        are reproducible and always feasible.
        """
        if count < 1:
            raise ValueError("count must be positive")
        self._assert_bounded()
        vertices = self.coefficient_vertices()
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(vertices.shape[0]), size=count)
        return weights @ vertices

    def sample_points(self, count, seed):
        """``count`` states of the star, shape (count, n)."""
        alphas = self.sample_coefficients(count, seed)
        return alphas @ self.V.T


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

    ``radius`` is the largest ``|alpha_i|`` over the polytope (the largest
    absolute vertex entry), the scale of a screen's rounding margin; it is
    ``None`` on the LP path, where nothing is screened.
    """

    __slots__ = ("method", "radius", "_star", "_points")

    def __init__(self, method, star, points):
        self.method = method
        self._star = star
        self._points = points  # (lower, upper), the vertices, or None
        if method == "box":
            self.radius = float(np.abs(np.concatenate(points)).max(initial=0.0))
        elif method == "vertices":
            self.radius = float(np.abs(points).max())
        else:
            self.radius = None

    def __repr__(self):
        return f"Support(method={self.method!r}, radius={self.radius!r})"

    def extrema(self, H, times=None):
        """``(min, max)`` of every row ``h`` of ``H`` as ``h @ alpha`` over
        the polytope, shape ``H.shape[:-1] + (2,)``.

        On the LP path ``H`` is a stack of one ``(q, k)`` block per step,
        and ``times`` (optional) names the steps in error messages: a row
        unbounded over the predicate raises
        :class:`UnboundedPredicateError`, an LP that finds the predicate
        empty (only a star built with ``check_feasible=False`` has one)
        :class:`EmptyPredicateError`, any other failed LP
        :class:`NumericalFailureError`.
        """
        H = np.asarray(H, dtype=float)
        if self.method == "box":
            lower, upper = self._points
            at_lower, at_upper = H * lower, H * upper
            return np.stack(
                [
                    np.minimum(at_lower, at_upper).sum(axis=-1),
                    np.maximum(at_lower, at_upper).sum(axis=-1),
                ],
                axis=-1,
            )
        if self.method == "vertices":
            values = H @ self._points.T
            return np.stack([values.min(axis=-1), values.max(axis=-1)], axis=-1)
        return self._lp_extrema(H, times)

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
