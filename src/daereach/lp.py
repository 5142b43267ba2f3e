"""Dense two-phase simplex over inequality systems with free variables.

Solves ``min c @ x  subject to  A @ x <= b`` with ``x`` unrestricted in
sign, by splitting ``x`` into nonnegative parts and adding slacks.  Entering
and leaving variables follow Bland's rule, so the iteration cannot cycle
and always terminates.  The solver is deterministic: identical inputs give
identical pivots and identical answers.

This is deliberately a small, self-contained kernel: the feasibility
problems in the safety loop have a handful of variables and constraints,
and determinism matters more than large-scale performance.  A different
backend can be plugged into the callers that accept a ``kernel`` argument.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .linalg import as_matrix, as_vector

__all__ = ["LpResult", "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "solve_lp", "find_feasible"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """Outcome of a linear program: a status and, when optimal, a point."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # clamp the pivot column to its exact unit form to stop error creep
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _iterate(tableau, basis, num_enterable, tol, budget):
    """Run simplex iterations on a tableau whose last row is the objective.

    Only columns < ``num_enterable`` may enter the basis.  Returns the
    terminal status and the number of pivots spent.
    """
    rows = len(basis)
    spent = 0
    while True:
        cost = tableau[-1, :num_enterable]
        candidates = np.nonzero(cost < -tol)[0]
        if candidates.size == 0:
            return OPTIMAL, spent
        enter = int(candidates[0])  # Bland: lowest eligible index
        column = tableau[:rows, enter]
        positive = np.nonzero(column > tol)[0]
        if positive.size == 0:
            return UNBOUNDED, spent
        ratios = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12]
        leave = ties[np.argmin([basis[i] for i in ties])]  # Bland tie-break
        _pivot(tableau, basis, int(leave), enter)
        spent += 1
        if spent > budget:
            raise NumericalFailureError(
                f"simplex exceeded the pivot budget ({budget}); "
                "the problem is probably too ill-conditioned for this kernel"
            )


def solve_lp(c, A, b, tol=1e-9):
    """Minimize ``c @ x`` subject to ``A @ x <= b`` over free ``x``.

    Parameters
    ----------
    c : array_like, shape (k,)
        Objective coefficients; pass zeros for a pure feasibility problem.
    A, b : array_like
        Inequality system, ``A`` of shape (p, k) and ``b`` of shape (p,).
    tol : float
        Pivot / optimality tolerance.

    Returns
    -------
    LpResult
        ``status`` is one of ``"optimal"``, ``"infeasible"``,
        ``"unbounded"``; ``x`` and ``objective`` are set when optimal.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    p, k = A.shape
    if b.shape[0] != p:
        raise ValueError(f"A has {p} rows but b has {b.shape[0]} entries")
    if c.shape[0] != k:
        raise ValueError(f"A has {k} columns but c has {c.shape[0]} entries")

    # rows 0 @ x <= b_i are vacuous when b_i >= 0 and unsatisfiable otherwise
    row_mag = np.abs(A).max(axis=1)
    vacuous = row_mag <= 1e-30
    if np.any(vacuous & (b < -tol)):
        return LpResult(INFEASIBLE)
    keep = ~vacuous
    A, b = A[keep], b[keep]
    p = A.shape[0]

    # scale each remaining row to unit magnitude for stable pivoting
    if p:
        row_scale = np.maximum(row_mag[keep], np.abs(b))
        A = A / row_scale[:, None]
        b = b / row_scale
    if p == 0:
        x = np.zeros(k)
        if np.any(np.abs(c) > 0.0):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, x, 0.0)

    flip = b < 0.0
    A = np.where(flip[:, None], -A, A)
    sign = np.where(flip, -1.0, 1.0)
    b = np.abs(b)

    # structural columns: x+ (k), x- (k), slacks (p); artificials for flipped rows
    num_struct = 2 * k + p
    art_rows = np.nonzero(flip)[0]
    num_art = art_rows.size
    total = num_struct + num_art

    tableau = np.zeros((p + 1, total + 1))
    tableau[:p, :k] = A
    tableau[:p, k : 2 * k] = -A
    tableau[:p, 2 * k : num_struct] = np.diag(sign)
    for idx, row in enumerate(art_rows):
        tableau[row, num_struct + idx] = 1.0
    tableau[:p, -1] = b

    basis = np.empty(p, dtype=int)
    basis[~flip] = 2 * k + np.nonzero(~flip)[0]
    basis[art_rows] = num_struct + np.arange(num_art)

    # a hard cap on pivots, so a stalled solve fails distinctly from infeasibility
    budget = 2000 + 200 * (p + total)

    # phase 1: drive the artificial variables to zero
    if num_art:
        tableau[-1, :] = 0.0
        tableau[-1, num_struct:total] = 1.0
        for row in art_rows:
            tableau[-1] -= tableau[row]
        status, spent = _iterate(tableau, basis, num_struct, tol, budget)
        if status != OPTIMAL:  # phase-1 objective is bounded below by 0
            raise NumericalFailureError("phase-1 simplex reported unbounded")
        if -tableau[-1, -1] > tol * max(1.0, p):
            return LpResult(INFEASIBLE)
        budget -= spent
        # pivot remaining zero-level artificials out, or drop redundant rows
        drop = []
        for row in range(p):
            if basis[row] >= num_struct:
                nonzero = np.nonzero(np.abs(tableau[row, :num_struct]) > tol)[0]
                if nonzero.size:
                    _pivot(tableau, basis, row, int(nonzero[0]))
                else:
                    drop.append(row)
        if drop:
            keep_rows = [i for i in range(p) if i not in drop]
            tableau = tableau[keep_rows + [p], :]
            basis = basis[keep_rows]
            p = len(keep_rows)

    # phase 2: minimize the real objective
    struct_cost = np.zeros(total)
    struct_cost[:k] = c
    struct_cost[k : 2 * k] = -c
    tableau[-1, :] = 0.0
    tableau[-1, :total] = struct_cost
    for row in range(p):
        coef = struct_cost[basis[row]]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[row]
    status, _ = _iterate(tableau, basis, num_struct, tol, budget)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    z = np.zeros(total)
    for row in range(p):
        if basis[row] < num_struct:
            z[basis[row]] = tableau[row, -1]
    x = z[:k] - z[k : 2 * k]
    return LpResult(OPTIMAL, x, float(c @ x))


def find_feasible(A, b, tol=1e-9):
    """Some point of ``{x : A @ x <= b}``, or ``None`` if the set is empty."""
    A = as_matrix(A, "A")
    result = solve_lp(np.zeros(A.shape[1]), A, b, tol=tol)
    return result.x if result.status == OPTIMAL else None
