"""Phase-one simplex for equality-constrained nonnegative feasibility.

Dense tableau with Bland's smallest-index rule. The instances solved here
are tiny (a handful of constraint rows over at most a few hundred
variables), so determinism and guaranteed termination matter more than
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexCheckError, SimplexStalledError
from .linalg import as_matrix


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Find x >= 0 with ``a_eq @ x == b_eq``."""

    a_eq: np.ndarray
    b_eq: np.ndarray


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of phase one.

    ``dual`` holds the final phase-one row prices ``y``, one per equation.
    They satisfy ``y @ a_eq <= 0`` (up to the pivot tolerance) and
    ``y @ b_eq == infeasibility``, so when the system is infeasible ``y``
    certifies it: no ``x >= 0`` can reach a positive ``y @ b_eq``.
    """

    x: np.ndarray | None
    infeasibility: float
    iterations: int
    dual: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.x is not None


def phase_one_feasible(
    problem: FeasibilityProblem,
    tol_feas: float = 1e-9,
    max_iterations: int | None = None,
) -> FeasibilityResult:
    """Minimize the total artificial infeasibility of the equality system.

    Feasibility is declared when the optimal phase-one objective is at
    most ``tol_feas * (1 + max|b_eq|)``; otherwise the result carries the
    leftover objective as the infeasibility certificate. Which feasible
    point comes back is whichever basic solution the pivoting lands on.
    """
    a = as_matrix(problem.a_eq, "a_eq")
    b = np.asarray(problem.b_eq, dtype=float).ravel()
    k, q = a.shape
    if b.shape[0] != k:
        raise ValueError(f"b_eq length {b.shape[0]} does not match {k} constraint rows")
    if b.size and not np.isfinite(b).all():
        raise ValueError("b_eq contains NaN or infinite entries")

    # Flip rows with negative right-hand side so the artificial start is feasible.
    sign = np.where(b < 0.0, -1.0, 1.0)
    tableau = np.zeros((k, q + k + 1))
    tableau[:, :q] = a * sign[:, None]
    tableau[:, q : q + k] = np.eye(k)
    tableau[:, -1] = b * sign
    basis = np.arange(q, q + k)
    cost = np.zeros(q + k)
    cost[q:] = 1.0

    pivot_tol = 1e-11 * (1.0 + (float(np.abs(a).max()) if a.size else 0.0))
    if max_iterations is None:
        max_iterations = 1000 + 100 * (q + k)

    iterations = 0
    while True:
        reduced = cost - cost[basis] @ tableau[:, : q + k]
        improving = (reduced < -pivot_tol).nonzero()[0]
        if improving.size == 0:
            break
        entering = int(improving[0])  # Bland: smallest improving index
        column = tableau[:, entering]
        rows = (column > pivot_tol).nonzero()[0]
        if rows.size == 0:
            raise SimplexStalledError("simplex stalled: no admissible pivot row")
        ratios = tableau[rows, -1] / column[rows]
        best = float(ratios.min())
        candidates = rows[ratios <= best + pivot_tol]
        leaving = int(candidates[basis[candidates].argmin()])
        tableau[leaving] /= tableau[leaving, entering]
        # Eliminate the entering column from the rows that have it, all at once.
        touched = (column != 0.0).nonzero()[0]
        touched = touched[touched != leaving]
        tableau[touched] -= column[touched, None] * tableau[leaving]
        basis[leaving] = entering
        iterations += 1
        if iterations > max_iterations:
            raise SimplexStalledError(f"simplex stalled after {iterations} iterations")

    # Phase-one duals of the sign-flipped rows, mapped back to the rows as given.
    dual = (cost[basis] @ tableau[:, q : q + k]) * sign
    objective = float(cost[basis] @ tableau[:, -1])
    b_scale = float(np.abs(b).max()) if b.size else 0.0
    if objective > tol_feas * (1.0 + b_scale):
        return FeasibilityResult(None, objective, iterations, dual)
    x = np.zeros(q)
    structural = basis < q
    x[basis[structural]] = tableau[structural, -1]
    _check_solution(a, b, x, tol_feas)
    return FeasibilityResult(x, objective, iterations, dual)


def _check_solution(a, b, x, tol_feas: float) -> None:
    """Raise SimplexCheckError unless ``x`` is nonnegative and solves
    ``a @ x == b`` within the solver's own bounds. A real check rather than
    an assert, so it also runs under ``python -O``."""
    b_scale = float(np.abs(b).max(initial=0.0))
    lowest = float(x.min(initial=0.0))
    if lowest < -tol_feas * (1.0 + b_scale):
        raise SimplexCheckError(f"simplex returned a negative entry {lowest:.3e}")
    residual = float(np.abs(a @ x - b).max(initial=0.0))
    if residual > max(tol_feas, 1e-7) * (1.0 + b_scale) * (1.0 + np.abs(a).max(initial=0.0)):
        raise SimplexCheckError(f"simplex solution misses the equations by {residual:.3e}")


def convex_combination(point, pts, tol_feas: float = 1e-9) -> FeasibilityResult:
    """Phase one for writing ``point`` as a convex combination of the rows
    of ``pts``: weights ``x >= 0`` with ``x @ pts == point`` and unit total.

    The dual of an infeasible result is ``(w, c)`` with ``w @ point + c > 0``
    and ``w @ q + c <= 0`` (up to the pivot tolerance) for every row ``q``
    of ``pts``, i.e. ``w`` separates ``point`` from their hull.
    """
    point = np.asarray(point, dtype=float).ravel()
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != point.shape[0]:
        raise ValueError("dimension mismatch between point and pts")
    a_eq = np.vstack([pts.T, np.ones((1, pts.shape[0]))])
    b_eq = np.concatenate([point, [1.0]])
    return phase_one_feasible(FeasibilityProblem(a_eq, b_eq), tol_feas)


def is_extreme_point(p, others, tol_feas: float = 1e-9) -> bool:
    """Whether ``p`` is an extreme point of the finite set ``{p} | others``.

    Reduces to phase-one feasibility of writing ``p`` as a convex
    combination of ``others``; infeasible means extreme. ``p`` must not
    itself appear among ``others`` (deduplicate upstream).
    """
    if np.asarray(others).size == 0:
        return True
    return not convex_combination(p, others, tol_feas).feasible
