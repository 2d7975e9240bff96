"""Phase-one simplex for equality-constrained nonnegative feasibility.

Dense tableau with Bland's smallest-index rule (over the columns that
give a sound pivot while there are any), run on a stack of problems
at once: every problem pivots on its own, and one pass of the loop makes one
pivot in each problem still running. The instances solved here are tiny (a
handful of constraint rows over at most a few hundred variables), so
determinism and guaranteed termination matter more than speed per problem;
stacking them removes the interpreter cost per problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexCheckError, SimplexStalledError
from .linalg import as_matrix

# How a problem of a stack ended; the last four are faults.
FEASIBLE, INFEASIBLE, NO_PIVOT_ROW, ITERATION_LIMIT, NEGATIVE_ENTRY, MISSED_EQUATIONS = range(6)

# The fault messages phase_one_feasible raises, filled in with StackResult.detail.
_FAULTS = {
    NO_PIVOT_ROW: (SimplexStalledError, "simplex stalled: no admissible pivot row"),
    ITERATION_LIMIT: (SimplexStalledError, "simplex stalled after {:.0f} iterations"),
    NEGATIVE_ENTRY: (SimplexCheckError, "simplex returned a negative entry {:.3e}"),
    MISSED_EQUATIONS: (SimplexCheckError, "simplex solution misses the equations by {:.3e}"),
}

# Tableau entries solved at once; a longer stack is solved in slices.
_SLICE_ENTRIES = 1 << 18

# An entering column is sound when its largest entry is at least this share
# of ``1 + max|a|``.
_PIVOT_RATIO = 1e-6


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Find x >= 0 with ``a_eq @ x == b_eq``."""

    a_eq: np.ndarray
    b_eq: np.ndarray


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of phase one.

    ``dual`` holds the final phase-one row prices ``y``, one per equation.
    They satisfy ``y @ a_eq <= 0`` (up to k times the pivot tolerance) and
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


class StackResult:
    """Outcome of phase one on a stack of problems, one row per problem.

    ``status`` is FEASIBLE, INFEASIBLE or the fault that stopped the
    problem. ``x`` is the solution found at a feasible optimum, checked or
    not (zeros otherwise); ``infeasibility``, ``iterations`` and ``dual`` are as in
    FeasibilityResult. ``detail`` is the figure a fault's message names:
    the iteration count, the lowest entry or the residual.
    """

    def __init__(self, count: int, k: int, q: int):
        self.status, self.iterations = np.zeros((2, count), dtype=int)
        self.infeasibility, self.detail = np.zeros((2, count))
        self.x, self.dual = np.zeros((count, q)), np.zeros((count, k))

    def raise_fault(self, p: int) -> None:
        """Raise the error ``phase_one_feasible`` raises for problem ``p``,
        if its status is a fault."""
        if self.status[p] in _FAULTS:
            error, message = _FAULTS[self.status[p]]
            raise error(message.format(self.detail[p]))


def solve_stack(a, b, tol_feas: float = 1e-9, max_iterations: int | None = None) -> StackResult:
    """Phase one for the systems ``a[p] @ x == b[p]``, ``x >= 0``.

    ``a`` is P x k x q and ``b`` is P x k; entries must be finite. Each
    problem follows exactly the pivots it would follow alone: its own Bland
    entering index, ratio test and pivot tolerance ``1e-11 * (1 +
    max|a[p]|)``. Feasibility is declared when its optimal phase-one
    objective is at most ``tol_feas * (1 + max|b[p]|)`` and the solution
    passes the checks of ``_solution_faults``. Nothing is raised for a
    problem; its status says how it ended.
    """
    b, a = np.asarray(b, dtype=float), np.asarray(a, dtype=float)
    (count, k), q = b.shape, a.shape[-1]
    if max_iterations is None:
        max_iterations = 1000 + 100 * (q + k)
    out = StackResult(count, k, q)
    step = max(1, _SLICE_ENTRIES // (k * (q + k + 1) or 1))
    for start in range(0, count, step):
        part = slice(start, start + step)
        _solve_slice(a[part], b[part], tol_feas, max_iterations, out, start)
    return out


def _solve_slice(a, b, tol_feas, max_iterations, out: StackResult, offset: int) -> None:
    """The pivot loop of ``solve_stack`` for problems ``offset...`` of ``out``."""
    count, k, q = a.shape
    n = q + k
    a_scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    # Flip rows with negative right-hand side so the artificial start is feasible.
    sign = np.where(b < 0.0, -1.0, 1.0)
    tableau = np.zeros((count, k, n + 1))
    tableau[:, :, :q] = a * sign[:, :, None]
    tableau[:, :, q:n] = np.eye(k)
    tableau[:, :, -1] = b * sign
    basis = np.tile(np.arange(q, n), (count, 1))
    cost = np.zeros(n)
    cost[q:] = 1.0
    scale = 1.0 + a_scale
    pivot_tol = 1e-11 * scale[:, None]
    # Below -k * pivot_tol, one of the k rows has an entry above pivot_tol,
    # so an improving column always has a pivot row.
    price_tol = -k * pivot_tol
    sound_floor = _PIVOT_RATIO * scale
    live = rows = np.arange(count)  # live: the problem of each working tableau
    optimal_parts = []  # (problems, tableaux, bases) that reached the optimum
    iteration = 0  # pivots made by every live problem

    while True:
        reduced = cost - (cost[basis][:, None, :] @ tableau[:, :, :n])[:, 0]
        improving = reduced < price_tol
        entering = improving.argmax(axis=1)  # Bland: smallest improving index
        column = tableau[rows, :, entering]
        admissible = column > pivot_tol
        going = improving.any(axis=1) & admissible.any(axis=1)
        if iteration == max_iterations or not going.all():
            # The others end: at the optimum (verdicts below), for want of a
            # pivot row, or at a pivot past the iteration cap.
            optimal = ~improving.any(axis=1)
            capped = going & (iteration == max_iterations)
            going &= ~capped
            ended = ~going
            problems = live[ended] + offset
            out.status[problems] = np.where(capped[ended], ITERATION_LIMIT, NO_PIVOT_ROW)
            out.iterations[problems] = out.detail[problems] = iteration + capped[ended]
            optimal_parts.append((live[optimal], tableau[optimal], basis[optimal]))
            if not going.any():
                break
            live, tableau, basis, pivot_tol, price_tol, sound_floor = (
                v[going] for v in (live, tableau, basis, pivot_tol, price_tol, sound_floor)
            )
            improving, entering, column, admissible = (
                v[going] for v in (improving, entering, column, admissible)
            )
            rows = np.arange(live.size)
        # A pivot on an entry tiny beside the matrix scales the basic values
        # by its inverse: where Bland's column has only such entries, take the
        # smallest improving index with a sound one, if there is any.
        top = column.max(axis=1)
        weak = top < sound_floor
        if weak.any():
            weak = np.flatnonzero(weak)
            sound = improving[weak] & (
                tableau[weak, :, :n].max(axis=1) >= sound_floor[weak, None]
            )
            weak, sound = weak[sound.any(axis=1)], sound[sound.any(axis=1)]
            entering[weak] = sound.argmax(axis=1)
            column[weak] = tableau[weak, :, entering[weak]]
            admissible[weak] = column[weak] > pivot_tol[weak]
            top[weak] = column[weak].max(axis=1)
        ratios = np.full(column.shape, np.inf)
        np.divide(tableau[:, :, -1], column, out=ratios, where=admissible)
        # Ties within the pivot tolerance go to Bland's rule. The band narrows
        # with the column's largest entry, so that no tie pushes another row's
        # right-hand side below -pivot_tol.
        band = pivot_tol[:, 0] / np.maximum(top, 1.0)
        candidates = admissible & (ratios <= (ratios.min(axis=1) + band)[:, None])
        leaving = np.where(candidates, basis, n).argmin(axis=1)
        pivot_row = tableau[rows, leaving] / column[rows, leaving, None]
        # Eliminate the entering column from every other row, all at once.
        column[rows, leaving] = 0.0
        tableau -= column[:, :, None] * pivot_row[:, None, :]
        tableau[rows, leaving] = pivot_row
        # Basic values below 0 are rounding, or at most pivot_tol in the rows
        # the ratio test weighs; round them up to 0 so that no later ratio is
        # negative. The checks at the end still see any equation this misses.
        np.maximum(tableau[:, :, -1], 0.0, out=tableau[:, :, -1])
        basis[rows, leaving] = entering
        iteration += 1

    # Verdicts at the optimum: phase-one duals of the sign-flipped rows mapped
    # back to the rows as given, the objective and the checked solution.
    if len(optimal_parts) > 1:
        optimal_parts = [tuple(np.concatenate(part) for part in zip(*optimal_parts))]
    problems, tableau, basis = optimal_parts[0]
    artificial = cost[basis][:, None, :]
    at = problems + offset
    out.dual[at] = (artificial @ tableau[:, :, q:n])[:, 0] * sign[problems]
    objective = out.infeasibility[at] = (artificial @ tableau[:, :, -1:])[:, 0, 0]
    out.status[at] = INFEASIBLE
    b_scale = np.abs(b[problems]).max(axis=1, initial=0.0)
    solved = objective <= tol_feas * (1.0 + b_scale)
    if not solved.any():
        return
    problems, at = problems[solved], at[solved]
    x = np.zeros((problems.size, n))
    x[np.arange(problems.size)[:, None], basis[solved]] = tableau[solved, :, -1]
    out.x[at] = x = x[:, :q]
    out.status[at], out.detail[at] = _solution_faults(
        a[problems], b[problems], x, a_scale[problems], b_scale[solved], tol_feas
    )


def _solution_faults(a, b, x, a_scale, b_scale, tol_feas: float):
    """Status and detail per problem: FEASIBLE unless ``x[p]`` has an entry
    below ``-tol_feas * (1 + b_scale[p])`` or misses ``a[p] @ x == b[p]`` by
    more than ``max(tol_feas, 1e-7) * (1 + b_scale[p]) * (1 + a_scale[p])``,
    where ``b_scale[p]`` is ``max|b[p]|`` and ``a_scale[p]`` is ``max|a[p]|``."""
    lowest = x.min(axis=1, initial=0.0)
    residual = np.abs((a @ x[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
    negative = lowest < -tol_feas * (1.0 + b_scale)
    missed = residual > max(tol_feas, 1e-7) * (1.0 + b_scale) * (1.0 + a_scale)
    status = np.where(negative, NEGATIVE_ENTRY, np.where(missed, MISSED_EQUATIONS, FEASIBLE))
    return status, np.where(negative, lowest, np.where(missed, residual, 0.0))


def phase_one_feasible(
    problem: FeasibilityProblem,
    tol_feas: float = 1e-9,
    max_iterations: int | None = None,
) -> FeasibilityResult:
    """Minimize the total artificial infeasibility of the equality system.

    The one-problem call of ``solve_stack``. Feasibility is declared when
    the optimal phase-one objective is at most ``tol_feas * (1 + max|b_eq|)``;
    otherwise the result carries the leftover objective as the
    infeasibility certificate. Which feasible point comes back is whichever
    basic solution the pivoting lands on. Raises SimplexStalledError or
    SimplexCheckError when the solve fails.
    """
    a = as_matrix(problem.a_eq, "a_eq")
    b = np.asarray(problem.b_eq, dtype=float).ravel()
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b_eq length {b.shape[0]} does not match {a.shape[0]} constraint rows")
    if b.size and not np.isfinite(b).all():
        raise ValueError("b_eq contains NaN or infinite entries")
    out = solve_stack(a[None], b[None], tol_feas, max_iterations)
    out.raise_fault(0)
    return FeasibilityResult(
        x=out.x[0] if out.status[0] == FEASIBLE else None,
        infeasibility=float(out.infeasibility[0]),
        iterations=int(out.iterations[0]),
        dual=out.dual[0],
    )


def _hull_system(points, pts):
    """``(a, b)`` of the systems writing each row of ``points`` as a convex
    combination of the rows of ``pts``: the coordinates of ``pts`` over a
    row of ones, against the point and 1."""
    points, pts = np.atleast_2d(np.asarray(points, dtype=float)), np.asarray(pts, dtype=float)
    if pts.shape[1] != points.shape[1]:
        raise ValueError("dimension mismatch between point and pts")
    a = np.ones((pts.shape[1] + 1, pts.shape[0]))
    a[:-1] = pts.T
    return a, np.column_stack([points, np.ones(len(points))])


def convex_combination(point, pts, tol_feas: float = 1e-9) -> FeasibilityResult:
    """Phase one for writing ``point`` as a convex combination of the rows
    of ``pts``: weights ``x >= 0`` with ``x @ pts == point`` and unit total.

    The dual of an infeasible result is ``(w, c)`` with ``w @ point + c > 0``
    and ``w @ q + c <= 0`` (up to k times the pivot tolerance) for every
    row ``q`` of ``pts``, i.e. ``w`` separates ``point`` from their hull.
    """
    a, b = _hull_system(np.ravel(point), np.atleast_2d(pts))
    return phase_one_feasible(FeasibilityProblem(a, b[0]), tol_feas)


def convex_combinations(points, pts, tol_feas: float = 1e-9) -> StackResult:
    """``convex_combination`` for every row of ``points`` in one stacked
    solve, all against the rows of ``pts``."""
    a, b = _hull_system(points, pts)
    a = np.broadcast_to(a, (len(b), *a.shape))
    return solve_stack(a, b, tol_feas)


def is_extreme_point(p, others, tol_feas: float = 1e-9) -> bool:
    """Whether ``p`` is an extreme point of the finite set ``{p} | others``.

    Reduces to phase-one feasibility of writing ``p`` as a convex
    combination of ``others``; infeasible means extreme. ``p`` must not
    itself appear among ``others`` (deduplicate upstream).
    """
    if np.asarray(others).size == 0:
        return True
    return not convex_combination(p, others, tol_feas).feasible
