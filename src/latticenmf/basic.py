"""The basic function of a set of independent nonnegative rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroColumnError
from .linalg import Tolerances, as_matrix, independent_rows


@dataclass(frozen=True, eq=False)
class BasicSet:
    """A maximal linearly independent subset of the input rows."""

    row_indices: tuple[int, ...]
    X: np.ndarray

    @property
    def r(self) -> int:
        return len(self.row_indices)


def select_basic_set(a, tol_rank: float = Tolerances.rank) -> BasicSet:
    """Pick independent rows with the first-wins greedy scan."""
    return basic_set_of(as_matrix(a), tol_rank)


def basic_set_of(a: np.ndarray, tol_rank: float) -> BasicSet:
    """``select_basic_set`` of a matrix ``as_matrix`` has checked."""
    indices = independent_rows(a, tol_rank)
    return BasicSet(tuple(indices), a[indices])


@dataclass(frozen=True, eq=False)
class BasicFunctionTable:
    """Column shares of the basic rows: one simplex point per column.

    ``points[i]`` is column i of the basic rows divided by the column sum
    ``sums[i]``, i.e. a nonnegative vector with unit total.
    """

    points: np.ndarray  # m x r
    sums: np.ndarray  # length m, all positive

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def r(self) -> int:
        return self.points.shape[1]


def basic_function(x) -> BasicFunctionTable:
    """Normalize every column of the basic rows onto the simplex."""
    x = as_matrix(x, "basic rows")
    sums = x.sum(axis=0)
    zero = np.flatnonzero(sums == 0.0)
    if zero.size:
        raise ZeroColumnError(
            f"zero column at index {int(zero[0])}; strip zero columns first"
        )
    return BasicFunctionTable(points=np.ascontiguousarray((x / sums).T), sums=sums.copy())


@dataclass(frozen=True, eq=False)
class DistinctRange:
    """Deduplicated values of the basic function.

    ``merged_inexact`` is True when two columns were merged whose values
    agreed only within the tolerance, not bitwise.
    """

    unique_points: np.ndarray  # mu x r
    representative_column: tuple[int, ...]
    membership: tuple[int, ...]
    merged_inexact: bool = False

    @property
    def mu(self) -> int:
        return self.unique_points.shape[0]


def _sorted_runs(points, tol_dedup: float):
    """Cut the points, sorted by first coordinate, wherever a step exceeds
    ``tol_dedup``.

    Returns the stable sort ``order``, the ``starts`` of the runs in it, and
    each run's ``spread``: its largest per-coordinate ``max - min``. Points
    of different runs are farther than the tolerance apart in the first
    coordinate, so in max-norm too.
    """
    m = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    first = points[order, 0]
    step = np.empty(m, dtype=bool)
    step[:1] = True
    np.greater(first[1:] - first[:-1], tol_dedup, out=step[1:])
    starts = step.nonzero()[0]
    if starts.size == m:  # all runs are lone points
        return order, starts, np.zeros(m)
    ordered = points[order]
    spread = np.maximum.reduceat(ordered, starts) - np.minimum.reduceat(ordered, starts)
    return order, starts, spread.max(axis=1)


def distinct_values(
    table: BasicFunctionTable, tol_dedup: float = Tolerances.dedup
) -> DistinctRange:
    """Merge columns whose points differ by at most ``tol_dedup`` in max-norm.

    Each unique point is represented by the smallest column index attaining
    it, and unique points are listed in first-occurrence order: the result
    of a scan of the columns in order in which each point joins the first
    earlier unique within the tolerance, or becomes a new unique.

    The points are cut into sorted runs (``_sorted_runs``); points of
    different runs never merge. In a tight run, one whose spread is within
    the tolerance, every pair is within it too, since rounded subtraction is
    monotone: ``fl(a - b) <= fl(max - min)``. So the run's smallest column
    claims it whole, as in the scan; a lone point is such a run. Only the
    points of the other, wide runs go through the claim loop, in column
    order, and see the same claims as in the scan. A merge is inexact when
    a tight run's spread is above 0, or when the loop merges unequal points.
    """
    points = table.points
    m = points.shape[0]
    owner = np.arange(m)  # the first point of each point's unique
    merged_inexact = False
    order, starts, spread = _sorted_runs(points, tol_dedup)
    if starts.size < m:
        sizes = np.diff(starts, append=m)
        tight = spread <= tol_dedup
        merged_inexact = bool((spread[tight] > 0.0).any())
        in_tight = np.repeat(tight, sizes)
        run_owner = np.minimum.reduceat(order, starts)
        owner[order[in_tight]] = np.repeat(run_owner[tight], sizes[tight])
        # Each new unique claims every still unassigned point within the
        # tolerance; earlier uniques claim first, so every point joins the
        # first unique it matches, as in the scan.
        candidates = np.sort(order[~in_tight])
        coordinates = np.ascontiguousarray(points[candidates].T)
        unassigned = np.ones(candidates.size, dtype=bool)
        while unassigned.any():
            first = int(unassigned.argmax())
            diff = np.abs(coordinates - coordinates[:, first, None]).max(axis=0)
            claimed = unassigned & (diff <= tol_dedup)
            owner[candidates[claimed]] = candidates[first]
            merged_inexact = merged_inexact or bool((diff[claimed] > 0.0).any())
            unassigned &= ~claimed
    is_first = owner == np.arange(m)
    representatives = np.flatnonzero(is_first)
    membership = (np.cumsum(is_first) - 1)[owner]
    return DistinctRange(
        unique_points=points[representatives],
        representative_column=tuple(representatives.tolist()),
        membership=tuple(membership.tolist()),
        merged_inexact=merged_inexact,
    )
