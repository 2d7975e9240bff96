"""The basic function of a set of independent nonnegative rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroColumnError
from .linalg import as_matrix, greedy_independent_rows


@dataclass(frozen=True, eq=False)
class BasicSet:
    """A maximal linearly independent subset of the input rows."""

    row_indices: tuple[int, ...]
    X: np.ndarray

    @property
    def r(self) -> int:
        return len(self.row_indices)


def select_basic_set(a, tol_rank: float = 1e-9) -> BasicSet:
    """Pick independent rows with the first-wins greedy scan."""
    a = as_matrix(a)
    indices = greedy_independent_rows(a, tol_rank)
    return BasicSet(tuple(indices), a[indices].copy())


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


def _isolated(points, tol_dedup: float) -> np.ndarray:
    """Mask of points that have no other point within ``tol_dedup``.

    Max-norm distance is at least the distance in the first coordinate, so a
    point farther than the tolerance from both its neighbours in that order
    is isolated. The mask may miss isolated points, never the reverse.
    """
    order = np.argsort(points[:, 0], kind="stable")
    close = np.diff(points[order, 0]) <= tol_dedup
    isolated = np.ones(points.shape[0], dtype=bool)
    isolated[order[1:][close]] = isolated[order[:-1][close]] = False
    return isolated


def distinct_values(table: BasicFunctionTable, tol_dedup: float = 1e-9) -> DistinctRange:
    """Merge columns whose points differ by at most ``tol_dedup`` in max-norm.

    Each unique point is represented by the smallest column index attaining
    it, and unique points are listed in first-occurrence order. An isolated
    point is its own unique; only the others go through the claim loop.
    """
    points = table.points
    m = points.shape[0]
    owner = np.arange(m)  # the first point of each point's unique
    merged_inexact = False
    # Each new unique claims every still unassigned point within the
    # tolerance; earlier uniques claim first, so every point joins the first
    # unique it matches, as in a scan of the columns in order.
    candidates = np.flatnonzero(~_isolated(points, tol_dedup))
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
