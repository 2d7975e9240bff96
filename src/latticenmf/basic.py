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


def distinct_values(table: BasicFunctionTable, tol_dedup: float = 1e-9) -> DistinctRange:
    """Merge columns whose points differ by at most ``tol_dedup`` in max-norm.

    Each unique point is represented by the smallest column index attaining
    it, and unique points are listed in first-occurrence order.
    """
    points = table.points
    membership = np.empty(points.shape[0], dtype=int)
    representatives: list[int] = []
    merged_inexact = False
    # Each new unique claims every later, still unassigned point within
    # the tolerance; earlier uniques claim first, so every point joins the
    # first unique it matches, as in a scan of the columns in order.
    unassigned = np.arange(points.shape[0])
    while unassigned.size:
        first, rest = unassigned[0], unassigned[1:]
        diff = np.abs(points[rest] - points[first]).max(axis=1)
        claimed = diff <= tol_dedup
        membership[first] = membership[rest[claimed]] = len(representatives)
        representatives.append(int(first))
        merged_inexact = merged_inexact or bool((diff[claimed] > 0.0).any())
        unassigned = rest[~claimed]
    return DistinctRange(
        unique_points=points[representatives],
        representative_column=tuple(representatives),
        membership=tuple(membership.tolist()),
        merged_inexact=merged_inexact,
    )
