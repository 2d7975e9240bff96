"""Vertices of the polytope spanned by the distinct basic-function values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import SpanDeficiencyError
from .linalg import greedy_independent_rows
from .simplex import convex_combination, is_extreme_point


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Ordered polytope vertices with the columns they came from."""

    vertices: np.ndarray  # d x r, one vertex per row
    source_columns: tuple[int, ...]
    r: int
    # mu x d convex weights of the unique points over the vertices (NaN: none)
    unique_coefficients: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.vertices.shape[0]


def hull_vertices(rng: DistinctRange, tol_feas: float = 1e-9) -> VertexSet:
    """Extreme points of the unique values, in first-occurrence order.

    Output-sensitive frame search (Clarkson 1994; Dula & Helgason 1996):
    each unique point is tested against the hull of the vertices confirmed
    so far, not against all other points. A feasible test makes the point
    interior. An infeasible one yields a separating direction ``w`` (the
    phase-one dual); the not-yet-confirmed point maximizing ``w``, near-ties
    broken to the lexicographic maximum, joins the confirmed set, and the
    point is tested again. Each test has as many columns as there are
    confirmed points, and there is one failed test per confirmed point.

    A near-tie can confirm a point that is not extreme (one just inside a
    vertex on an edge leaving the maximal face). By the end every point lies
    in the hull of the confirmed ones, so a last pass keeps exactly the
    confirmed points outside the hull of the other confirmed points.

    An interior point's feasible test gives its convex weights over the
    points confirmed by then: ``unique_coefficients``, with NaN rows where
    they lean on a point the last pass drops (its own row included).
    """
    points = rng.unique_points
    mu = points.shape[0]
    if mu == 0:
        raise ValueError("hull_vertices needs at least one point; the distinct range is empty")
    tie_tol = tol_feas * (1.0 + float(np.abs(points).max()))
    confirmed = np.zeros(mu, dtype=bool)

    def extreme_along(w) -> int:
        scores = points @ w
        scores[confirmed] = -np.inf
        # Score gaps grow with w, so the tie band does too.
        tied = np.flatnonzero(scores >= scores.max() - tie_tol * float(np.abs(w).max()))
        # The lexicographic maximum of exact maximizers is a vertex of the
        # face they span; within the band it nearly always is.
        return int(tied[np.lexsort(points[tied].T[::-1])[-1]])

    interior = []  # (unique index, points confirmed at its test, its weights on them)
    confirmed[extreme_along(points[0] - points.mean(axis=0))] = True
    for i in range(mu):
        while not confirmed[i]:
            over = np.flatnonzero(confirmed)
            test = convex_combination(points[i], points[over], tol_feas)
            if test.feasible:
                interior.append((i, over, test.x))
                break
            confirmed[extreme_along(test.dual[:-1])] = True
    found = np.flatnonzero(confirmed)
    keep = [j for j in found if is_extreme_point(points[j], points[found[found != j]], tol_feas)]
    kept = np.isin(found, keep)
    weights = np.zeros((mu, found.size))
    weights[found, np.arange(found.size)] = 1.0
    for i, over, x in interior:
        weights[i, np.searchsorted(found, over)] = x
    coefficients = weights[:, kept]
    coefficients[weights[:, ~kept].any(axis=1)] = np.nan
    return VertexSet(
        vertices=points[keep],
        source_columns=tuple(rng.representative_column[i] for i in keep),
        r=points.shape[1],
        unique_coefficients=coefficients,
    )


def segment_vertices(table: BasicFunctionTable, tol_dedup: float = 1e-9) -> VertexSet:
    """Two-row fast path: the hull is the segment between the values with
    minimum and maximum first coordinate (minimum first)."""
    if table.r != 2:
        raise ValueError(f"segment fast path needs exactly 2 basic rows, got {table.r}")
    first = table.points[:, 0]
    i_min = int(np.argmin(first))
    i_max = int(np.argmax(first))
    if first[i_max] - first[i_min] <= tol_dedup:
        raise SpanDeficiencyError(
            "all basic-function values coincide; inconsistent with two independent rows"
        )
    return VertexSet(
        vertices=np.vstack([table.points[i_min], table.points[i_max]]),
        source_columns=(i_min, i_max),
        r=2,
    )


def reorder_vertices(vs: VertexSet, tol_rank: float = 1e-9) -> VertexSet:
    """Move span-growing vertices to the front, first wins; the rest keep
    their relative order. Afterwards the first ``r`` vertices are linearly
    independent."""
    prefix = greedy_independent_rows(vs.vertices, tol_rank)
    if len(prefix) != vs.r:
        raise SpanDeficiencyError(
            f"found {len(prefix)} independent vertices, need {vs.r}; check the rank tolerance"
        )
    chosen = set(prefix)
    order = prefix + [i for i in range(vs.d) if i not in chosen]
    coefficients = vs.unique_coefficients
    return VertexSet(
        vertices=vs.vertices[order],
        source_columns=tuple(vs.source_columns[i] for i in order),
        r=vs.r,
        unique_coefficients=None if coefficients is None else coefficients[:, order],
    )
