"""Vertices of the polytope spanned by the distinct basic-function values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import SpanDeficiencyError
from .linalg import greedy_independent_rows
from .simplex import FEASIBLE, INFEASIBLE, convex_combinations

# Score entries computed at once when picking points along many directions.
_SCORE_ENTRIES = 1 << 18


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

    Output-sensitive frame search (Clarkson 1994; Dula & Helgason 1996) in
    rounds. The confirmed set starts with the points of largest and of
    smallest value in each coordinate, exact ties broken to the
    lexicographic maximum (a vertex of the face they span), and with the
    points certified (below) along the direction from the centroid to each
    point. Each round tests every unique point not yet resolved against the
    hull of the confirmed points, in one stacked phase-one solve. A
    feasible test makes the point interior. An infeasible one yields a
    separating direction ``w`` (the phase-one dual); the pending point
    maximizing ``w``, near-ties broken to the lexicographic maximum, lies
    outside that hull and maximizes ``w`` over all points, so it is
    extreme. Picks come only from pending points: one found interior is
    never confirmed later. All picks of a round are confirmed together, and
    the points not yet resolved are tested again. A test that fails is
    retried in the next round; a round whose tests give no pick raises the
    first failed test's fault.

    Certificates. Let ``p`` beat every other point on ``points @ w`` by
    ``g > 0`` and let ``c = -max_{q != p} w.q``. Then ``y = (w, c) /
    |(w, c)|_inf`` is a dual of the system writing ``p`` over any subset of
    the other points: ``|y| <= 1``, ``y`` on each column ``(q, 1)`` is
    ``w.q + c <= 0``, and ``y`` on the right-hand side ``(p, 1)`` is ``g /
    |(w, c)|_inf``, a lower bound on the phase-one objective. The solve
    declares a point feasible only at an objective of at most ``tol_feas *
    (1 + max(1, max|p|))``, which is at most ``2 * tie_tol``; so ``g > 2 *
    tie_tol * |(w, c)|_inf`` certifies that every such solve finds ``p``
    extreme. On the simplex ``|c| <= max|w|``, and the test is ``g > 2 *
    tie_tol * max|w|`` against the threshold ``2 * tol_feas``. Every
    direction scored is checked (``+-e_j``, those from the centroid and the
    rounds' duals), the gap taken over all points.

    A near-tie can confirm a point that is not extreme (one just inside a
    vertex on an edge leaving the maximal face). By the end every point lies
    in the hull of the confirmed ones, so a last pass tests each uncertified
    confirmed point alone, in index order, against the confirmed points
    still kept, and drops it when that test is feasible; a test that faults
    raises its fault. Of a vertex and its near copy, each within tolerance
    of the other's hull, only the one tested first is dropped. With none
    uncertified, nothing is solved.

    An interior point's feasible test gives its convex weights over the
    points confirmed by then: ``unique_coefficients``, with NaN rows where
    they lean on a point the last pass drops (its own row included).
    """
    points = rng.unique_points
    mu, r = points.shape
    if mu == 0:
        raise ValueError("hull_vertices needs at least one point; the distinct range is empty")
    tie_tol = tol_feas * (1.0 + float(np.abs(points).max()))
    lex_rank = np.empty(mu, dtype=int)
    lex_rank[np.lexsort(points.T[::-1])] = np.arange(mu)
    confirmed, interior, certified = np.zeros((3, mu), dtype=bool)

    def extreme_along(directions, pick: bool = True) -> np.ndarray | None:
        """Certify the winners along each row ``w`` that beat the others by
        the gap; with ``pick``, return the pending point maximizing
        ``points @ w`` for each row."""
        picks = []
        step = max(1, _SCORE_ENTRIES // mu)
        for start in range(0, len(directions), step):
            w = directions[start : start + step]
            scores = points @ w.T
            winners, proven = _certify(scores, w, tie_tol)
            certified[winners[proven]] = True
            if not pick:
                continue
            scores[confirmed | interior] = -np.inf
            # Score gaps grow with w, so the tie band does too.
            band = scores.max(axis=0) - tie_tol * np.abs(w).max(axis=1)
            # The lexicographic maximum of exact maximizers is a vertex of the
            # face they span; within the band it nearly always is.
            picks.append(np.where(scores >= band, lex_rank[:, None], -1).argmax(axis=0))
        return np.concatenate(picks) if pick else None

    # The extremes of a coordinate are found exactly, so the seeds need no tie
    # band; a band would admit near copies of a corner, against which later
    # tests are ill-conditioned.
    ends = np.hstack([points == points.max(axis=0), points == points.min(axis=0)])
    confirmed[np.where(ends, lex_rank[:, None], -1).argmax(axis=0)] = True
    extreme_along(np.vstack([np.eye(r), -np.eye(r), points - points.mean(axis=0)]), pick=False)
    confirmed |= certified
    tested = []  # (interior points, points confirmed at their test, their weights on them)
    pending = np.flatnonzero(~confirmed)
    while pending.size:
        over = np.flatnonzero(confirmed)
        test = convex_combinations(points[pending], points[over], tol_feas)
        resolved = test.status == FEASIBLE
        directions = test.dual[test.status == INFEASIBLE, :-1]
        if not directions.size and not resolved.all():
            # No test gave a pick: raise the first failed one's fault.
            test.raise_fault(np.argmin(resolved))
        interior[pending[resolved]] = True
        tested.append((pending[resolved], over, test.x[resolved]))
        if directions.size:
            confirmed[extreme_along(directions)] = True
        pending = np.flatnonzero(~confirmed & ~interior)

    found = np.flatnonzero(confirmed)
    kept = np.ones(found.size, dtype=bool)
    for j in np.flatnonzero(~certified[found]):
        kept[j] = False
        last = convex_combinations(points[found[[j]]], points[found[kept]], tol_feas)
        last.raise_fault(0)
        kept[j] = last.status[0] == INFEASIBLE
    keep = found[kept]
    weights = np.zeros((mu, found.size))
    weights[found, np.arange(found.size)] = 1.0
    for shares, over, x in tested:
        weights[np.ix_(shares, np.searchsorted(found, over))] = x
    coefficients = weights[:, kept]
    coefficients[weights[:, ~kept].any(axis=1)] = np.nan
    return VertexSet(
        vertices=points[keep],
        source_columns=tuple(rng.representative_column[i] for i in keep),
        r=r,
        unique_coefficients=coefficients,
    )


def _certify(scores, w, tie_tol: float):
    """The point of largest score in each column of ``scores`` (``points @
    w.T``), and whether it beats every other point by more than ``2 *
    tie_tol * |(w, c)|_inf``, ``c`` minus the runner-up's score: the gap
    that proves it extreme (see ``hull_vertices``). A lone point has no
    other point to beat and is proven too. ``scores`` is restored."""
    columns = np.arange(scores.shape[1])
    winners = scores.argmax(axis=0)
    top = scores[winners, columns]
    scores[winners, columns] = -np.inf
    runner_up = scores.max(axis=0)
    scores[winners, columns] = top
    norm = np.maximum(np.abs(w).max(axis=1), np.abs(runner_up))
    return winners, (runner_up == -np.inf) | (top - runner_up > 2.0 * tie_tol * norm)


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
