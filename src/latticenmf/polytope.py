"""Vertices of the polytope spanned by the distinct basic-function values."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import SpanDeficiencyError
from .linalg import greedy_independent_rows
from .simplex import FEASIBLE, INFEASIBLE, convex_combinations

# Score entries computed at once when picking points along many directions.
_SCORE_ENTRIES = 1 << 18

# Directions from the centroid the seed pass scores: those of the points of
# largest whitened norm when there are more points.
_SEED_POINTS = 256

# Simplices of confirmed points a round tries on the pending points before
# its stacked solve; fewer when there are fewer subsets.
_COVER_SUBSETS = 40


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Ordered polytope vertices with the columns they came from."""

    vertices: np.ndarray  # d x r, one vertex per row
    source_columns: tuple[int, ...]
    r: int
    # mu x d convex weights of the unique points over the vertices
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
    points certified (below) along the seed directions (below). Each round
    first tries the simplex cover (below) on every unique point not yet
    resolved, and picks along the cover's facet directions when it has any.
    Only a round without one tests the points left against
    the hull of the confirmed points, in one stacked phase-one solve. A
    feasible test makes the point interior. An infeasible one yields a
    separating direction ``w`` (the phase-one dual); the pending point
    maximizing ``w``, near-ties broken to the lexicographic maximum, lies
    outside that hull and maximizes ``w`` over all points, so it is
    extreme. Picks come only from pending points: one found interior is
    never confirmed later. All picks of a round are confirmed together, and
    the points not yet resolved are tested again. A test that fails is
    retried in the next round; a round whose tests give no pick raises the
    first failed test's fault.

    Seed directions. Each point ``p`` gives the direction ``p - mean`` from
    the centroid and its whitened form ``S^-1 (p - mean)``, with ``S`` the
    scatter matrix of the centered points over their first ``r - 1``
    coordinates (the shares sum to 1, so the last is implied) and 0 on the
    last coordinate. Along the whitened direction a point scores its
    Mahalanobis product with ``p``, which no invertible affine map of the
    shares changes, so skewed shares keep their vertices certified. A vertex
    near the centroid in that metric can lose to a neighbour along its own
    whitened direction; the plain directions certify most of those.
    When ``S`` is singular (fewer than ``r`` points, or all on a lower flat)
    only the plain directions are scored. With more than ``_SEED_POINTS``
    points only those of largest norm ``(p - mean) . S^-1 (p - mean)`` give
    directions, so the pass scores O(mu r) entries per direction over at
    most ``2 * _SEED_POINTS`` directions; any vertex it misses is found by
    the rounds.

    Simplex cover. A round tries simplices of ``r`` confirmed points on the
    pending points (Akl & Toussaint 1978): every ``r``-subset in
    lexicographic order when there are at most ``_COVER_SUBSETS``, which by
    Caratheodory covers every point strictly inside the confirmed hull,
    otherwise that many drawn by a generator seeded afresh for each call.
    When a drawn cover covers more than half its points and gives no facet
    direction, it draws as many subsets again for the points it left, in the
    same call: the last few interior points then need no solve. A
    point whose weights on some subset are nonnegative and miss the ``r``
    coordinate equations and the unit sum by at most ``tol_feas * (1 +
    max(1, max|p|))`` in total, the objective at which the solve declares
    it feasible, is interior and keeps those weights.

    Facet separation (Dula & Lopez 2012). Row ``i`` of a subset's inverse is
    its barycentric functional ``lambda_i``, and with ``eps_i = tie_tol *
    |lambda_i|_inf`` it is a facet row when ``lambda_i(q) >= -eps_i`` on
    every confirmed ``q``. A facet row with ``lambda_i(p) < -4 * eps_i`` at
    some uncovered pending ``p`` gives the direction ``w = -lambda_i``, and
    a round with such directions confirms the pending point maximizing each
    one, as above, with no solve. The picks are extreme: confirmed points
    score at most ``eps_i`` along ``w``, interior points are convex
    combinations of them and score no higher, and ``p`` scores above ``4 *
    eps_i``, so ``w`` is maximized over all points at a pending point. The
    rounds end: each facet round confirms at least one pending point. And
    with every ``r``-subset tried none is solved in exact arithmetic: each
    facet of the confirmed hull has ``r - 1`` independent confirmed points
    on it, which with one confirmed point off it form a subset whose
    opposite row is that facet, so every uncovered point is separated.
    ``eps_i`` grows with the row because a corner and its near copy make
    subsets with huge rows, on which an absolute margin confirms points that
    are not extreme. The last pass (below) still catches a pick that a
    near-tie made wrongly.

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
    direction scored is checked (``+-e_j``, the seed directions, the facet
    directions and the rounds' duals), the gap taken over all points: the
    proof holds whatever the direction, so whitening or capping the seed
    directions changes which points are certified, never whether a
    certificate is sound.

    A near-tie can confirm a point that is not extreme (one just inside a
    vertex on an edge leaving the maximal face). By the end every point lies
    in the hull of the confirmed ones, so a last pass tests each uncertified
    confirmed point alone, in index order, against the confirmed points
    still kept, and drops it when that test is feasible; a test that faults
    raises its fault. Of a vertex and its near copy, each within tolerance
    of the other's hull, only the one tested first is dropped. With none
    uncertified, nothing is solved.

    An interior point's feasible test gives its convex weights over the
    points confirmed by then. When the last pass drops a point, its feasible
    test writes that point over the points kept at the test, and each row's
    weight on it is moved onto them in that proportion. Later tests lean
    only on points kept, so one sweep in drop order leaves every row,
    the dropped point's own included, as weights over the vertices
    returned: ``unique_coefficients``. Each substitution adds its test's
    error to the rows it moves; that error sums over the drops, with no
    bound proven.
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
    extreme_along(np.vstack([np.eye(r), -np.eye(r), _seed_directions(points)]), pick=False)
    confirmed |= certified
    tested = []  # (interior points, points confirmed at their test, their weights on them)
    generator = None

    def draws() -> np.random.Generator:
        """The call's generator, made at the first draw: a cover with few
        subsets tries them all and draws nothing."""
        nonlocal generator
        if generator is None:
            generator = np.random.default_rng(0)
        return generator

    pending = np.flatnonzero(~confirmed)
    while pending.size:
        over = np.flatnonzero(confirmed)
        covered, x, directions = _simplex_cover(
            points[pending], points[over], tol_feas, tie_tol, draws
        )
        interior[pending[covered]] = True
        tested.append((pending[covered], over, x))
        pending = pending[~covered]
        if pending.size and not directions.size:
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
    weights = np.zeros((mu, found.size))
    weights[found, np.arange(found.size)] = 1.0
    for shares, over, x in tested:
        weights[np.ix_(shares, np.searchsorted(found, over))] = x
    kept = np.ones(found.size, dtype=bool)
    for j in np.flatnonzero(~certified[found]):
        kept[j] = False
        last = convex_combinations(points[found[[j]]], points[found[kept]], tol_feas)
        last.raise_fault(0)
        kept[j] = last.status[0] == INFEASIBLE
        if not kept[j]:  # write point j's share of every row over the points kept
            weights[:, kept] += weights[:, [j]] * last.x
    keep = found[kept]
    return VertexSet(
        vertices=points[keep],
        source_columns=tuple(rng.representative_column[i] for i in keep),
        r=r,
        unique_coefficients=weights[:, kept],
    )


def _simplex_cover(
    points, pts, tol_feas: float, tie_tol: float, draws: Callable[[], np.random.Generator]
):
    """Which rows of ``points`` lie in the simplex of some ``r`` rows of
    ``pts``, the weights of those covered on the rows of ``pts``, and
    directions that separate some of the others from the hull of ``pts``.

    Every ``r``-subset of ``pts`` is tried in lexicographic order when there
    are at most ``_COVER_SUBSETS`` of them, otherwise ``_COVER_SUBSETS``
    drawn from the generator ``draws()``; singular ones are skipped. When
    drawn subsets cover more than half the rows and give no direction, as
    many more are drawn for the rows left (see ``hull_vertices``). A row is
    covered by the first subset whose weights are nonnegative and miss the
    ``r`` coordinate equations and the unit sum by at most ``tol_feas * (1 +
    max(1, max|p|))`` in total (see ``hull_vertices``).

    Row ``i`` of a subset's inverse is its barycentric functional
    ``lambda_i``: 1 at the subset's point ``i`` and 0 at its other points.
    With ``eps_i = tie_tol * |lambda_i|_inf``, the row is a facet row when
    ``lambda_i(q) >= -eps_i`` at every row ``q`` of ``pts``, so that
    ``lambda_i = 0`` supports their hull, and it separates an uncovered row
    ``p`` when ``lambda_i(p) < -4 * eps_i``. The directions returned are
    ``-lambda_i`` for each facet row that separates some uncovered row, in
    subset order."""
    (count, r), q = points.shape, len(pts)

    def drawn() -> np.ndarray:
        return np.argsort(draws().random((_COVER_SUBSETS, q)), axis=1)[:, :r]

    if comb(q, r) <= _COVER_SUBSETS:
        subsets = np.array(list(combinations(range(q), r)), dtype=int).reshape(-1, r)
        covered, x, directions = _cover_by(subsets, points, pts, tol_feas, tie_tol)
    else:
        covered, x, directions = _cover_by(drawn(), points, pts, tol_feas, tie_tol)
        left = np.flatnonzero(~covered)
        if not directions.size and 0 < 2 * left.size < count:
            again, y, directions = _cover_by(drawn(), points[left], pts, tol_feas, tie_tol)
            covered[left[again]] = True
            x[left[again]] = y[again]
    return covered, x[covered], directions


def _cover_by(subsets, points, pts, tol_feas: float, tie_tol: float):
    """``_simplex_cover`` on the given ``r``-subsets of ``pts``, with a row
    of weights for every row of ``points`` (zero where uncovered)."""
    (count, r), q = points.shape, len(pts)
    simplices = pts[subsets].transpose(0, 2, 1)  # K x r x r, one point per column
    try:
        inverses = np.linalg.inv(simplices)
    except np.linalg.LinAlgError:  # some det == 0: skip those subsets
        regular = np.linalg.det(simplices) != 0.0
        subsets, simplices = subsets[regular], simplices[regular]
        inverses = np.linalg.inv(simplices)
    covered, x = np.zeros(count, dtype=bool), np.zeros((count, q))
    if not len(subsets):
        return covered, x, np.empty((0, r))
    eps = tie_tol * np.abs(inverses).max(axis=2)  # K x r, one per row lambda_i
    facet = (inverses @ pts.T).min(axis=2) >= -eps
    separating = np.zeros_like(facet)
    rows = inverses.reshape(-1, r)
    step = max(1, _SCORE_ENTRIES // (len(subsets) * r * r))
    for start in range(0, count, step):
        p = points[start : start + step]
        bound = tol_feas * (1.0 + np.maximum(1.0, np.abs(p).max(axis=1)))
        # The subset's points on the middle axis, where reducing is fast.
        lam = (rows @ p.T).reshape(len(subsets), r, -1)  # K x r x P
        inside = lam.min(axis=1) >= 0.0
        # The residual of each point's first nonnegative subset; only where
        # it misses the bound is the point's next one tried.
        first = inside.argmax(axis=0)
        hits = np.zeros(len(p), dtype=bool)
        j = np.flatnonzero(inside.any(axis=0))
        while j.size:
            k = first[j]
            w = lam[k, :, j]
            residual = np.abs((simplices[k] @ w[:, :, None])[:, :, 0] - p[j]).sum(axis=1)
            residual += np.abs(w.sum(axis=1) - 1.0)
            met = residual <= bound[j]
            hits[j[met]] = True
            j = j[~met]
            inside[first[j], j] = False
            first[j] = inside[:, j].argmax(axis=0)
            j = j[inside[first[j], j]]
        hit = np.flatnonzero(hits)
        covered[start + hit] = True
        x[start + hit[:, None], subsets[first[hit]]] = lam[first[hit], :, hit]
        separating |= (lam[:, :, ~hits] < -4.0 * eps[:, :, None]).any(axis=2)
    return covered, x, -inverses[facet & separating]


def _seed_directions(points) -> np.ndarray:
    """The directions from the centroid to the points, ``p - mean``, and
    their whitened forms, ``S^-1 (p - mean)`` on the first ``r - 1``
    coordinates and 0 on the last, with ``S`` the scatter matrix of the
    centered points there. Without the whitened ones when ``S`` is singular.
    Only the ``_SEED_POINTS`` points of largest norm ``(p - mean) . S^-1 (p
    - mean)``, or ``|p - mean|^2`` without ``S``, give directions."""
    mu, r = points.shape
    centered = points - points.mean(axis=0)
    whitened = None
    if mu >= r > 1:  # with fewer points the centered ones span fewer than r - 1
        head = centered[:, :-1]
        scatter = head.T @ head
        try:
            inverse = np.linalg.inv(scatter)
        except np.linalg.LinAlgError:
            inverse = None
        # max|S| * max|S^-1| is the condition number of S within a factor
        # (r - 1)^2; S counts as singular where it reaches 1 / (r * eps).
        condition = np.inf if inverse is None else np.abs(scatter).max() * np.abs(inverse).max()
        if condition * r * np.finfo(float).eps < 1.0:
            whitened = np.zeros_like(centered)
            whitened[:, :-1] = head @ inverse
    if mu > _SEED_POINTS:
        norm = (centered * (centered if whitened is None else whitened)).sum(axis=1)
        kept = np.sort(np.argpartition(-norm, _SEED_POINTS)[:_SEED_POINTS])
        centered = centered[kept]
        whitened = None if whitened is None else whitened[kept]
    return centered if whitened is None else np.vstack([whitened, centered])


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
