"""Convex expansions over the vertices and the positive basis with nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import ExpansionInfeasibleError, NodeNotFoundError, SingularMatrixError
from .linalg import rank_of, solve
from .polytope import VertexSet
from .simplex import FEASIBLE, convex_combinations


@dataclass(frozen=True, eq=False)
class ConvexExpansion:
    """Row i holds the coefficients expressing column i's simplex point as
    a convex combination of the vertices."""

    coefficients: np.ndarray  # m x d


def expand_in_vertices(
    table: BasicFunctionTable,
    vs: VertexSet,
    rng: DistinctRange,
    tol_feas: float = 1e-9,
) -> ConvexExpansion:
    """Expand every column's point over the vertex set.

    ``factorize`` runs this for every vertex set, ``d == r`` included: the
    rows, scaled by the column sums, are its positive basis. On a segment
    (two vertices in two coordinates, without weights, as from
    ``segment_vertices``) each column takes the closed-form weight ``lambda
    = (p_0 - v_00) / (v_10 - v_00)`` on the second vertex, clipped to [0,
    1], which is exactly 0 or 1 at a vertex's own column. Otherwise columns
    whose value is itself a vertex get the exact indicator row, and every
    other column takes its value's row of ``vs.unique_coefficients`` (the
    hull pass's weights). The hull pass writes a row for every value, but
    the last pass's substitutions add up their error over the drops, with
    no bound proven. So the columns whose row misses their own point by
    more than ``tol_feas``, and every column of any other vertex set built
    without weights, are solved again, together in one stacked solve over
    the vertices: one valid combination among many. With none of them,
    nothing is solved.
    """
    d = vs.d
    membership = np.asarray(rng.membership)
    vertex_values = membership[list(vs.source_columns)]
    if vs.unique_coefficients is None and vs.r == d == 2:
        v = vs.vertices[:, 0]
        weight = np.clip((table.points[:, 0] - v[0]) / (v[1] - v[0]), 0.0, 1.0)
        coefficients = np.column_stack([1.0 - weight, weight])
    else:
        unique_rows = np.full((rng.mu, d), np.nan)
        if vs.unique_coefficients is not None:
            unique_rows[:] = vs.unique_coefficients
        unique_rows[vertex_values] = np.eye(d)
        coefficients = unique_rows[membership]
    # The NaN rows of a set without weights fail the comparison too.
    reproduced = np.abs(coefficients @ vs.vertices - table.points).max(axis=1) <= tol_feas
    is_vertex = np.zeros(rng.mu, dtype=bool)
    is_vertex[vertex_values] = True
    missing = np.flatnonzero(~reproduced & ~is_vertex[membership])
    if missing.size:
        solved = convex_combinations(table.points[missing], vs.vertices, tol_feas)
        failed = np.flatnonzero(solved.status != FEASIBLE)
        if failed.size:
            solved.raise_fault(failed[0])
            raise ExpansionInfeasibleError(
                f"column {missing[failed[0]]}: not a convex combination of the vertices "
                f"(infeasibility {solved.infeasibility[failed[0]]:.3e})"
            )
        coefficients[missing] = solved.x
    # Solver entries a rounding error below zero pass its checks; convex
    # weights have none.
    return ConvexExpansion(np.maximum(coefficients, 0.0))


def synthesize_vectors(expansion: ConvexExpansion, sums, r: int) -> np.ndarray:
    """Rows r..d of the expansion rescaled by the column sums.

    These complete the basic rows to a spanning set of the enlarged
    subspace; entry (k, i) of the result is coefficient r+k of column i
    times ``sums[i]``. Empty when the expansion has exactly r columns.
    """
    coefficients = expansion.coefficients
    sums = np.asarray(sums, dtype=float)
    return np.ascontiguousarray((coefficients[:, r:] * sums[:, None]).T)


def basis_matrix(vs: VertexSet) -> np.ndarray:
    """Square matrix whose columns are the vertices, lifted when d > r.

    Every vertex gains d - r trailing coordinates: zeros for the first r
    columns and the matching unit vector for the appended ones, with each
    appended column halved as a whole. For d == r the columns are the
    vertices themselves.
    """
    r, d = vs.r, vs.d
    lifted = np.zeros((d, d))
    lifted[:r, :] = vs.vertices.T
    lifted[r:, r:] = np.eye(d - r)
    lifted[:, r:] *= 0.5
    return lifted


def positive_basis(l, y, tol_rank: float = 1e-9, tol_node: float = 1e-6) -> np.ndarray:
    """Solve ``l @ basis = y`` and zero entries below the node threshold."""
    basis = solve(l, y, tol_rank)
    basis[np.abs(basis) <= tol_node] = 0.0
    return basis


def positive_basis_by_blocks(
    vs: VertexSet, x, e, tol_rank: float = 1e-9, tol_node: float = 1e-6
) -> np.ndarray:
    """``positive_basis(basis_matrix(vs), vstack([x, e]))`` by blocks.

    ``x`` holds the r basic rows and ``e`` the d - r extension rows (no rows
    when d == r). With ``V_r`` and ``V_x`` the first r and the other vertices
    as columns, the lifted matrix is ``[[V_r, V_x / 2], [0, I / 2]]``, so the
    basis is ``[V_r^-1 @ (x - V_x @ e); 2 * e]``: one inverse of ``V_r`` for
    all columns, zeroed at or below ``tol_node`` as in ``positive_basis``.

    Raises SingularMatrixError when ``rank_of(V_r, tol_rank) < r``. The lifted
    matrix is zero below ``V_r``, so its elimination takes the pivots of
    ``V_r`` first, then the halves; only the threshold differs. Here it is
    ``tol_rank * max|V_r|``, there ``tol_rank * max|l|`` with ``max|l| =
    max(max|V_r|, max|V_x| / 2, 1 / 2)`` (``max|V_r|`` when d == r). The
    vertices are simplex points, so ``max|V_r| >= 1 / r`` and ``max|V_x| <=
    1``: the lifted threshold is 1 to ``max(1, r / 2)`` times this one. For
    ``tol_rank < 1 / 2`` this verdict therefore accepts every ``V_r`` the
    lifted one accepts, and unlike it does not change when ``V_r`` is scaled.
    """
    r = vs.r
    v_r = vs.vertices[:r].T
    if rank_of(v_r, tol_rank) < r:
        raise SingularMatrixError("singular basis matrix")
    try:
        # With many columns, one r x r inverse and a product is several times
        # faster than np.linalg.solve; factorize still checks the residual.
        inverse = np.linalg.inv(v_r)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular basis matrix") from None
    e = np.asarray(e, dtype=float)
    basis = np.vstack([inverse @ (x - vs.vertices[r:].T @ e), 2.0 * e])
    basis[np.abs(basis) <= tol_node] = 0.0
    return basis


def find_nodes(basis, tol_node: float = 1e-6) -> tuple[int, ...]:
    """Smallest node column for each basis vector.

    Column i is a node of vector k when vector k exceeds the threshold
    there and every other vector is absolutely below it. Raises
    NodeNotFoundError when some vector has no node column.
    """
    b = np.asarray(basis, dtype=float)
    d = b.shape[0]
    positive = b > tol_node
    small = np.abs(b) <= tol_node
    # Vector k is positive at column i and the other d - 1 vectors are small there.
    candidate = positive & (small.sum(axis=0) - small == d - 1)
    found = candidate.any(axis=1)
    if not found.all():
        raise NodeNotFoundError(f"no node column for basis vector {int(np.argmin(found))}")
    return tuple(int(i) for i in candidate.argmax(axis=1))
