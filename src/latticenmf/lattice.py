"""Convex expansions over the vertices and the positive basis with nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import ExpansionInfeasibleError, NodeNotFoundError
from .linalg import solve
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

    Columns whose value is itself a vertex get the exact indicator row.
    Every other column takes its value's row of ``vs.unique_coefficients``
    (the hull pass's weights). The columns whose row is missing or misses
    their own point by more than ``tol_feas`` are solved again, together in
    one stacked solve over the vertices: one valid combination among many.
    """
    d = vs.d
    membership = np.asarray(rng.membership)
    vertex_values = membership[list(vs.source_columns)]
    unique_rows = np.full((rng.mu, d), np.nan)
    if vs.unique_coefficients is not None:
        unique_rows[:] = vs.unique_coefficients
    unique_rows[vertex_values] = np.eye(d)
    coefficients = unique_rows[membership]
    # NaN rows (missing) fail the comparison too.
    reproduced = np.abs(coefficients @ vs.vertices - table.points).max(axis=1) <= tol_feas
    missing = np.flatnonzero(~reproduced & ~np.isin(membership, vertex_values))
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
