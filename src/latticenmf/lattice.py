"""Convex expansions over the vertices and the positive basis with nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import BasicFunctionTable, DistinctRange
from .errors import ExpansionInfeasibleError, NodeNotFoundError
from .linalg import solve
from .polytope import VertexSet
from .simplex import FeasibilityProblem, phase_one_feasible


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

    Columns whose value is itself a vertex get the exact indicator row (no
    solver involved). Every other distinct value goes through the
    feasibility solver once, at its representative column, so the returned
    combination is one valid choice among possibly many. A column merged
    into that value reuses the row when it reproduces the column's own
    point within ``tol_feas``, and gets its own solve otherwise.
    """
    d = vs.d
    vertex_of_unique = {rng.membership[src]: k for k, src in enumerate(vs.source_columns)}
    a_eq = np.vstack([vs.vertices.T, np.ones((1, d))])

    def expand(i: int) -> np.ndarray:
        b_eq = np.concatenate([table.points[i], [1.0]])
        result = phase_one_feasible(FeasibilityProblem(a_eq, b_eq), tol_feas)
        if not result.feasible:
            raise ExpansionInfeasibleError(
                f"column {i}: not a convex combination of the vertices "
                f"(infeasibility {result.infeasibility:.3e})"
            )
        return result.x

    unique_rows = np.zeros((rng.mu, d))
    for u, src in enumerate(rng.representative_column):
        k = vertex_of_unique.get(u)
        if k is None:
            unique_rows[u] = expand(src)
        else:
            unique_rows[u, k] = 1.0
    coefficients = unique_rows[list(rng.membership)]
    resolve = np.abs(coefficients @ vs.vertices - table.points).max(axis=1) > tol_feas
    resolve[list(rng.representative_column)] = False
    resolve[np.isin(rng.membership, list(vertex_of_unique))] = False
    for i in np.flatnonzero(resolve):
        coefficients[i] = expand(int(i))
    return ConvexExpansion(coefficients)


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

    For d == r the columns are the vertices themselves. For d > r every
    vertex gains d - r trailing coordinates: zeros for the first r columns
    and the matching unit vector for the appended ones, with each appended
    column halved as a whole.
    """
    r, d = vs.r, vs.d
    columns = vs.vertices.T
    if d == r:
        return columns.copy()
    lifted = np.zeros((d, d))
    lifted[:r, :] = columns
    lifted[r:, r:] = np.eye(d - r)
    lifted[:, r:] *= 0.5
    return lifted


def positive_basis(l, y, tol_rank: float = 1e-9, tol_node: float = 1e-6) -> np.ndarray:
    """Solve ``l @ basis = y`` and zero entries below the node threshold."""
    basis = solve(l, y, tol_rank)
    basis[np.abs(basis) <= tol_node] = 0.0
    return basis


@dataclass(frozen=True, eq=False)
class PositiveBasis:
    """Rows are the positive-basis vectors; ``nodes[k]`` is the column
    where vector k is positive and all other vectors vanish."""

    vectors: np.ndarray  # d x m
    nodes: tuple[int, ...]


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
    nodes = []
    for k in range(d):
        candidate = positive[k].copy()
        for j in range(d):
            if j != k:
                candidate &= small[j]
        found = np.flatnonzero(candidate)
        if found.size == 0:
            raise NodeNotFoundError(f"no node column for basis vector {k}")
        nodes.append(int(found[0]))
    return tuple(nodes)
