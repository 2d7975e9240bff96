"""End-to-end exact nonnegative factorization pipeline."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .basic import basic_function, basic_set_of, distinct_values
from .errors import FactorizationError, IntermediateDimensionError, InvalidEntryError
from .errors import ZeroMatrixError
from .lattice import ConvexExpansion, expand_in_vertices, positive_basis_by_blocks
from .linalg import Tolerances, as_matrix
from .polytope import hull_vertices, reorder_vertices, segment_vertices


class Classification(enum.Enum):
    """What kind of factorization came out, decided by (r, d, mu, m)."""

    RANK_TWO = "rank-2"
    SUBLATTICE_RANK = "sublattice-rank"
    LATTICE_RANK = "lattice-rank"
    MINIMAL_LATTICE = "minimal-lattice"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class ZeroColumnMask:
    """Which columns of the original matrix survived zero-column stripping.

    ``factorize`` keeps the columns that are nonzero in the basic rows; every
    entry of a column it drops is at most ``tol.rank * max A``."""

    original_width: int
    kept_columns: tuple[int, ...]

    @property
    def dropped_columns(self) -> tuple[int, ...]:
        kept = set(self.kept_columns)
        return tuple(j for j in range(self.original_width) if j not in kept)


def _zero_column_mask(a1: np.ndarray) -> tuple[np.ndarray, ZeroColumnMask]:
    """The columns of nonzero sum, as an array and as a mask."""
    kept = np.flatnonzero(a1.sum(axis=0) > 0.0)
    if not kept.size:
        raise ZeroMatrixError("zero matrix")
    return kept, ZeroColumnMask(a1.shape[1], tuple(kept.tolist()))


def strip_zero_columns(a1) -> tuple[np.ndarray, ZeroColumnMask]:
    """Drop columns whose sum is zero; the mask records the positions."""
    a1 = as_matrix(a1)
    kept, mask = _zero_column_mask(a1)
    return np.ascontiguousarray(a1[:, kept]), mask


def reinsert_zero_columns(v, mask: ZeroColumnMask) -> np.ndarray:
    """Widen ``v`` back to the original width with zero columns at the
    dropped positions."""
    v = as_matrix(v, "V")
    if v.shape[1] != len(mask.kept_columns):
        raise ValueError(
            f"V has {v.shape[1]} columns but the mask kept {len(mask.kept_columns)}"
        )
    out = np.zeros((v.shape[0], mask.original_width))
    out[:, list(mask.kept_columns)] = v
    return out


def build_f(a, vectors, nodes) -> np.ndarray:
    """Columns of ``a`` at the node columns, each divided by its node value.

    Row k of ``vectors`` is a positive-basis vector and ``nodes[k]`` its node
    column: where vector k is positive and every other vector vanishes.
    """
    return _f_at_nodes(as_matrix(a), vectors, nodes)


def _f_at_nodes(a: np.ndarray, vectors: np.ndarray, nodes) -> np.ndarray:
    """``build_f`` of a matrix ``as_matrix`` has checked."""
    nodes = list(nodes)
    return a[:, nodes] / vectors[np.arange(len(nodes)), nodes]


def classify(r: int, d: int, mu: int, m: int) -> Classification:
    if not 1 <= r <= d <= mu <= m:
        raise ValueError(f"need 1 <= r <= d <= mu <= m, got r={r} d={d} mu={mu} m={m}")
    if d == m:
        return Classification.TRIVIAL
    if r == 2:
        return Classification.RANK_TWO
    if mu == r:
        return Classification.SUBLATTICE_RANK
    if d == r:
        return Classification.LATTICE_RANK
    return Classification.MINIMAL_LATTICE


def residual_inf(a1, f, v) -> float:
    """Max-abs entry of ``a1 - f @ v``."""
    a1 = as_matrix(a1, "A")
    f = as_matrix(f, "F")
    v = as_matrix(v, "V")
    if f.shape[1] != v.shape[0] or a1.shape != (f.shape[0], v.shape[1]):
        raise ValueError(f"shape mismatch: A {a1.shape}, F {f.shape}, V {v.shape}")
    return float(_column_residuals(a1, f, v).max())


def _vectors_from_weights(
    expansion: ConvexExpansion, sums: np.ndarray, r: int, kept: np.ndarray, width: int
) -> np.ndarray:
    """The positive basis read off the convex weights, zero at the dropped
    columns.

    Column ``kept[i]`` is ``sums[i] * c_i``, with ``c_i`` the weights of
    column i over the vertices and rows ``r..d`` doubled: in exact
    arithmetic the block basis ``[V_r^-1 (X - V_x E); 2 E]``. A vertex's
    source column has an indicator row, so it is that vector's node.
    """
    coefficients = expansion.coefficients
    # Widened here, not by reinsert_zero_columns, which converts the mask's
    # tuple of columns again.
    v = np.zeros((coefficients.shape[1], width))
    v[:, kept] = (coefficients * sums[:, None]).T
    v[r:] *= 2.0
    return v


def _column_residuals(a1: np.ndarray, f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-abs entry of each column of ``f @ v - a1``, in one buffer."""
    buffer = f @ v
    buffer -= a1
    np.abs(buffer, out=buffer)
    return buffer.max(axis=0)


def _solve_columns(vs, a1, rows, f, v, columns, residuals, tol_rank: float) -> None:
    """Replace ``columns`` of ``v`` by their block-solved basis, clipped at
    0, where that reproduces the column of ``a1`` better; ``v`` and
    ``residuals`` are updated in place. Rows ``r..d`` of ``v`` are twice the
    extension rows, and the solve keeps them."""
    r = vs.r
    x = a1[np.ix_(rows, columns)]
    block = positive_basis_by_blocks(vs, x, 0.5 * v[r:, columns], tol_rank)
    np.maximum(block, 0.0, out=block)
    candidate = _column_residuals(a1[:, columns], f, block)
    better = candidate < residuals[columns]
    v[:, columns[better]] = block[:, better]
    residuals[columns[better]] = candidate[better]


@dataclass(frozen=True, eq=False)
class Factorization:
    """Nonnegative factors with ``F @ V`` reproducing the input, plus run
    diagnostics.

    Indices are 0-based. Column indices (``nodes``,
    ``vertex_source_columns``) refer to the original, unstripped input;
    ``nodes_stripped`` ties the same nodes to the stripped matrix. The node
    of basis vector k is vertex k's source column, so ``nodes`` equals
    ``vertex_source_columns``.
    """

    F: np.ndarray
    V: np.ndarray
    p: int
    classification: Classification
    nodes: tuple[int, ...]
    nodes_stripped: tuple[int, ...]
    basic_rows: tuple[int, ...]
    r: int
    mu: int
    vertex_source_columns: tuple[int, ...]
    residual_inf: float
    warnings: tuple[str, ...]
    mask: ZeroColumnMask
    timings_ms: dict[str, float]


def factorize(a1, tolerances: Tolerances | None = None, strict: bool = False) -> Factorization:
    """Factor a nonnegative matrix exactly into nonnegative ``F @ V``.

    Pipeline: pick a basic row set, strip the columns that are zero in it,
    normalize columns onto the simplex, deduplicate, find the polytope
    vertices (segment fast path when exactly two basic rows), reorder them,
    and write every column's share as convex weights over the vertices.
    The positive basis V is read off those weights: column i is its weights
    times its column sum, rows ``r..d`` doubled. Each vertex's source column
    is then the node of its basis vector, and F is the input at the node
    columns divided by the node values. A column whose residual exceeds
    ``tol.recon * (1 + max A)`` gets its block-solved basis column instead,
    clipped at 0, when that reproduces it better.

    The inner dimension ``p`` equals the vertex count and is known before
    the factors are built. When ``p >= min(n, m)`` the run records a
    warning, or raises IntermediateDimensionError if ``strict`` is set.

    Raises ValueError for invalid input (negative, non-finite, empty; an
    InvalidEntryError with the position for a bad entry) and
    FactorizationError subtypes for numerical failures, tagged with the
    stage that failed.
    """
    tol = tolerances if tolerances is not None else Tolerances()
    a1 = as_matrix(a1, "A")
    if a1.size == 0:
        raise ValueError("A must be nonempty")
    if a1.min() < 0.0:
        i, j = map(int, np.unravel_index(int(np.argmin(a1)), a1.shape))
        message = f"A must be nonnegative; A[{i}, {j}] = {a1[i, j]}"
        raise InvalidEntryError(message, f"negative entry {a1[i, j]:g}", i, j)

    n, m_original = a1.shape
    warnings: list[str] = []
    timings: dict[str, float] = {}
    t_last = time.perf_counter()

    def run(stage, fn, *args):
        nonlocal t_last
        try:
            out = fn(*args)
        except FactorizationError as err:
            if err.stage is None:
                err.stage = stage
            raise
        now = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + (now - t_last) * 1000.0
        t_last = now
        return out

    basic = run("basic_set", basic_set_of, a1, tol.rank)
    r = basic.r
    kept, mask = run("strip", _zero_column_mask, basic.X)
    m = kept.size
    table = run("basic_function", basic_function, basic.X[:, kept])
    rng = run("distinct_values", distinct_values, table, tol.dedup)
    if rng.merged_inexact:
        warnings.append("near-duplicate basic-function values merged within the dedup tolerance")

    if r == 2:
        vs = run("vertices", segment_vertices, table, tol.dedup)
    else:
        vs = run("vertices", hull_vertices, rng, tol.feas)
    vs = run("reorder", reorder_vertices, vs, tol.rank)
    d = vs.d

    if d >= min(n, m_original):
        message = (
            f"intermediate dimension {d} >= min(n, m) = {min(n, m_original)}: "
            "the factorization does not reduce dimension"
        )
        if strict:
            raise IntermediateDimensionError(message, stage="vertices")
        warnings.append(message)

    expansion = run("expansion", expand_in_vertices, table, vs, rng, tol.feas)
    v = run("basis", _vectors_from_weights, expansion, table.sums, r, kept, m_original)
    nodes = tuple(mask.kept_columns[j] for j in vs.source_columns)
    f = run("nodes", _f_at_nodes, a1, v, nodes)
    residuals = run("assemble", _column_residuals, a1, f, v)
    bound = tol.recon * (1.0 + float(a1.max()))
    over = np.flatnonzero(residuals > bound)
    if over.size:
        run("basis", _solve_columns, vs, a1, basic.row_indices, f, v, over, residuals, tol.rank)
    residual = float(residuals.max())
    if residual > bound:
        warnings.append(f"reconstruction residual {residual:.3e} exceeds the tolerance bound")

    return Factorization(
        F=f,
        V=v,
        p=d,
        classification=classify(r, d, rng.mu, m),
        nodes=nodes,
        nodes_stripped=vs.source_columns,
        basic_rows=basic.row_indices,
        r=r,
        mu=rng.mu,
        vertex_source_columns=nodes,
        residual_inf=residual,
        warnings=tuple(warnings),
        mask=mask,
        timings_ms=timings,
    )
