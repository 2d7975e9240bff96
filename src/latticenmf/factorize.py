"""End-to-end exact nonnegative factorization pipeline."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .basic import basic_function, distinct_values, select_basic_set
from .errors import FactorizationError, IntermediateDimensionError, InvalidEntryError
from .errors import ZeroMatrixError
from .lattice import (
    basis_matrix,
    expand_in_vertices,
    find_nodes,
    positive_basis,
    synthesize_vectors,
)
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
    """Which columns of the original matrix survived zero-column stripping."""

    original_width: int
    kept_columns: tuple[int, ...]

    @property
    def dropped_columns(self) -> tuple[int, ...]:
        kept = set(self.kept_columns)
        return tuple(j for j in range(self.original_width) if j not in kept)


def strip_zero_columns(a1) -> tuple[np.ndarray, ZeroColumnMask]:
    """Drop columns whose sum is zero; the mask records the positions."""
    a1 = as_matrix(a1)
    sums = a1.sum(axis=0)
    kept = tuple(int(j) for j in np.flatnonzero(sums > 0.0))
    if not kept:
        raise ZeroMatrixError("zero matrix")
    mask = ZeroColumnMask(a1.shape[1], kept)
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
    a = as_matrix(a)
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
    return float(np.abs(a1 - f @ v).max())


@dataclass(frozen=True, eq=False)
class Factorization:
    """Nonnegative factors with ``F @ V`` reproducing the input, plus run
    diagnostics.

    Indices are 0-based. Column indices (``nodes``,
    ``vertex_source_columns``) refer to the original, unstripped input;
    ``nodes_stripped`` ties the same nodes to the stripped matrix.
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

    Pipeline: strip zero columns, pick a basic row set, normalize columns
    onto the simplex, deduplicate, find the polytope vertices (segment fast
    path when exactly two basic rows), reorder them, synthesize extension
    rows when there are more vertices than basic rows, solve for the
    positive basis, locate its nodes, and assemble F from the node columns
    of the input.

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
        timings[stage] = (now - t_last) * 1000.0
        t_last = now
        return out

    a, mask = run("strip", strip_zero_columns, a1)
    m = a.shape[1]
    basic = run("basic_set", select_basic_set, a, tol.rank)
    r = basic.r
    table = run("basic_function", basic_function, basic.X)
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

    if d > r:
        expansion = run("expansion", expand_in_vertices, table, vs, rng, tol.feas)
        stacked = np.vstack([basic.X, synthesize_vectors(expansion, table.sums, r)])
    else:
        stacked = basic.X

    vectors = run("basis", positive_basis, basis_matrix(vs), stacked, tol.rank, tol.node)
    if vectors.min() < 0.0:
        warnings.append(
            f"positive basis has entries below -{tol.node:g} (min {vectors.min():.3e})"
        )
    nodes_stripped = run("nodes", find_nodes, vectors, tol.node)

    f = build_f(a, vectors, nodes_stripped)
    v = reinsert_zero_columns(vectors, mask)
    residual = residual_inf(a1, f, v)
    timings["assemble"] = (time.perf_counter() - t_last) * 1000.0
    if residual > tol.recon * (1.0 + float(np.abs(a1).max())):
        warnings.append(f"reconstruction residual {residual:.3e} exceeds the tolerance bound")

    return Factorization(
        F=f,
        V=v,
        p=d,
        classification=classify(r, d, rng.mu, m),
        nodes=tuple(mask.kept_columns[i] for i in nodes_stripped),
        nodes_stripped=nodes_stripped,
        basic_rows=basic.row_indices,
        r=r,
        mu=rng.mu,
        vertex_source_columns=tuple(mask.kept_columns[i] for i in vs.source_columns),
        residual_inf=residual,
        warnings=tuple(warnings),
        mask=mask,
        timings_ms=timings,
    )
