"""Tolerance-aware dense linear algebra used by every pipeline stage.

Rank decisions compare pivots with a threshold relative to the largest
entry of the matrix, so they are invariant under positive rescaling of the
input. ``rank_of`` eliminates with partial pivoting; ``greedy_independent_rows``
scans the rows in order and pivots each kept row on its largest entry.
``solve`` takes its singularity verdict from ``rank_of`` and its numbers
from LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidEntryError, SingularMatrixError, ZeroMatrixError


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across the pipeline.

    rank   -- relative pivot threshold for rank decisions and solving
    node   -- absolute threshold below which basis entries count as zero
    dedup  -- max-norm threshold for merging equal basic-function values
    feas   -- feasibility acceptance threshold for the simplex solver
    recon  -- relative bound on the reconstruction residual
    """

    rank: float = 1e-9
    node: float = 1e-6
    dedup: float = 1e-9
    feas: float = 1e-9
    recon: float = 1e-8

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"tolerance {field.name!r} must be finite and >= 0")


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and reject non-finite entries."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        i, j = map(int, np.argwhere(~np.isfinite(a))[0])
        message = f"{name} contains NaN or infinite entries; {name}[{i}, {j}] = {a[i, j]}"
        raise InvalidEntryError(message, "non-finite entry", i, j)
    return a


def rank_of(m, tol_rank: float = 1e-9) -> int:
    """Pivot count of row reduction with partial pivoting.

    A pivot counts when its magnitude exceeds ``tol_rank`` times the
    largest absolute entry of the matrix, so ``rank_of(c * m)`` equals
    ``rank_of(m)`` for any c > 0. The zero matrix has rank 0.
    """
    a = as_matrix(m).copy()
    if a.size == 0:
        return 0
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return 0
    threshold = tol_rank * scale
    n_rows, n_cols = a.shape
    rank = 0
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= threshold:
            continue
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        factors = a[row + 1 :, col] / a[row, col]
        a[row + 1 :, col:] -= np.outer(factors, a[row, col:])
        rank += 1
        row += 1
    return rank


def solve(l, b, tol_rank: float = 1e-9) -> np.ndarray:
    """Solve ``l @ x = b``; ``b`` is a vector or stacked right-hand sides.

    Raises SingularMatrixError when ``rank_of(l, tol_rank) < n``: the
    verdict of partial-pivot elimination against ``tol_rank`` times the
    largest entry of ``l``. The numbers then come from LAPACK. An exact
    zero pivot there raises SingularMatrixError too; LAPACK rounds
    differently from ``rank_of``, so that can happen when ``tol_rank`` is 0.
    """
    a = as_matrix(l, "l")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    rhs = np.asarray(b, dtype=float)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs[:, None]
    rhs = as_matrix(rhs, "b")
    if rhs.shape[0] != n:
        raise ValueError(f"dimension mismatch: {a.shape} against {rhs.shape}")
    if rank_of(a, tol_rank) < n:
        raise SingularMatrixError("singular basis matrix")
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular basis matrix") from None
    return x[:, 0] if vector_rhs else x


def greedy_independent_rows(m, tol_rank: float = 1e-9) -> list[int]:
    """Indices of a maximal independent row set, first-wins scan order.

    A row is kept exactly when it enlarges the span of the rows kept so
    far; the result therefore has ``rank_of(m)`` entries.
    """
    a = as_matrix(m)
    if a.size == 0 or float(np.abs(a).max()) == 0.0:
        raise ZeroMatrixError("zero matrix")
    threshold = tol_rank * float(np.abs(a).max())
    kept: list[int] = []
    # Row i of ``rows`` is a[i] reduced against the rows kept before it: each
    # kept row is eliminated from all later rows at once, so every row sees
    # the same eliminations in the same order as in a row-by-row scan.
    rows = a.copy()
    while len(kept) < min(a.shape):
        start = kept[-1] + 1 if kept else 0
        above = np.flatnonzero(np.abs(rows[start:]).max(axis=1) > threshold)
        if not above.size:
            break
        i = start + int(above[0])
        pivot_col = int(np.argmax(np.abs(rows[i])))
        later = rows[i + 1 :]
        later -= (later[:, pivot_col] / rows[i, pivot_col])[:, None] * rows[i]
        kept.append(i)
    return kept
