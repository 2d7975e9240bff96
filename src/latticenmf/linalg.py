"""Tolerance-aware dense linear algebra used by every pipeline stage.

Rank and solve decisions use Gaussian elimination with partial pivoting and
a pivot threshold relative to the largest entry of the matrix, so decisions
are invariant under positive rescaling of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEntryError, SingularMatrixError, ZeroMatrixError

_TOLERANCE_FIELDS = ("rank", "node", "dedup", "feas", "recon")


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
        for name in _TOLERANCE_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"tolerance {name!r} must be finite and >= 0")


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
    """Solve ``l @ x = b`` by elimination with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand sides. Raises
    SingularMatrixError when a pivot falls below the relative threshold.
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
    scale = float(np.abs(a).max()) if a.size else 0.0
    threshold = tol_rank * (scale if scale > 0.0 else 1.0)
    aug = np.hstack([a.copy(), rhs])
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[pivot, k]) <= threshold:
            raise SingularMatrixError("singular basis matrix")
        if pivot != k:
            aug[[k, pivot]] = aug[[pivot, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])
    x = np.zeros((n, rhs.shape[1]))
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1 : n] @ x[k + 1 :]) / aug[k, k]
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
