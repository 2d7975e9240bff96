"""Tolerance-aware dense linear algebra used by every pipeline stage.

Rank decisions compare pivots with a threshold relative to the largest
entry of the matrix, so they are invariant under positive rescaling of the
input. ``rank_of`` eliminates with partial pivoting; ``greedy_independent_rows``
scans the rows in order and pivots each kept row on its largest entry. It
reduces rows one at a time until one is dependent, then tests all later
rows with one product against the kept rows, at most ``r + 1`` products in
all; rows that product leaves near the threshold are reduced one at a time
again, so the verdicts are those of the row-by-row scan. ``solve`` takes its
singularity verdict from ``rank_of`` and its numbers from LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidEntryError, SingularMatrixError, ZeroMatrixError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across the pipeline.

    rank   -- relative pivot threshold for rank decisions and solving
    dedup  -- max-norm threshold for merging equal basic-function values
    feas   -- feasibility acceptance threshold for the simplex solver
    recon  -- relative bound on the reconstruction residual
    """

    rank: float = 1e-9
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
    far; the result therefore has ``rank_of(m)`` entries. Each row is
    reduced against the kept rows in the order they were kept and kept when
    an entry of what is left exceeds ``tol_rank * max|m|``; a kept row
    pivots on its largest entry.

    Rows are reduced one at a time until one is dependent. The rows after
    it are then reduced at once: forward substitution on the kept pivot
    columns gives each row's coefficients, bit for bit those of the
    row-by-row reduction, and one product gives every residual. The scan
    goes on row by row from the first row that product cannot rule out, or
    stops, so it makes at most ``r + 1`` products. The product rounds
    differently from the row-by-row reduction, so a row whose product
    residual is within that rounding bound of the threshold is reduced row
    by row too, and the kept list equals the row-by-row scan's at every
    tolerance.
    """
    return independent_rows(as_matrix(m), tol_rank)


def independent_rows(a: np.ndarray, tol_rank: float) -> list[int]:
    """``greedy_independent_rows`` of a matrix ``as_matrix`` has checked."""
    # The largest absolute entry, without an |a| temporary of a's size.
    scale = max(float(a.max()), -float(a.min())) if a.size else 0.0
    if scale == 0.0:
        raise ZeroMatrixError("zero matrix")
    threshold = tol_rank * scale
    n_rows, n_cols = a.shape
    kept: list[int] = []
    # The kept rows reduced, and the column each pivots on.
    basis: list[np.ndarray] = []
    pivots: list[int] = []

    def take(i: int) -> bool:
        """Reduce row i against the basis in order; keep it if it grows the span."""
        row = a[i].copy()
        for b, p in zip(basis, pivots):
            row -= (row[p] / b[p]) * b
        pivot = int(np.argmax(np.abs(row)))
        if abs(row[pivot]) <= threshold:
            return False
        kept.append(i)
        basis.append(row)
        pivots.append(pivot)
        return True

    i = 0
    while i < n_rows and len(kept) < min(n_rows, n_cols):
        if take(i):
            i += 1
            continue
        # Row i is dependent, and usually so are the rows after it.
        undecided = _undecided_rows(a[i + 1 :], basis, pivots, threshold, scale)
        for j in (i + 1 + undecided).tolist():
            if take(j):
                i = j + 1
                break
        else:
            break
    return kept


def _undecided_rows(
    rest: np.ndarray, basis: list[np.ndarray], pivots: list[int], threshold: float, scale: float
) -> np.ndarray:
    """Rows of ``rest`` that reduced against ``basis`` may exceed ``threshold``.

    A row is ruled out only when its residual from one product, plus a
    bound on how far that rounds from the row-by-row residual, stays within
    the threshold.
    """
    k = len(basis)
    kept_rows = np.array(basis).reshape(k, rest.shape[1])
    pivot_block = kept_rows[:, pivots]
    # The row-by-row reduction's coefficients: its operations on the pivot
    # columns only, applied to all rows at once. Column t of ``block`` ends
    # as x_{t-1}[p_t], what the reduction divides by b_t[p_t].
    block = rest[:, pivots]
    coefficients = np.empty((rest.shape[0], k))
    for t in range(k):
        coefficients[:, t] = block[:, t] / pivot_block[t, t]
        block[:, t + 1 :] -= coefficients[:, t, None] * pivot_block[t, t + 1 :]
    residual = coefficients @ kept_rows
    residual -= rest
    np.abs(residual, out=residual)
    # Both residuals sum x and the k terms c_t * b_t. Since b_t pivots on
    # its largest entry, |c_t * b_t| is at most |x_{t-1}[p_t]|, and |x| is at
    # most ``scale``. Each way of summing rounds by at most about
    # (k + 1) * eps / 2 times the sum of those magnitudes, so the two
    # residuals differ by less than half the slack. A NaN is not ruled out.
    slack = 2 * (k + 2) * _EPS * (scale + np.abs(block).sum(axis=1))
    return np.flatnonzero(~(residual.max(axis=1) + slack <= threshold))
