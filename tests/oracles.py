"""Independent reference implementations the tests check against.

Nothing here shares code with the package beyond its error types: ranks go
through exact rational elimination, hull membership through brute-force
convex-combination search, and factor comparisons through explicit
permutation search.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from latticenmf.errors import SingularMatrixError


def exact_rank(matrix) -> int:
    """Row-echelon rank over exact rationals.

    Entries are converted through ``Fraction(float)``, which is exact, so
    this is a true oracle for matrices with exactly representable entries
    (integers, dyadic rationals).
    """
    rows = [[Fraction(float(v)) for v in row] for row in np.asarray(matrix).tolist()]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == len(rows):
            break
        pivot = next((i for i in range(pivot_row, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        base = rows[pivot_row]
        for i in range(pivot_row + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / base[col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], base)]
        rank += 1
        pivot_row += 1
    return rank


def hull_contains(point, others, tol: float = 1e-9) -> bool:
    """Brute-force convex-combination search over singles, pairs, triples.

    Complete for point sets of affine dimension at most two, e.g. points on
    the probability simplex of R^3 (any contained point has a witness of at
    most three points there).
    """
    p = np.asarray(point, dtype=float)
    pts = np.atleast_2d(np.asarray(others, dtype=float))
    if pts.size == 0:
        return False
    for q in pts:
        if np.abs(q - p).max() <= tol:
            return True
    for i, j in combinations(range(len(pts)), 2):
        q1, q2 = pts[i], pts[j]
        direction = q2 - q1
        denom = float(direction @ direction)
        if denom == 0.0:
            continue
        t = float(np.clip((p - q1) @ direction / denom, 0.0, 1.0))
        if np.abs(q1 + t * direction - p).max() <= tol:
            return True
    target = np.concatenate([p, [1.0]])
    for i, j, k in combinations(range(len(pts)), 3):
        a = np.vstack([np.column_stack([pts[i], pts[j], pts[k]]), np.ones(3)])
        weights, *_ = np.linalg.lstsq(a, target, rcond=None)
        if weights.min() >= -tol and np.abs(a @ weights - target).max() <= tol:
            return True
    return False


def brute_force_vertices(points, tol: float = 1e-9) -> list[int]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return [
        i
        for i in range(len(pts))
        if not hull_contains(pts[i], np.delete(pts, i, axis=0), tol)
    ]


def distinct_values_loop(points, tol_dedup: float = 1e-9):
    """The column-by-column dedup scan: each point joins the first earlier
    unique within ``tol_dedup`` in max-norm, or becomes a new unique.

    Returns ``(unique_points, representatives, membership, merged_inexact)``.
    """
    uniques, representatives, membership = [], [], []
    merged_inexact = False
    for i, p in enumerate(np.asarray(points, dtype=float)):
        for uid, q in enumerate(uniques):
            diff = float(np.abs(p - q).max())
            if diff <= tol_dedup:
                membership.append(uid)
                if diff > 0.0:
                    merged_inexact = True
                break
        else:
            membership.append(len(uniques))
            uniques.append(p)
            representatives.append(i)
    return np.array(uniques), tuple(representatives), tuple(membership), merged_inexact


def isolated_points_loop(points, tol_dedup: float = 1e-9):
    """For each point, whether every other point is more than ``tol_dedup``
    away in max-norm, by comparing all pairs."""
    pts = np.asarray(points, dtype=float)
    return [
        all(float(np.abs(p - q).max()) > tol_dedup for j, q in enumerate(pts) if j != i)
        for i, p in enumerate(pts)
    ]


def greedy_independent_rows_loop(matrix, tol_rank: float = 1e-9):
    """The row-by-row first-wins scan: each row is reduced against the kept
    rows in the order they were kept, and kept when an entry of what is left
    exceeds ``tol_rank * max|matrix|``."""
    a = np.asarray(matrix, dtype=float)
    threshold = tol_rank * float(np.abs(a).max())
    kept, reduced = [], []
    for i in range(a.shape[0]):
        if len(kept) == min(a.shape):
            break
        row = a[i].copy()
        for basis_row, pivot_col in reduced:
            row -= (row[pivot_col] / basis_row[pivot_col]) * basis_row
        pivot_col = int(np.argmax(np.abs(row)))
        if abs(row[pivot_col]) > threshold:
            kept.append(i)
            reduced.append((row, pivot_col))
    return kept


def solve_loop(l, b, tol_rank: float = 1e-9):
    """Gaussian elimination with partial pivoting on the augmented matrix,
    then back-substitution, one pivot at a time. Raises SingularMatrixError
    when a pivot is at most ``tol_rank`` times the largest entry of ``l``
    (times 1 for the zero matrix)."""
    a = np.asarray(l, dtype=float)
    rhs = np.asarray(b, dtype=float)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs[:, None]
    n = a.shape[0]
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


def find_nodes_loop(basis, tol_node: float = 1e-6):
    """The vector-by-vector node scan: for each basis vector, the smallest
    column where it exceeds ``tol_node`` and every other vector is absolutely
    at most ``tol_node``, or None when there is no such column."""
    b = np.asarray(basis, dtype=float)
    nodes = []
    for k in range(b.shape[0]):
        candidate = b[k] > tol_node
        for j in range(b.shape[0]):
            if j != k:
                candidate &= np.abs(b[j]) <= tol_node
        found = np.flatnonzero(candidate)
        nodes.append(int(found[0]) if found.size else None)
    return nodes


def match_rows_up_to_scale(got, expected, tol: float = 1e-9):
    """Permutation sigma with got[k] == c_k * expected[sigma(k)], c_k > 0.

    Rows are compared after normalizing to unit 1-norm. Returns the
    permutation as a list, or None when no bijective match exists.
    """
    g = np.atleast_2d(np.asarray(got, dtype=float))
    e = np.atleast_2d(np.asarray(expected, dtype=float))
    if g.shape != e.shape:
        return None

    def normalized(rows):
        norms = np.abs(rows).sum(axis=1, keepdims=True)
        if (norms == 0).any():
            raise ValueError("cannot normalize a zero row")
        return rows / norms

    gn, en = normalized(g), normalized(e)
    d = len(gn)
    compatible = [
        [bool(np.abs(gn[i] - en[j]).max() <= tol) for j in range(d)] for i in range(d)
    ]
    for perm in permutations(range(d)):
        if all(compatible[i][perm[i]] for i in range(d)):
            return list(perm)
    return None


def factors_match(f_got, v_got, f_exp, v_exp, tol: float = 1e-9) -> bool:
    """Whether the factor pairs agree up to a simultaneous row permutation
    of V / column permutation of F and positive rescaling."""
    f_got = np.asarray(f_got, dtype=float)
    v_got = np.asarray(v_got, dtype=float)
    f_exp = np.asarray(f_exp, dtype=float)
    v_exp = np.asarray(v_exp, dtype=float)
    perm = match_rows_up_to_scale(v_got, v_exp, tol)
    if perm is None:
        return False
    bound = tol * (1.0 + np.abs(f_exp).max())
    for k, sigma in enumerate(perm):
        scale = np.abs(v_got[k]).sum() / np.abs(v_exp[sigma]).sum()
        if np.abs(f_got[:, k] * scale - f_exp[:, sigma]).max() > bound:
            return False
    return True
