import numpy as np
import pytest

from latticenmf import (
    InvalidEntryError,
    SingularMatrixError,
    Tolerances,
    ZeroMatrixError,
    greedy_independent_rows,
    rank_of,
    solve,
)

from data import MINLAT_6X6, NRF_5X4, SUBLAT_8X10
from oracles import exact_rank, greedy_independent_rows_loop, solve_loop


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank == 1e-9
        assert tol.dedup == 1e-9
        assert tol.feas == 1e-9
        assert tol.recon == 1e-8

    @pytest.mark.parametrize("field", ["rank", "dedup", "feas", "recon"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: -1e-3})


class TestRankOf:
    def test_identity(self):
        assert rank_of(np.eye(4)) == 4

    def test_worked_6x6_has_rank_three(self):
        assert rank_of(MINLAT_6X6) == 3

    def test_zero_matrix(self):
        assert rank_of(np.zeros((3, 5))) == 0

    def test_low_rank_product_matches_exact_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            left = rng.integers(1, 10, size=(5, 2)).astype(float)
            right = rng.integers(1, 10, size=(2, 7)).astype(float)
            product = left @ right
            assert rank_of(product) == exact_rank(product) == 2

    def test_invariant_under_permutation_and_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(0, 5, size=(4, 6))
            base = rank_of(a)
            assert rank_of(a[rng.permutation(4)]) == base
            assert rank_of(a[:, rng.permutation(6)]) == base
            for c in (0.5, 3.0, 1e4):
                assert rank_of(c * a) == base

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rank_of([[1.0, np.nan], [0.0, 1.0]])


class TestSolve:
    def test_identity(self):
        b = np.arange(12, dtype=float).reshape(3, 4)
        assert np.array_equal(solve(np.eye(3), b), b)

    def test_worked_5x4_basis_columns(self):
        # L columns are the three share-space vertices of NRF_5X4; solving
        # against the basic rows yields the positive basis (hand-checked
        # via L @ B == X).
        l = np.column_stack(
            [[0.5, 0, 0.5], [0, 1, 0], [11 / 19, 0, 8 / 19]]
        )
        x = NRF_5X4[:3]
        b = solve(l, x)
        expected = np.array(
            [[8, 0, 8, 0], [0, 2, 2, 0], [0, 0, 0, 19]], dtype=float
        )
        assert np.abs(b - expected).max() <= 1e-12
        assert np.abs(l @ b - x).max() <= 1e-12

    def test_multiply_back_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            l = rng.uniform(-1, 1, size=(n, n)) + n * np.eye(n)
            x0 = rng.uniform(-5, 5, size=(n, 4))
            b = l @ x0
            x = solve(l, b)
            assert np.abs(l @ x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
            assert np.abs(x - x0).max() <= 1e-9 * (1.0 + np.abs(x0).max())

    def test_vector_right_hand_side(self):
        l = np.array([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(solve(l, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="singular basis matrix"):
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))

    def test_lapack_zero_pivot_raises_singular(self, monkeypatch):
        # With tol_rank = 0, rank_of can accept a rounding-sized last pivot
        # where LAPACK's own rounding leaves an exact 0: with OpenBLAS, the
        # exactly singular [[-3, 2, -2], [-2, 0, -1], [1, -2, 1]] does this.
        def zero_pivot(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", zero_pivot)
        with pytest.raises(SingularMatrixError, match="singular basis matrix"):
            solve(np.eye(2), np.ones(2), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.zeros((3, 2)))

    def test_validation_beyond_lapack(self):
        for l, b in [
            ([[1.0, np.nan], [0.0, 1.0]], np.ones(2)),
            (np.eye(2), [1.0, np.inf]),
            (np.eye(2), [[1.0, 0.0], [np.nan, 1.0]]),
        ]:
            with pytest.raises(InvalidEntryError):
                solve(l, b)
        with pytest.raises(ValueError, match="square"):
            solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="mismatch"):
            solve(np.eye(2), np.ones(3))
        assert solve(np.diag([2.0, 4.0]), [2.0, 8.0]).shape == (2,)
        assert solve(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("family", ["well", "near_singular", "scaled", "integer"])
    def test_verdict_and_numbers_match_the_elimination_loop(self, family):
        state = np.random.default_rng(["well", "near_singular", "scaled", "integer"].index(family))
        eps = np.finfo(float).eps
        raised = 0
        for _ in range(500):
            n = int(state.integers(1, 9))
            if family == "well":
                l = state.uniform(-1, 1, size=(n, n)) + n * np.eye(n)
            elif family == "near_singular":
                l = state.uniform(-1, 1, size=(n, n))
                noise = 10.0 ** state.uniform(-14, -6) * state.uniform(-1, 1, size=n)
                l[-1] = state.uniform(-1, 1, size=n - 1) @ l[:-1] + noise
            elif family == "scaled":
                l = state.uniform(-1, 1, size=(n, n)) * 10.0 ** state.uniform(-8, 8)
            else:
                l = np.round(state.uniform(-3, 3, size=(n, n)))
            b = state.uniform(-5, 5, size=(n, 3))
            try:
                expected = solve_loop(l, b)
            except SingularMatrixError:
                raised += 1
                with pytest.raises(SingularMatrixError):
                    solve(l, b)
                continue
            x = solve(l, b)
            # Both solves are backward stable, so they may differ by about
            # cond(l) * eps relative to the solution.
            bound = (1e-9 + 10 * eps * np.linalg.cond(l)) * (1.0 + np.abs(x).max())
            assert np.abs(x - expected).max() <= bound
        if family in ("near_singular", "integer"):
            assert 0 < raised < 500


class TestGreedyIndependentRows:
    def test_worked_6x6(self):
        assert greedy_independent_rows(MINLAT_6X6) == [0, 1, 2]

    def test_worked_8x10(self):
        assert greedy_independent_rows(SUBLAT_8X10) == [0, 1, 2, 3, 5]

    def test_identity(self):
        assert greedy_independent_rows(np.eye(5)) == list(range(5))

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrixError, match="zero matrix"):
            greedy_independent_rows(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidEntryError):
                greedy_independent_rows([[1.0, 0.0], [bad, 1.0]])

    def test_size_matches_rank_and_rows_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            a = rng.uniform(0, 3, size=(6, k)) @ rng.uniform(0, 3, size=(k, 5))
            kept = greedy_independent_rows(a)
            assert len(kept) == rank_of(a)
            assert rank_of(a[kept]) == len(kept)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, size=(6, 4))
        assert greedy_independent_rows(a) == greedy_independent_rows(a)

    def test_matches_the_row_by_row_scan(self):
        # Low-rank products with repeated, scaled and near-threshold rows.
        state = np.random.default_rng(67)
        for trial in range(300):
            n, m = (int(v) for v in state.integers(1, 12, size=2))
            k = int(state.integers(1, min(n, m) + 1))
            a = state.uniform(0, 3, size=(n, k)) @ state.uniform(0, 3, size=(k, m))
            if trial % 3 == 0 and n > 1:
                a[int(state.integers(1, n))] = a[0] * state.uniform(0.5, 2.0)
            if trial % 5 == 0:
                a[int(state.integers(0, n))] *= 1e-9
            assert greedy_independent_rows(a) == greedy_independent_rows_loop(a)

    @pytest.mark.parametrize("tol_rank", [1e-9, 1e-12, 0.0])
    def test_matches_the_row_by_row_scan_at_every_tolerance(self, tol_rank):
        # Wide and tall low-rank products whose scan stops and restarts: a
        # zero or dependent first row, exact and scaled copies of earlier
        # rows between independent ones, and a row scaled by 1e-9 next to
        # the threshold.
        state = np.random.default_rng(73)
        shapes = [(60, 2000), (2000, 60)]
        shapes += [tuple(int(v) for v in state.integers(1, 40, size=2)) for _ in range(100)]
        # Short rows of rank at most 3 are where, at tol_rank = 0, rounding
        # alone decides whether a dependent row is kept.
        shapes += [(int(state.integers(1, 16)), int(state.integers(1, 7))) for _ in range(400)]
        for n, m in shapes:
            k = int(state.integers(1, min(n, m, 8 if m > 6 else 3) + 1))
            a = state.uniform(0, 3, size=(n, k)) @ state.uniform(0, 3, size=(k, m))
            for j in state.integers(1, n, size=int(state.integers(0, 4))) if n > 1 else ():
                source = int(state.integers(0, j))
                a[j] = a[source] * (1.0 if state.random() < 0.5 else state.uniform(0.1, 10.0))
            first = state.random()
            if first < 0.2:
                a[0] = 0.0
            elif first < 0.4 and n > 1:
                a[0] = 0.5 * a[1] + 2.0 * a[-1]
            if state.random() < 0.5:
                a[int(state.integers(0, n))] *= 1e-9
            if not a.any():
                continue
            assert greedy_independent_rows(a, tol_rank) == greedy_independent_rows_loop(a, tol_rank)
