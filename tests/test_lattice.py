import importlib
from itertools import count

import numpy as np
import pytest

import latticenmf.lattice
import latticenmf.simplex
from latticenmf import (
    ConvexExpansion,
    ExpansionInfeasibleError,
    NodeNotFoundError,
    SimplexStalledError,
    VertexSet,
    basic_function,
    basis_matrix,
    build_f,
    distinct_values,
    expand_in_vertices,
    factorize,
    find_nodes,
    hull_vertices,
    positive_basis,
    rank_of,
    reorder_vertices,
    select_basic_set,
    synthesize_vectors,
)

from data import (
    MINLAT_6X6,
    MINLAT_6X6_ALT_EXPANSION,
    MINLAT_6X6_ALT_EXTENSION,
    MINLAT_6X6_HAND_BASIS,
    MINLAT_6X6_HAND_EXPANSION,
    MINLAT_6X6_HAND_EXTENSION,
    MINLAT_6X6_HAND_NODES,
    MINLAT_6X6_VERTEX_ORDER,
    MINLAT_6X6_VERTEX_SOURCES,
    NRF_5X4,
    SUBLAT_8X10,
)
from oracles import find_nodes_loop

HAND_VS = VertexSet(
    vertices=MINLAT_6X6_VERTEX_ORDER,
    source_columns=MINLAT_6X6_VERTEX_SOURCES,
    r=3,
)


def _pipeline_pieces(a, rows=None):
    basic = select_basic_set(a) if rows is None else None
    x = basic.X if rows is None else a[rows]
    table = basic_function(x)
    rng = distinct_values(table)
    vs = reorder_vertices(hull_vertices(rng))
    return table, rng, vs


class TestExpandInVertices:
    def test_vertex_columns_get_indicator_rows(self):
        table, rng, _ = _pipeline_pieces(MINLAT_6X6)
        expansion = expand_in_vertices(table, HAND_VS, rng)
        coeff = expansion.coefficients
        assert np.array_equal(coeff[0], [0, 0, 0, 1])
        assert np.array_equal(coeff[2], [0, 0, 1, 0])
        assert np.array_equal(coeff[4], [1, 0, 0, 0])
        assert np.array_equal(coeff[5], [0, 1, 0, 0])

    def test_rows_are_valid_convex_combinations(self):
        table, rng, _ = _pipeline_pieces(MINLAT_6X6)
        expansion = expand_in_vertices(table, HAND_VS, rng)
        coeff = expansion.coefficients
        assert coeff.min() >= -1e-9
        assert np.abs(coeff.sum(axis=1) - 1.0).max() <= 1e-9
        recon = coeff @ HAND_VS.vertices
        assert np.abs(recon - table.points).max() <= 1e-9

    def test_pinned_solver_trace(self):
        # Regression pin of the exact rows this solver returns for the
        # worked 6x6 (verified feasible by the reconstruction checks
        # above); other feasible rows would be equally valid.
        table, rng, vs = _pipeline_pieces(MINLAT_6X6)
        expansion = expand_in_vertices(table, vs, rng)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0.25, 0, 0.75, 0],
                [0, 1, 0, 0],
                [1 / 11, 2 / 11, 8 / 11, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        assert np.abs(expansion.coefficients - expected).max() <= 1e-9

    def test_all_columns_vertices_gives_identity_selection(self):
        table, rng, vs = _pipeline_pieces(SUBLAT_8X10, rows=[0, 1, 2, 3, 5])
        expansion = expand_in_vertices(table, vs, rng)
        coeff = expansion.coefficients
        for i in range(table.m):
            assert coeff[i].sum() == 1.0
            assert set(coeff[i]) <= {0.0, 1.0}


class TestExpansionPerDistinctValue:
    @staticmethod
    def _counting(monkeypatch):
        # One entry per problem the fallback solves: the number of the
        # stacked call that solved it.
        calls, stack_number = [], count(1)
        solver = latticenmf.lattice.convex_combinations

        def counted(points, *args, **kwargs):
            calls.extend([next(stack_number)] * len(points))
            return solver(points, *args, **kwargs)

        monkeypatch.setattr(latticenmf.lattice, "convex_combinations", counted)
        return calls

    def test_one_solve_per_distinct_interior_value(self, monkeypatch):
        calls = self._counting(monkeypatch)
        state = np.random.default_rng(127)
        for _ in range(10):
            base = state.uniform(0.1, 3.0, size=(3, 9))
            pattern = state.integers(0, 9, size=40)
            x = base[:, pattern] * state.uniform(0.5, 50.0, size=40)
            table, rng, vs = _pipeline_pieces(x, rows=[0, 1, 2])
            calls.clear()
            coeff = expand_in_vertices(table, vs, rng).coefficients
            assert len(calls) <= rng.mu - vs.d
            for uid in range(rng.mu):
                rows = coeff[np.asarray(rng.membership) == uid]
                assert (rows == rows[0]).all()
            assert np.abs(coeff @ vs.vertices - table.points).max() <= 1e-9

    def test_member_not_reproduced_by_the_shared_row_gets_its_own_solve(self, monkeypatch):
        calls = self._counting(monkeypatch)
        # A coarse dedup tolerance merges the last column into the interior
        # value of column 3; the shared row from the hull pass misses it, so
        # it is the one column solved again.
        x = np.array(
            [
                [1.0, 0.0, 0.0, 1.0, 1.0001],
                [0.0, 1.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0, 1.0],
            ]
        )
        table = basic_function(x)
        rng = distinct_values(table, tol_dedup=1e-3)
        vs = reorder_vertices(hull_vertices(rng))
        assert rng.membership == (0, 1, 2, 3, 3)
        coeff = expand_in_vertices(table, vs, rng).coefficients
        assert len(calls) == 1
        assert np.abs(coeff @ vs.vertices - table.points).max() <= 1e-9

    def test_row_leaning_on_a_dropped_point_gets_its_own_solve(self, monkeypatch):
        # Seven corners and a copy of corner 5 moved 3.9e-8 of the way towards
        # corner 6 (a set of the near-corner family in test_polytope). The
        # hull pass confirms the copy, writes the interior corner 2 over it,
        # and its last pass drops the copy again. So corner 2 (unique 2) and
        # the copy (unique 4) have no hull row, and only they are solved.
        corners = np.array(
            [
                [0.3497709979246678, 0.029163078105649793, 0.5350852799594962, 0.08598064401018629],
                [0.8707280128487552, 0.04259711252028567, 0.06643109848576657, 0.020243776145192606],
                [0.5148337631401292, 0.08465356373934631, 0.21249748520936276, 0.18801518791116187],
                [0.2858532542014088, 0.17792468662123986, 0.3655774759980823, 0.17064458317926903],
                [0.15827711775386738, 0.24538072172187858, 0.016614037226987965, 0.5797281232972661],
                [0.17480808445780122, 0.10683166710396849, 0.39534185955372597, 0.32301838888450435],
                [0.21057070121986396, 0.06342993732347534, 0.6343443624273325, 0.09165499902932817],
            ]
        )
        near = corners[5] + 3.911209332128085e-08 * (corners[6] - corners[5])
        points = np.vstack([corners, near])[[6, 3, 2, 4, 7, 1, 5, 0]]
        table = basic_function(points.T)
        rng = distinct_values(table)
        vs = reorder_vertices(hull_vertices(rng))
        assert (vs.r, vs.d) == (4, 6)
        assert 2 not in vs.source_columns and 4 not in vs.source_columns
        missing = np.isnan(vs.unique_coefficients).any(axis=1)
        assert np.flatnonzero(missing).tolist() == [2, 4]
        calls = self._counting(monkeypatch)
        coeff = expand_in_vertices(table, vs, rng).coefficients
        assert len(calls) == 2
        assert calls[0] == calls[1]
        assert coeff.min() >= 0.0
        assert np.abs(coeff.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(coeff @ vs.vertices - table.points).max() <= 1e-9


class TestExpansionFailures:
    # Columns 0-2 are the corners of the simplex, 3 its centre and 4 an
    # interior point; a hand-built vertex set decides what lies outside.
    X = np.array([[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]], dtype=float)

    def _hand_set(self, columns):
        table = basic_function(self.X)
        vs = VertexSet(table.points[list(columns)], tuple(columns), r=3)
        return table, vs, distinct_values(table)

    def test_first_column_outside_the_vertices_is_named(self):
        # Columns 2 and 4 lie outside the hull of columns 0, 1 and 3.
        table, vs, rng = self._hand_set((0, 1, 3))
        with pytest.raises(ExpansionInfeasibleError) as raised:
            expand_in_vertices(table, vs, rng)
        assert str(raised.value) == (
            "column 2: not a convex combination of the vertices (infeasibility 2.000e+00)"
        )

    def test_infeasible_expansion_raises_with_stage_expansion(self, monkeypatch):
        # Factorize expands only when d > r, so column 4 joins the set;
        # column 2 still lies outside.
        _, vs, _ = self._hand_set((0, 1, 3, 4))
        module = importlib.import_module("latticenmf.factorize")
        monkeypatch.setattr(module, "hull_vertices", lambda rng, tol_feas: vs)
        with pytest.raises(ExpansionInfeasibleError, match="^column 2: ") as raised:
            factorize(self.X)
        assert raised.value.stage == "expansion"

    def test_a_faulting_solve_raises_the_solver_error(self, monkeypatch):
        # Columns 3 and 4 have no hull weights; capped at 0 pivots, their solves stall.
        table, vs, rng = self._hand_set((0, 1, 2))
        solve_stack = latticenmf.simplex.solve_stack

        def capped(a, b, tol_feas=1e-9, max_iterations=None):
            return solve_stack(a, b, tol_feas, max_iterations=0)

        monkeypatch.setattr(latticenmf.simplex, "solve_stack", capped)
        with pytest.raises(SimplexStalledError, match="^simplex stalled after 1 iterations$"):
            expand_in_vertices(table, vs, rng)


class TestSynthesizeVectors:
    def test_hand_expansion(self):
        table = basic_function(MINLAT_6X6[:3])
        ext = synthesize_vectors(ConvexExpansion(MINLAT_6X6_HAND_EXPANSION), table.sums, 3)
        assert ext.shape == (1, 6)
        assert np.abs(ext[0] - MINLAT_6X6_HAND_EXTENSION).max() <= 1e-12

    def test_alternative_expansion(self):
        # The alternative coefficients are rounded to four decimals, so the
        # synthesized row only matches the reference to that accuracy.
        table = basic_function(MINLAT_6X6[:3])
        ext = synthesize_vectors(ConvexExpansion(MINLAT_6X6_ALT_EXPANSION), table.sums, 3)
        assert np.abs(ext[0] - MINLAT_6X6_ALT_EXTENSION).max() <= 6e-4

    def test_no_extra_vertices_gives_empty_matrix(self):
        coeff = np.eye(3)
        ext = synthesize_vectors(ConvexExpansion(coeff), np.ones(3), 3)
        assert ext.shape == (0, 3)


class TestBasisMatrix:
    def test_lifted_columns_for_extra_vertices(self):
        lifted = basis_matrix(HAND_VS)
        assert lifted.shape == (4, 4)
        assert np.allclose(lifted[:, 3], [0.5, 0, 0, 0.5])
        assert np.allclose(lifted[:3, :3], MINLAT_6X6_VERTEX_ORDER[:3].T)
        assert np.allclose(lifted[3, :3], 0.0)

    def test_square_case_uses_plain_vertex_columns(self):
        _, _, vs = _pipeline_pieces(NRF_5X4)
        l = basis_matrix(vs)
        assert np.array_equal(l, vs.vertices.T)

    def test_always_invertible_on_pipeline_output(self):
        state = np.random.default_rng(67)
        for _ in range(20):
            k = int(state.integers(1, 5))
            x = state.uniform(0.1, 3.0, size=(k, 8))
            _, _, vs = _pipeline_pieces(x, rows=list(range(k)))
            assert rank_of(basis_matrix(vs)) == vs.d


class TestPositiveBasis:
    def test_hand_worked_basis(self):
        table = basic_function(MINLAT_6X6[:3])
        stacked = np.vstack([MINLAT_6X6[:3], MINLAT_6X6_HAND_EXTENSION])
        basis = positive_basis(basis_matrix(HAND_VS), stacked)
        assert np.abs(basis - MINLAT_6X6_HAND_BASIS).max() <= 1e-9

    def test_identity_returns_right_hand_side(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(positive_basis(np.eye(2), y), y)

    def test_small_entries_are_clamped(self):
        y = np.array([[1.0, -1e-8], [1e-9, 2.0]])
        basis = positive_basis(np.eye(2), y, tol_node=1e-6)
        assert basis[0, 1] == 0.0
        assert basis[1, 0] == 0.0


class TestFindNodes:
    def test_hand_worked_basis(self):
        assert find_nodes(MINLAT_6X6_HAND_BASIS) == MINLAT_6X6_HAND_NODES

    def test_worked_5x4_basis(self):
        basis = np.array([[0, 2, 2, 0], [8, 0, 8, 0], [0, 0, 0, 19]], dtype=float)
        assert find_nodes(basis) == (1, 0, 3)

    def test_identity(self):
        assert find_nodes(np.eye(4)) == (0, 1, 2, 3)

    def test_smallest_column_wins(self):
        basis = np.array([[2.0, 0.0, 3.0], [0.0, 1.0, 0.0]])
        assert find_nodes(basis) == (0, 1)

    def test_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError, match="no node column"):
            find_nodes(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_matches_the_vector_by_vector_scan(self):
        # Sparse bases with entries at, just above and far below the
        # threshold; about two thirds of them lack a node for some vector.
        state = np.random.default_rng(79)
        values = np.array([0.0, 1e-6, 1.1e-6, -1e-7, 0.5, 2.0])
        weights = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        for _ in range(200):
            shape = (int(state.integers(1, 5)), int(state.integers(1, 9)))
            basis = state.choice(values, size=shape, p=weights)
            expected = find_nodes_loop(basis)
            if None in expected:
                with pytest.raises(NodeNotFoundError, match=f"vector {expected.index(None)}$"):
                    find_nodes(basis)
            else:
                assert find_nodes(basis) == tuple(expected)


class TestBasisProperties:
    def test_nodes_always_found_on_random_pipelines(self):
        state = np.random.default_rng(71)
        for _ in range(40):
            k = int(state.integers(1, 4))
            n = int(state.integers(k, 8))
            m = int(state.integers(k, 8))
            a = state.uniform(0, 2, size=(n, k)) @ state.uniform(0, 2, size=(k, m))
            if a.sum() == 0:
                continue
            result = factorize(a)
            vectors = result.V[:, list(result.mask.kept_columns)]
            assert find_nodes(vectors) == result.nodes_stripped

    def test_rows_have_nonnegative_coordinates(self):
        result = factorize(MINLAT_6X6)
        stripped = MINLAT_6X6[:, list(result.mask.kept_columns)]
        f = build_f(stripped, result.V, result.nodes)
        assert f.min() >= 0.0

    def test_basic_rows_lie_in_basis_row_span(self):
        state = np.random.default_rng(73)
        for _ in range(15):
            k = int(state.integers(1, 4))
            a = state.uniform(0, 2, size=(6, k)) @ state.uniform(0, 2, size=(k, 6))
            result = factorize(a)
            coords, *_ = np.linalg.lstsq(result.V.T, a[list(result.basic_rows)].T, rcond=None)
            recon = result.V.T @ coords
            assert np.abs(recon - a[list(result.basic_rows)].T).max() <= 1e-8 * (1 + a.max())

    def test_rescaling_a_basis_vector_changes_nothing(self):
        result = factorize(MINLAT_6X6)
        stripped = MINLAT_6X6
        for k in range(result.p):
            for c in (0.25, 7.0):
                scaled = result.V.copy()
                scaled[k] *= c
                nodes = find_nodes(scaled)
                assert nodes == result.nodes_stripped
                f = build_f(stripped, scaled, nodes)
                assert np.abs(f @ scaled - MINLAT_6X6).max() <= 1e-9
