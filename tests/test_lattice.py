import dataclasses
import importlib
from itertools import count

import numpy as np
import pytest

import latticenmf.lattice
import latticenmf.simplex
from latticenmf import (
    ConvexExpansion,
    ExpansionInfeasibleError,
    SimplexStalledError,
    SingularMatrixError,
    VertexSet,
    basic_function,
    basis_matrix,
    build_f,
    distinct_values,
    expand_in_vertices,
    factorize,
    hull_vertices,
    positive_basis,
    positive_basis_by_blocks,
    rank_of,
    reorder_vertices,
    segment_vertices,
    select_basic_set,
    synthesize_vectors,
)

from data import (
    DIAGBLOCK_6X6,
    MINLAT_6X6,
    MINLAT_6X6_ALT_EXPANSION,
    MINLAT_6X6_ALT_EXTENSION,
    MINLAT_6X6_HAND_BASIS,
    MINLAT_6X6_HAND_EXPANSION,
    MINLAT_6X6_HAND_EXTENSION,
    MINLAT_6X6_HAND_NODES,
    MINLAT_6X6_VERTEX_ORDER,
    MINLAT_6X6_VERTEX_SOURCES,
    MINLAT_8X11,
    NRF_5X4,
    RANK2_ROWS,
    SUBLAT_8X10,
)
from oracles import find_nodes

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


    def test_segment_weights_are_read_off_the_first_coordinate(self, monkeypatch):
        monkeypatch.setattr(latticenmf.lattice, "convex_combinations", None)
        table = basic_function(RANK2_ROWS)
        rng = distinct_values(table)
        vs = reorder_vertices(segment_vertices(table))
        coeff = expand_in_vertices(table, vs, rng).coefficients
        assert coeff.min() >= 0.0
        assert np.abs(coeff.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(coeff @ vs.vertices - table.points).max() <= 1e-15
        for k, column in enumerate(vs.source_columns):
            assert np.array_equal(coeff[column], np.eye(2)[k])


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

    def test_no_column_to_solve_again_makes_no_solve(self, monkeypatch):
        # Every column of MINLAT_6X6 takes the hull pass's row, so the
        # fallback makes no call, not even one over zero columns.
        calls = []
        solver = latticenmf.lattice.convex_combinations

        def counted(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(latticenmf.lattice, "convex_combinations", counted)
        assert factorize(MINLAT_6X6).p == 4
        assert calls == []

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

    @staticmethod
    def _near_copy_pieces():
        """Six corners and a copy of corner 5 moved 1.28e-8 of the way
        towards corner 1 (set 73 of seed 100 of the near-corner family in
        test_polytope, with one near copy kept): the table, the distinct
        values and the reordered vertex set."""
        corners = np.array(
            [
                [0.09717097999354526, 0.12167842357324757, 0.7164246173971769, 0.06472597903603022],
                [0.4001703528842025, 0.5197700858432996, 0.04473543887283832, 0.035324122399659444],
                [0.17302635923606205, 0.19226263368095256, 0.4860859902297361, 0.1486250168532494],
                [0.3201537352159076, 0.02890112306885073, 0.04851654138175278, 0.6024286003334889],
                [0.4758238617157382, 0.1936378880953017, 0.3037867517276256, 0.026751498461334674],
                [0.11892494102772948, 0.14362215042503865, 0.5212373187909396, 0.2162155897562923],
            ]
        )
        near = corners[5] + 1.2816833399171606e-08 * (corners[1] - corners[5])
        table = basic_function(np.vstack([corners, near]).T)
        rng = distinct_values(table)
        return table, rng, reorder_vertices(hull_vertices(rng))

    def test_row_leaning_on_a_dropped_point_needs_no_solve(self, monkeypatch):
        # The hull pass confirms the copy, writes the interior corner 2 over
        # it, and its last pass drops the copy again, writing it over the
        # points kept. Corner 2 (unique 2) and the copy (unique 6) take
        # their weight on it over those points, so nothing is solved.
        drops = []
        check = latticenmf.simplex.StackResult.raise_fault

        def recorded_check(result, p):
            drops.append(result.status[p] == latticenmf.simplex.FEASIBLE)
            return check(result, p)

        monkeypatch.setattr(latticenmf.simplex.StackResult, "raise_fault", recorded_check)
        table, rng, vs = self._near_copy_pieces()
        monkeypatch.undo()
        assert (vs.r, vs.d) == (4, 5)
        assert 2 not in vs.source_columns and 6 not in vs.source_columns
        assert drops == [True]
        coeff = vs.unique_coefficients
        assert not np.isnan(coeff).any()
        rows = coeff[[2, 6]]
        assert rows.min() >= 0.0
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(rows @ vs.vertices - rng.unique_points[[2, 6]]).max() <= 1e-9
        calls = self._counting(monkeypatch)
        coeff = expand_in_vertices(table, vs, rng).coefficients
        assert calls == []
        assert np.abs(coeff @ vs.vertices - table.points).max() <= 1e-9

    def test_rows_that_miss_their_point_are_solved_in_one_stack(self, monkeypatch):
        # The fallback stays for rows that miss their own point: here row 2
        # is put on a vertex and row 6 is NaN. Both columns are solved again,
        # together in one stacked call.
        table, rng, vs = self._near_copy_pieces()
        coeff = vs.unique_coefficients.copy()
        coeff[2], coeff[6] = np.eye(vs.d)[0], np.nan
        vs = dataclasses.replace(vs, unique_coefficients=coeff)
        calls = self._counting(monkeypatch)
        coeff = expand_in_vertices(table, vs, rng).coefficients
        assert calls == [1, 1]
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


def _planted_matrices(state, count):
    """Planted n x m matrices with no zero column: ``d`` shares on a sphere
    around the barycentre of the simplex in R^r (every one a vertex of
    their hull), Dirichlet mixes of them, each share carried by a few
    columns with random scales, under a random positive n x r map. Every
    other set has d == r."""
    for i in range(count):
        r = int(state.integers(3, 7))
        d = r if i % 2 else r + int(state.integers(1, 9))
        directions = state.standard_normal((d, r))
        directions -= directions.mean(axis=1, keepdims=True)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        vertices = 1.0 / r + 0.8 / np.sqrt(r * (r - 1)) * directions
        shares = np.vstack([vertices, state.dirichlet(np.ones(d), size=3 * d) @ vertices])
        columns = state.permutation(np.repeat(np.arange(len(shares)), 3))
        scales = state.uniform(0.5, 20.0, size=len(columns))
        w = state.uniform(0.1, 1.0, size=(int(state.integers(r, 3 * r)), r))
        yield w @ (shares[columns] * scales[:, None]).T


def _basis_inputs(a):
    """The vertex set, basic rows and extension rows the pipeline gives ``a``."""
    basic = select_basic_set(a)
    table = basic_function(basic.X)
    rng = distinct_values(table)
    vs = reorder_vertices(segment_vertices(table) if basic.r == 2 else hull_vertices(rng))
    extension = np.empty((0, a.shape[1]))
    if vs.d > vs.r:
        extension = synthesize_vectors(expand_in_vertices(table, vs, rng), table.sums, vs.r)
    return vs, basic.X, extension


def _with_v_r(vs, v_r):
    """``vs`` with the first r vertices replaced by the columns of ``v_r``."""
    vertices = vs.vertices.copy()
    vertices[: vs.r] = v_r.T
    return VertexSet(vertices, vs.source_columns, vs.r)


class TestPositiveBasisByBlocks:
    MATRICES = (MINLAT_6X6, MINLAT_8X11, SUBLAT_8X10, NRF_5X4, DIAGBLOCK_6X6, RANK2_ROWS)

    def _inputs(self):
        yield from map(_basis_inputs, self.MATRICES)
        yield from map(_basis_inputs, _planted_matrices(np.random.default_rng(211), 24))

    def test_matches_the_lifted_solve(self):
        shapes = set()
        for vs, x, e in self._inputs():
            lifted = positive_basis(basis_matrix(vs), np.vstack([x, e]))
            blocks = positive_basis_by_blocks(vs, x, e)
            assert blocks.shape == lifted.shape
            assert np.abs(blocks - lifted).max() <= 1e-9 * np.abs(lifted).max()
            assert find_nodes(blocks) == find_nodes(lifted)
            shapes.add(vs.d > vs.r)
        assert shapes == {True, False}

    @staticmethod
    def _deficient(vs, gap):
        """``V_r`` with its second column the midpoint of the first and the
        last, moved by ``gap`` along e_0 - e_1 (column sums stay 1)."""
        v_r = vs.vertices[: vs.r].T.copy()
        v_r[:, 1] = (v_r[:, 0] + v_r[:, -1]) / 2.0
        v_r[0, 1] += gap
        v_r[1, 1] -= gap
        return v_r

    def test_rank_deficient_v_r_raises(self):
        for vs, x, e in self._inputs():
            if vs.r < 3:
                continue
            for gap in (0.0, 1e-13):
                v_r = self._deficient(vs, gap)
                assert rank_of(v_r) < vs.r
                with pytest.raises(SingularMatrixError):
                    positive_basis_by_blocks(_with_v_r(vs, v_r), x, e)

    def test_verdict_does_not_change_with_the_scale_of_v_r(self):
        for vs, x, e in self._inputs():
            if vs.r < 3:
                continue
            for c in 10.0 ** np.arange(-6, 7):
                positive_basis_by_blocks(_with_v_r(vs, c * vs.vertices[: vs.r].T), x, e)
                with pytest.raises(SingularMatrixError):
                    positive_basis_by_blocks(_with_v_r(vs, c * self._deficient(vs, 1e-13)), x, e)


class TestFindNodes:
    """The worked examples' nodes, by the reference scan of tests/oracles.py."""

    def test_hand_worked_basis(self):
        assert find_nodes(MINLAT_6X6_HAND_BASIS) == MINLAT_6X6_HAND_NODES

    def test_worked_5x4_basis(self):
        basis = np.array([[0, 2, 2, 0], [8, 0, 8, 0], [0, 0, 0, 19]], dtype=float)
        assert find_nodes(basis) == (1, 0, 3)


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
