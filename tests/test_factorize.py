import dataclasses
import importlib

import numpy as np
import pytest

from latticenmf import (
    Classification,
    ConvexExpansion,
    IntermediateDimensionError,
    InvalidEntryError,
    SingularMatrixError,
    ZeroColumnMask,
    ZeroMatrixError,
    basic_function,
    build_f,
    classify,
    distinct_values,
    factorize,
    hull_vertices,
    rank_of,
    reinsert_zero_columns,
    reorder_vertices,
    residual_inf,
    segment_vertices,
    select_basic_set,
    strip_zero_columns,
)

import data
from data import (
    DIAGBLOCK_6X6,
    DIAGBLOCK_6X6_NODES,
    DIAGBLOCK_6X6_V,
    MINLAT_6X6,
    MINLAT_8X11,
    NRF_5X4,
    NRF_5X4_F,
    NRF_5X4_V,
    RANK2_ROWS,
    SUBLAT_8X10,
    SUBLAT_8X10_BASIC_ROWS,
    SUBLAT_8X10_BASIS,
)
from oracles import factors_match, match_rows_up_to_scale

# The module, which the package's ``factorize`` function shadows.
PIPELINE = importlib.import_module("latticenmf.factorize")

# The 2-D arrays of tests/data.py that are nonnegative inputs.
DATA_MATRICES = [
    value
    for value in vars(data).values()
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.min() >= 0.0
]


def _misplace_column_one(monkeypatch):
    """Move column 1's weights onto the first vertex, so that its residual
    exceeds the bound (column 1 of MINLAT_6X6 is not a vertex column)."""
    expand = PIPELINE.expand_in_vertices

    def misplaced(*args):
        coefficients = expand(*args).coefficients.copy()
        coefficients[1] = np.eye(coefficients.shape[1])[0]
        return ConvexExpansion(coefficients)

    monkeypatch.setattr(PIPELINE, "expand_in_vertices", misplaced)


def _block_solve_calls(monkeypatch):
    """The basic rows passed to each block solve factorize makes."""
    calls = []
    blocks = PIPELINE.positive_basis_by_blocks

    def spy(vs, x, *args):
        calls.append(np.array(x))
        return blocks(vs, x, *args)

    monkeypatch.setattr(PIPELINE, "positive_basis_by_blocks", spy)
    return calls


def _with_zero_columns(a, every):
    """``a`` with a zero column inserted before every ``every``-th column."""
    return np.insert(a, np.arange(0, a.shape[1], every), 0.0, axis=1)


class TestStripZeroColumns:
    def test_no_zero_columns(self):
        a, mask = strip_zero_columns(MINLAT_6X6)
        assert np.array_equal(a, MINLAT_6X6)
        assert mask.dropped_columns == ()
        assert mask.kept_columns == tuple(range(6))

    def test_drops_marked_column(self):
        a1 = np.array([[1, 0, 2, 3], [4, 0, 5, 6], [7, 0, 8, 9]], dtype=float)
        a, mask = strip_zero_columns(a1)
        assert a.shape == (3, 3)
        assert mask.dropped_columns == (1,)
        assert np.array_equal(a, a1[:, [0, 2, 3]])

    def test_kept_columns_match_column_sums(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            a1 = rng.uniform(0, 1, size=(4, 6))
            a1[:, rng.random(6) < 0.4] = 0.0
            if a1.sum() == 0:
                continue
            _, mask = strip_zero_columns(a1)
            expected = tuple(int(j) for j in np.flatnonzero(a1.sum(axis=0) > 0))
            assert mask.kept_columns == expected

    def test_all_zero_raises(self):
        with pytest.raises(ZeroMatrixError, match="zero matrix"):
            strip_zero_columns(np.zeros((2, 3)))


class TestReinsertZeroColumns:
    def test_nothing_dropped(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = ZeroColumnMask(2, (0, 1))
        assert np.array_equal(reinsert_zero_columns(v, mask), v)

    def test_zero_column_goes_back(self):
        v = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        mask = ZeroColumnMask(4, (0, 2, 3))
        out = reinsert_zero_columns(v, mask)
        assert out.shape == (2, 4)
        assert np.array_equal(out[:, 1], [0.0, 0.0])
        assert np.array_equal(out[:, [0, 2, 3]], v)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            reinsert_zero_columns(np.eye(2), ZeroColumnMask(4, (0, 1, 2)))

    def test_reconstruction_through_full_run(self):
        a1 = np.array(
            [[1, 0, 2, 0, 3], [2, 0, 1, 0, 1], [3, 0, 3, 0, 4]], dtype=float
        )
        result = factorize(a1)
        assert result.mask.dropped_columns == (1, 3)
        assert np.array_equal(result.V[:, 1], np.zeros(result.p))
        assert residual_inf(a1, result.F, result.V) <= 1e-9


class TestBuildF:
    def test_node_columns_scale_to_one(self):
        result = factorize(MINLAT_6X6)
        for k, node in enumerate(result.nodes):
            expected = MINLAT_6X6[:, node] / result.V[k, node]
            assert np.allclose(result.F[:, k], expected)

    def test_identity_input_returns_input(self):
        result = factorize(np.eye(3))
        assert np.array_equal(result.F, np.eye(3))
        assert np.array_equal(result.V, np.eye(3))
        assert result.classification is Classification.TRIVIAL

    def test_direct_call(self):
        vectors = np.array([[2.0, 0.0], [0.0, 4.0]])
        a = np.array([[2.0, 4.0], [6.0, 8.0]])
        f = build_f(a, vectors, (0, 1))
        assert np.array_equal(f, [[1.0, 1.0], [3.0, 2.0]])


class TestClassify:
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((2, 2, 7, 16), Classification.RANK_TWO),
            ((2, 2, 2, 5), Classification.RANK_TWO),
            ((5, 5, 5, 10), Classification.SUBLATTICE_RANK),
            ((3, 4, 6, 6), Classification.MINIMAL_LATTICE),
            ((3, 3, 6, 6), Classification.LATTICE_RANK),
            ((3, 6, 6, 6), Classification.TRIVIAL),
            ((2, 2, 2, 2), Classification.TRIVIAL),
            ((1, 1, 1, 4), Classification.SUBLATTICE_RANK),
        ],
    )
    def test_cases(self, args, expected):
        assert classify(*args) is expected

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            classify(3, 2, 4, 6)


class TestResidualInf:
    def test_exact_product(self):
        f = np.array([[1.0, 2.0], [0.0, 1.0]])
        v = np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert residual_inf(f @ v, f, v) == 0.0

    def test_worked_5x4(self):
        assert residual_inf(NRF_5X4, NRF_5X4_F, NRF_5X4_V) <= 1e-12

    def test_perturbation_matches_direct_computation(self):
        rng = np.random.default_rng(83)
        f = rng.uniform(0, 2, size=(4, 3))
        v = rng.uniform(0, 2, size=(3, 5))
        a = f @ v
        e = rng.uniform(-1, 1, size=v.shape) * 1e-3
        expected = float(np.abs(f @ e).max())
        assert abs(residual_inf(a, f, v + e) - expected) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual_inf(np.eye(2), np.eye(2), np.eye(3))


class TestFactorizeGolden:
    def test_minlat_6x6(self):
        result = factorize(MINLAT_6X6)
        assert result.p == 4
        assert result.basic_rows == (0, 1, 2)
        assert set(result.nodes) == {0, 2, 4, 5}
        assert result.mu == 6
        assert result.residual_inf <= 1e-8
        assert result.classification is Classification.MINIMAL_LATTICE

    def test_sublat_8x10(self):
        result = factorize(SUBLAT_8X10)
        assert result.p == 5
        assert result.basic_rows == SUBLAT_8X10_BASIC_ROWS
        assert result.classification is Classification.SUBLATTICE_RANK
        assert match_rows_up_to_scale(result.V, SUBLAT_8X10_BASIS, 1e-10) is not None
        assert result.residual_inf <= 1e-10

    def test_rank2(self):
        a = np.vstack([RANK2_ROWS, RANK2_ROWS[0] + RANK2_ROWS[1]])
        result = factorize(a)
        assert result.p == 2
        assert result.nodes == (15, 7)
        assert result.classification is Classification.RANK_TWO

    def test_minlat_8x11(self):
        result = factorize(MINLAT_8X11)
        assert result.p == 7
        assert result.r == 4
        assert result.p - result.r == 3
        assert result.residual_inf <= 1e-6
        assert result.classification is Classification.MINIMAL_LATTICE

    def test_nrf_5x4(self):
        result = factorize(NRF_5X4)
        assert result.p == 3
        assert result.classification is Classification.LATTICE_RANK
        assert factors_match(result.F, result.V, NRF_5X4_F, NRF_5X4_V, 1e-9)
        assert result.residual_inf <= 1e-12

    def test_diagblock_6x6(self):
        result = factorize(DIAGBLOCK_6X6)
        assert result.p == 3
        assert set(result.nodes) == DIAGBLOCK_6X6_NODES
        assert result.classification is Classification.LATTICE_RANK
        assert result.residual_inf <= 1e-8
        assert match_rows_up_to_scale(result.V, DIAGBLOCK_6X6_V, 1e-9) is not None


class TestFactorizeEdges:
    def test_rank_one_matrix(self):
        a = np.outer([1.0, 2.0, 0.5], [1.0, 3.0, 2.0, 4.0])
        result = factorize(a)
        assert result.p == 1
        assert result.mu == 1
        assert result.classification is Classification.SUBLATTICE_RANK
        assert result.residual_inf <= 1e-12

    def test_zero_rows_are_fine(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 4.0]])
        result = factorize(a)
        assert np.array_equal(result.F[1], np.zeros(result.p))
        assert result.residual_inf <= 1e-12

    def test_single_row(self):
        result = factorize(np.array([[1.0, 2.0, 3.0]]))
        assert result.p == 1
        assert result.residual_inf == 0.0

    def test_single_column(self):
        result = factorize(np.array([[1.0], [2.0]]))
        assert result.p == 1
        assert result.classification is Classification.TRIVIAL

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"A\[1, 0\]"):
            factorize(np.array([[1.0, 2.0], [-0.5, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            factorize(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_bad_entries_carry_their_position(self):
        for a, entry in [
            (np.array([[1.0, 2.0, 0.0], [3.0, -0.5, -0.25]]), "negative entry -0.5"),
            (np.array([[1.0, 2.0, 0.0], [3.0, np.nan, np.inf]]), "non-finite entry"),
        ]:
            with pytest.raises(InvalidEntryError) as info:
                factorize(a)
            assert (info.value.row, info.value.column, info.value.entry) == (1, 1, entry)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            factorize(np.zeros((3, 3)))

    def test_input_is_checked_once(self, monkeypatch):
        # factorize checks A's entries; the stages it hands A to do not
        # check them again.
        a = np.array(MINLAT_8X11, dtype=float)
        check = importlib.import_module("latticenmf.linalg").as_matrix
        calls = []

        def spy(values, *args):
            calls.append(values is a)
            return check(values, *args)

        for name in ("basic", "factorize", "lattice", "linalg", "polytope", "simplex"):
            module = importlib.import_module(f"latticenmf.{name}")
            if hasattr(module, "as_matrix"):
                monkeypatch.setattr(module, "as_matrix", spy)
        factorize(a)
        assert calls.count(True) == 1

    def test_warning_when_dimension_not_reduced(self):
        result = factorize(np.eye(3))
        assert any("does not reduce dimension" in w for w in result.warnings)

    def test_strict_mode_aborts(self):
        with pytest.raises(IntermediateDimensionError):
            factorize(np.eye(3), strict=True)

    def test_strict_mode_passes_reducing_input(self):
        result = factorize(MINLAT_6X6, strict=True)
        assert result.p == 4

    def test_deterministic(self):
        first = factorize(MINLAT_8X11)
        second = factorize(MINLAT_8X11)
        assert np.array_equal(first.F, second.F)
        assert np.array_equal(first.V, second.V)
        assert first.nodes == second.nodes

    def test_singular_basis_raises_with_stage_basis(self, monkeypatch):
        # Column 1's weights are moved onto one vertex, so its residual
        # exceeds the bound and the block solve runs; it gets all-ones
        # vertices, so V_r has rank 1.
        blocks = PIPELINE.positive_basis_by_blocks
        _misplace_column_one(monkeypatch)
        monkeypatch.setattr(
            PIPELINE,
            "positive_basis_by_blocks",
            lambda vs, *a: blocks(dataclasses.replace(vs, vertices=np.ones_like(vs.vertices)), *a),
        )
        with pytest.raises(SingularMatrixError) as info:
            factorize(MINLAT_6X6)
        assert info.value.stage == "basis"

    def test_timings_cover_stages(self):
        result = factorize(MINLAT_6X6)
        for stage in ("strip", "basic_set", "vertices", "basis", "nodes", "assemble"):
            assert stage in result.timings_ms


class TestFactorizeProperties:
    def test_dimension_chain_on_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 8))
            m = int(rng.integers(k, 8))
            a = rng.uniform(0, 2, size=(n, k)) @ rng.uniform(0, 2, size=(k, m))
            result = factorize(a)
            assert rank_of(a) <= result.p
            assert result.r <= result.p <= result.mu <= m
            assert result.F.min() >= 0.0
            assert result.V.min() >= 0.0
            assert result.residual_inf <= 1e-6 * (1.0 + a.max())

    def test_node_structure_in_original_coordinates(self):
        a1 = np.array(
            [[1, 0, 2, 0, 3], [2, 0, 1, 0, 1], [3, 0, 3, 0, 4]], dtype=float
        )
        result = factorize(a1)
        for k, node in enumerate(result.nodes):
            assert result.V[k, node] > 0.0
            for j in range(result.p):
                if j != k:
                    assert result.V[j, node] == 0.0


class TestBasisFromWeights:
    def _inputs(self):
        yield from DATA_MATRICES
        yield from (_with_zero_columns(a, 2) for a in DATA_MATRICES)
        state = np.random.default_rng(97)
        for _ in range(10):
            k = int(state.integers(2, 6))
            a = state.uniform(0, 2, size=(8, k)) @ state.uniform(0, 2, size=(k, 40))
            yield _with_zero_columns(a, int(state.integers(2, 9)))

    def test_nodes_are_the_vertex_columns_with_their_column_sums(self):
        for a in self._inputs():
            result = factorize(a)
            stripped, mask = strip_zero_columns(a)
            basic = select_basic_set(stripped)
            table = basic_function(basic.X)
            rng = distinct_values(table)
            hull = segment_vertices(table) if basic.r == 2 else hull_vertices(rng)
            assert result.nodes_stripped == reorder_vertices(hull).source_columns
            assert result.nodes == result.vertex_source_columns
            for k, node in enumerate(result.nodes_stripped):
                expected = table.sums[node] * (2.0 if k >= result.r else 1.0)
                assert result.V[k, mask.kept_columns[node]] == expected
                others = np.delete(result.V[:, mask.kept_columns[node]], k)
                assert not others.any()

    def test_basic_rows_match_the_stripped_matrix(self, monkeypatch):
        seen = []
        function = PIPELINE.basic_function

        def spy(x):
            seen.append(x)
            return function(x)

        monkeypatch.setattr(PIPELINE, "basic_function", spy)
        for a in self._inputs():
            result = factorize(a)
            basic = select_basic_set(strip_zero_columns(a)[0])
            assert result.basic_rows == basic.row_indices
            assert np.array_equal(seen.pop(), basic.X)

    def test_residual_matches_residual_inf(self):
        for a in self._inputs():
            result = factorize(a)
            expected = residual_inf(a, result.F, result.V)
            assert abs(result.residual_inf - expected) <= 1e-15 * (1.0 + a.max())

    def test_worked_matrices_make_no_block_solve(self, monkeypatch):
        calls = _block_solve_calls(monkeypatch)
        for a in DATA_MATRICES:
            factorize(a)
        assert calls == []

    def test_a_column_over_the_bound_gets_its_block_solve(self, monkeypatch):
        calls = _block_solve_calls(monkeypatch)
        _misplace_column_one(monkeypatch)
        result = factorize(MINLAT_6X6)
        assert [x.shape for x in calls] == [(3, 1)]
        assert np.array_equal(calls[0][:, 0], MINLAT_6X6[list(result.basic_rows), 1])
        assert result.warnings == ()
        assert result.V.min() >= 0.0
        assert residual_inf(MINLAT_6X6, result.F, result.V) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-14, 1e-10, 1e-8, 1e-6, 1e-4, 1.0, 1e8, 1e14])
    def test_scaled_input_keeps_its_factorization(self, scale):
        a = MINLAT_6X6 * scale
        result = factorize(a)
        assert result.p == 4
        assert result.nodes == factorize(MINLAT_6X6).nodes
        assert result.warnings == ()
        assert result.F.min() >= 0.0
        assert result.V.min() >= 0.0
        assert result.residual_inf <= 1e-8 * (1.0 + a.max())
