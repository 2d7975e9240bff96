import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latticenmf import (
    BasicFunctionTable,
    InvalidEntryError,
    ZeroColumnError,
    basic,
    basic_function,
    distinct_values,
    rank_of,
    select_basic_set,
)

from data import MINLAT_6X6, NRF_5X4, SUBLAT_8X10
from oracles import distinct_values_claims, distinct_values_loop, isolated_points_loop


def test_select_basic_set_keeps_scan_order():
    basic = select_basic_set(MINLAT_6X6)
    assert basic.row_indices == (0, 1, 2)
    assert basic.r == 3
    assert np.array_equal(basic.X, MINLAT_6X6[:3])


def test_select_basic_set_rejects_non_finite():
    with pytest.raises(InvalidEntryError):
        select_basic_set([[1.0, 2.0], [np.inf, 1.0]])


def test_basic_function_worked_6x6():
    table = basic_function(MINLAT_6X6[:3])
    assert np.array_equal(table.sums, [1, 8, 2, 11, 4, 1])
    assert np.allclose(table.points[3], [2 / 11, 4 / 11, 5 / 11])


def test_basic_function_identity_gives_unit_points():
    table = basic_function(np.eye(3))
    assert np.array_equal(table.points, np.eye(3))


def test_basic_function_worked_5x4():
    table = basic_function(NRF_5X4[:3])
    assert np.allclose(table.points[2], [0.4, 0.2, 0.4])


def test_basic_function_zero_column_raises():
    with pytest.raises(ZeroColumnError, match="zero column"):
        basic_function(np.array([[1.0, 0.0], [2.0, 0.0]]))


@given(arrays(np.float64, (3, 7), elements=st.floats(0.1, 10.0)))
def test_points_stay_on_simplex(x):
    table = basic_function(x)
    assert table.points.min() >= 0.0
    assert np.abs(table.points.sum(axis=1) - 1.0).max() <= 1e-9


def test_scaling_leaves_table_unchanged():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 5.0, size=(3, 6))
    base = basic_function(x)
    # Powers of two rescale exactly; a general factor only up to rounding.
    for c in (2.0, 0.5, 4096.0):
        scaled = basic_function(c * x)
        assert np.array_equal(scaled.points, base.points)
    scaled = basic_function(3.0 * x)
    assert np.abs(scaled.points - base.points).max() <= 1e-15


def test_distinct_values_worked_8x10():
    table = basic_function(SUBLAT_8X10[[0, 1, 2, 3, 5]])
    rng = distinct_values(table)
    assert rng.mu == 5
    groups = {}
    for col, uid in enumerate(rng.membership):
        groups.setdefault(uid, []).append(col)
    assert sorted(groups.values()) == [[0, 2, 9], [1], [3, 7], [4, 6], [5, 8]]
    assert rng.representative_column == (0, 1, 3, 4, 5)
    assert not rng.merged_inexact


def test_distinct_values_worked_6x6_all_different():
    rng = distinct_values(basic_function(MINLAT_6X6[:3]))
    assert rng.mu == 6


def test_distinct_values_rank_one_collapses():
    x = np.outer([2.0], [1.0, 2.0, 3.0])
    rng = distinct_values(basic_function(x))
    assert rng.mu == 1
    assert rng.membership == (0, 0, 0)


def test_distinct_values_flags_inexact_merges():
    table = basic_function(np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]]))
    rng = distinct_values(table, tol_dedup=1e-9)
    assert rng.mu == 1
    assert rng.merged_inexact


def test_unique_points_span_has_full_rank():
    # The matrix with the unique points as columns always has rank r.
    rng_state = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng_state.integers(1, 4))
        x = rng_state.uniform(0.1, 4.0, size=(k, 8))
        rng = distinct_values(basic_function(x))
        assert rank_of(rng.unique_points.T) == rank_of(x)


def test_mu_invariant_under_column_permutation():
    rng_state = np.random.default_rng(17)
    x = rng_state.integers(0, 4, size=(3, 8)).astype(float) + 0.5
    base = distinct_values(basic_function(x)).mu
    for _ in range(10):
        perm = rng_state.permutation(8)
        assert distinct_values(basic_function(x[:, perm])).mu == base


def test_distinct_values_matches_the_column_scan_on_near_duplicate_chains():
    # Chains stepping 0.6 * tol: a point merges with its predecessor's unique
    # only when that unique is within tol, so which points represent a chain
    # depends on the scan order, and first-wins must be kept exactly.
    tol = 1e-9
    state = np.random.default_rng(19)
    for trial in range(40):
        r = int(state.integers(2, 6))
        chains = []
        for _ in range(int(state.integers(1, 5))):
            start = state.dirichlet(np.ones(r))
            step = np.zeros(r)
            step[int(state.integers(0, r))] = 0.6 * tol
            chains.append(start + np.arange(int(state.integers(2, 9)))[:, None] * step)
        points = np.vstack(chains)
        if trial % 2:
            points = points[state.permutation(len(points))]
        table = BasicFunctionTable(points=points, sums=np.ones(len(points)))
        got = distinct_values(table, tol_dedup=tol)
        uniques, representatives, membership, merged_inexact = distinct_values_loop(points, tol)
        assert np.array_equal(got.unique_points, uniques)
        assert got.representative_column == representatives
        assert got.membership == membership
        assert got.merged_inexact == merged_inexact


def _mixed_shares(state, tol):
    """Isolated points, exact repeats, chains stepping 0.6..1.4 * tol, and
    points sharing a first coordinate while far apart in the others."""
    r = int(state.integers(2, 6))
    parts = [state.dirichlet(np.ones(r), size=int(state.integers(1, 12)))]
    for _ in range(int(state.integers(0, 4))):
        start = state.dirichlet(np.ones(r))
        step = np.zeros(r)
        step[int(state.integers(0, r))] = state.uniform(0.6, 1.4) * tol
        parts.append(start + np.arange(int(state.integers(2, 7)))[:, None] * step)
    parts.append(parts[0][state.integers(0, len(parts[0]), size=3)])
    shared = state.dirichlet(np.ones(r), size=3)
    shared[:, 0] = parts[0][0, 0]
    parts.append(shared)
    points = np.vstack(parts)
    return points[state.permutation(len(points))]


def test_sorted_runs_agree_with_the_pairwise_distances():
    tol = 1e-9
    state = np.random.default_rng(71)
    for _ in range(100):
        points = _mixed_shares(state, tol)
        order, starts, spread = basic._sorted_runs(points, tol)
        # Runs are cut exactly where a step in the first coordinate exceeds tol.
        steps = np.diff(points[order, 0]) > tol
        assert np.array_equal(np.flatnonzero(steps) + 1, starts[1:]) and starts[0] == 0
        run = np.empty(len(points), dtype=int)
        run[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=len(points)))
        distance = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
        # Points of different runs are farther apart than the tolerance.
        assert (distance[run[:, None] != run[None, :]] > tol).all()
        # A run with its spread within the tolerance is pairwise within it.
        for k in np.flatnonzero(spread <= tol):
            members = run == k
            assert (distance[np.ix_(members, members)] <= tol).all()


def test_isolated_points_are_isolated_in_the_pairwise_loop():
    tol = 1e-9
    state = np.random.default_rng(71)
    for _ in range(100):
        points = _mixed_shares(state, tol)
        order, starts, _ = basic._sorted_runs(points, tol)
        lone = np.zeros(len(points), dtype=bool)
        lone[order[starts[np.diff(starts, append=len(points)) == 1]]] = True
        # A lone point is isolated.
        truth = isolated_points_loop(points, tol)
        assert all(t for g, t in zip(lone, truth) if g)
        # Points apart in the first coordinate are found exactly.
        apart = np.abs(points[:, None, 0] - points[None, :, 0]) > tol
        np.fill_diagonal(apart, True)
        assert np.array_equal(lone, apart.all(axis=1))


def _assert_matches(points, tol, oracle=distinct_values_loop):
    got = distinct_values(BasicFunctionTable(points=points, sums=np.ones(len(points))), tol)
    uniques, representatives, membership, merged_inexact = oracle(points, tol)
    assert np.array_equal(got.unique_points, uniques)
    assert got.representative_column == representatives
    assert got.membership == membership
    assert got.merged_inexact == merged_inexact


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
def test_distinct_values_matches_the_column_scan_on_clusters_around_the_tolerance(tol):
    # Clusters spread over 0.5, 0.99, 1.0 and 1.01 times the tolerance are
    # one tight run or a wide run; points sharing a first coordinate far
    # apart in the others form a wide run; exact repeats form tight runs.
    state = np.random.default_rng(79)
    for _ in range(60):
        r = int(state.integers(2, 6))
        parts = []
        for factor in (0.5, 0.99, 1.0, 1.01):
            for center in state.dirichlet(np.ones(r), size=int(state.integers(1, 4))):
                offsets = state.uniform(0.0, 1.0, size=(int(state.integers(2, 6)), r))
                offsets[:2] = np.eye(2, r)[state.permutation(2)]
                parts.append(center + factor * max(tol, 1e-9) * offsets)
        shared = state.dirichlet(np.ones(r), size=4)
        shared[:, 0] = parts[0][0, 0]
        parts.append(shared)
        base = np.vstack(parts)
        parts.append(base[state.integers(0, len(base), size=5)])
        points = np.vstack(parts)
        _assert_matches(points[state.permutation(len(points))], tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
def test_distinct_values_matches_the_claim_loop_on_many_clusters(tol):
    # 20000 columns repeating 2000 shares, each rescaled so that the
    # normalized repeats agree only up to rounding.
    state = np.random.default_rng(83)
    shares = state.dirichlet(np.full(4, 20.0), size=2000)
    x = shares[state.integers(0, 2000, size=20000)].T * state.uniform(50.0, 500.0, size=20000)
    _assert_matches(basic_function(x).points, tol, distinct_values_claims)


def test_distinct_values_matches_the_column_scan_with_isolated_points():
    tol = 1e-9
    state = np.random.default_rng(73)
    for _ in range(272):
        points = _mixed_shares(state, tol)
        got = distinct_values(BasicFunctionTable(points=points, sums=np.ones(len(points))), tol)
        uniques, representatives, membership, merged_inexact = distinct_values_loop(points, tol)
        assert np.array_equal(got.unique_points, uniques)
        assert got.representative_column == representatives
        assert got.membership == membership
        assert got.merged_inexact == merged_inexact
