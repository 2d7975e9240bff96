from itertools import combinations, product

import numpy as np
import pytest

from latticenmf import (
    FeasibilityProblem,
    SpanDeficiencyError,
    VertexSet,
    basic_function,
    distinct_values,
    hull_vertices,
    is_extreme_point,
    phase_one_feasible,
    rank_of,
    reorder_vertices,
    segment_vertices,
)

from data import MINLAT_6X6, NRF_5X4, RANK2_ROWS
from oracles import hull_contains


class TestHullVertices:
    def test_worked_6x6(self):
        rng = distinct_values(basic_function(MINLAT_6X6[:3]))
        vs = hull_vertices(rng)
        assert vs.d == 4
        assert vs.source_columns == (0, 2, 4, 5)
        expected = {(1, 0, 0), (0.5, 0, 0.5), (0, 0.5, 0.5), (0, 1, 0)}
        assert {tuple(v) for v in vs.vertices} == expected

    def test_worked_5x4(self):
        rng = distinct_values(basic_function(NRF_5X4[:3]))
        vs = hull_vertices(rng)
        assert vs.d == 3
        assert vs.source_columns == (0, 1, 3)

    def test_single_point(self):
        rng = distinct_values(basic_function(np.array([[1.0, 2.0, 4.0]])))
        vs = hull_vertices(rng)
        assert vs.d == 1
        assert np.array_equal(vs.vertices, [[1.0]])

    def test_count_bounds_on_random_instances(self):
        state = np.random.default_rng(41)
        for _ in range(25):
            k = int(state.integers(1, 4))
            m = int(state.integers(k, 9))
            x = state.uniform(0.1, 3.0, size=(k, m))
            r = rank_of(x)
            rng = distinct_values(basic_function(x))
            vs = hull_vertices(rng)
            assert r <= vs.d <= rng.mu <= m

    def test_every_point_is_covered(self):
        state = np.random.default_rng(43)
        for _ in range(15):
            x = state.uniform(0.1, 3.0, size=(3, 8))
            table = basic_function(x)
            rng = distinct_values(table)
            vs = hull_vertices(rng)
            a_eq = np.vstack([vs.vertices.T, np.ones(vs.d)])
            for point in table.points:
                b_eq = np.concatenate([point, [1.0]])
                assert phase_one_feasible(FeasibilityProblem(a_eq, b_eq)).feasible

    def test_no_vertex_is_redundant(self):
        state = np.random.default_rng(47)
        for _ in range(10):
            x = state.uniform(0.1, 3.0, size=(3, 7))
            vs = hull_vertices(distinct_values(basic_function(x)))
            for i in range(vs.d):
                others = np.delete(vs.vertices, i, axis=0)
                assert not hull_contains(vs.vertices[i], others)

    def test_empty_input_is_named(self):
        rng = distinct_values(basic_function(np.ones((2, 0))))
        with pytest.raises(ValueError, match="distinct range is empty"):
            hull_vertices(rng)

    def test_vertex_set_invariant_under_column_permutation(self):
        state = np.random.default_rng(53)
        x = state.uniform(0.1, 3.0, size=(3, 8))
        base = hull_vertices(distinct_values(basic_function(x)))
        base_set = {tuple(np.round(v, 12)) for v in base.vertices}
        for _ in range(8):
            perm = state.permutation(8)
            vs = hull_vertices(distinct_values(basic_function(x[:, perm])))
            assert {tuple(np.round(v, 12)) for v in vs.vertices} == base_set


def _per_point_route(rng):
    """Unique indices that are extreme against all other unique points."""
    points = rng.unique_points
    return [
        i
        for i in range(rng.mu)
        if is_extreme_point(points[i], np.delete(points, i, axis=0))
    ]


def _both_routes(points, state):
    """Vertex indices of ``points`` (rows on the simplex, each carried by a
    column with a random scale) by the per-point route and by the hull pass."""
    scales = state.uniform(0.5, 20.0, size=len(points))
    rng = distinct_values(basic_function((points * scales[:, None]).T))
    got = [rng.representative_column.index(src) for src in hull_vertices(rng).source_columns]
    return _per_point_route(rng), got


def _on_circle(state, r, count):
    """``count`` evenly spaced points, at a random phase, on a circle around
    the barycentre in a random plane of the simplex, then the barycentre."""
    plane = state.standard_normal((r, 2))
    plane -= plane.mean(axis=0)
    q, _ = np.linalg.qr(plane)
    angles = state.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(count) / count
    radius = 0.8 / np.sqrt(r * (r - 1))
    circle = 1.0 / r + radius * (
        np.cos(angles)[:, None] * q[:, 0]
        + np.sin(angles)[:, None] * q[:, 1]
    )
    return np.vstack([circle, np.full(r, 1.0 / r)])


class TestHullPassMatchesPerPointRoute:
    def test_dirichlet_sets(self):
        state = np.random.default_rng(101)
        for r in range(3, 7):
            for _ in range(6):
                points = state.dirichlet(np.ones(r), size=int(state.integers(r, 30)))
                expected, got = _both_routes(points, state)
                assert got == expected

    def test_triangular_grids_with_collinear_boundary_points(self):
        state = np.random.default_rng(103)
        for r, n in [(3, 2), (3, 4), (3, 7), (4, 3), (5, 2)]:
            grid = np.array([c for c in product(range(n + 1), repeat=r) if sum(c) == n]) / n
            for _ in range(2):
                expected, got = _both_routes(grid[state.permutation(len(grid))], state)
                assert got == expected
                assert len(got) == r

    def test_cocircular_points_with_their_centre(self):
        state = np.random.default_rng(107)
        for r in range(3, 7):
            for count in (3, 5, 9):
                points = _on_circle(state, r, count)
                expected, got = _both_routes(points[state.permutation(len(points))], state)
                assert got == expected
                assert len(got) == count

    def test_edge_midpoints(self):
        state = np.random.default_rng(109)
        for r in range(3, 7):
            for d in (3, 5, 7):
                corners = state.dirichlet(np.ones(r), size=d)
                mids = [(corners[i] + corners[j]) / 2 for i, j in combinations(range(d), 2)]
                points = np.vstack([corners, mids])
                expected, got = _both_routes(points[state.permutation(len(points))], state)
                assert got == expected

    def test_first_point_next_to_the_centroid(self):
        # The first separating direction is then tiny, so ties are judged
        # relative to its length; near-maximal interior points it confirms
        # must still be dropped.
        state = np.random.default_rng(113)
        for _ in range(40):
            r = int(state.integers(3, 6))
            points = state.dirichlet(np.ones(r), size=int(state.integers(5, 20)))
            offset = state.standard_normal(r)
            offset -= offset.mean()
            first = points.mean(axis=0) + 3e-9 * offset / np.abs(offset).max()
            expected, got = _both_routes(np.vstack([first, points]), state)
            assert got == expected

    def test_point_just_inside_a_vertex_on_an_edge(self):
        # p sits 7e-9 from A' on the edge A'C, above the dedup tolerance.
        # Testing A against {C} gives a direction that scores A, A' and p
        # within the tie band, and p has the largest first coordinate.
        c, a, a2 = np.array([[0.9, 0.05, 0.05], [0.2, 0.8, 0.0], [0.6, 0.4, 0.0]])
        p = (1 - 2e-8) * a2 + 2e-8 * c
        expected, got = _both_routes(np.vstack([c, a, a2, p]), np.random.default_rng(127))
        assert expected == [0, 1, 2]
        assert got == expected

    def test_points_just_inside_vertices_on_edges(self):
        # One point 1e-8..1e-7 of the way along an edge from a corner. When
        # that is within a few tolerances of the corner, the per-point route
        # can lose the vertex to its near copy, so the check is that each of
        # its vertices is kept and the count equals that of the corners.
        state = np.random.default_rng(131)
        for _ in range(60):
            r = int(state.integers(3, 6))
            corners = state.dirichlet(np.ones(r), size=int(state.integers(r, 8)))
            i, j = state.choice(len(corners), 2, replace=False)
            near = corners[i] + state.uniform(1e-8, 1e-7) * (corners[j] - corners[i])
            points = np.vstack([corners, near])
            expected, got = _both_routes(points[state.permutation(len(points))], state)
            corner_count = sum(
                is_extreme_point(c, np.delete(corners, k, axis=0)) for k, c in enumerate(corners)
            )
            assert set(expected) <= set(got)
            assert len(got) == corner_count


class TestUniqueCoefficients:
    def test_rows_are_convex_weights_over_the_vertices(self):
        state = np.random.default_rng(137)
        for _ in range(20):
            r = int(state.integers(3, 6))
            points = state.dirichlet(np.ones(r), size=int(state.integers(r, 25)))
            rng = distinct_values(basic_function(points.T))
            vs = hull_vertices(rng)
            coeff = vs.unique_coefficients
            assert coeff.shape == (rng.mu, vs.d)
            assert coeff.min() >= 0.0
            assert np.abs(coeff.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(coeff @ vs.vertices - rng.unique_points).max() <= 1e-9
            vertex_values = [rng.membership[src] for src in vs.source_columns]
            assert np.array_equal(coeff[vertex_values], np.eye(vs.d))

    def test_reorder_permutes_the_columns_with_the_vertices(self):
        # The square corners of test_dependent_vertex_moves_back: the fifth
        # vertex moves in front of the fourth.
        vertices = np.array(
            [
                [0.2, 0.2, 0.2, 0.4],
                [0.2, 0.4, 0.0, 0.4],
                [0.4, 0.2, 0.0, 0.4],
                [0.4, 0.4, -0.2, 0.4],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        coeff = np.arange(15.0).reshape(3, 5)
        vs = VertexSet(vertices, (0, 1, 2, 3, 4), r=4, unique_coefficients=coeff)
        out = reorder_vertices(vs)
        assert out.source_columns == (0, 1, 2, 4, 3)
        assert np.array_equal(out.unique_coefficients, coeff[:, [0, 1, 2, 4, 3]])


class TestSegmentVertices:
    def test_worked_two_row_set(self):
        vs = segment_vertices(basic_function(RANK2_ROWS))
        assert vs.source_columns == (15, 7)
        assert np.allclose(vs.vertices[0], [0.2, 0.8])
        assert np.allclose(vs.vertices[1], [8 / 11, 3 / 11])

    def test_plain_endpoints(self):
        points = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        x = (points * np.array([4.0, 2.0, 10.0])[:, None]).T
        vs = segment_vertices(basic_function(x))
        assert np.allclose(vs.vertices, [[0.2, 0.8], [0.9, 0.1]])

    def test_agrees_with_hull_route_on_random_tables(self):
        state = np.random.default_rng(59)
        for _ in range(30):
            m = int(state.integers(2, 12))
            x = state.uniform(0.05, 5.0, size=(2, m))
            if rank_of(x) < 2:
                continue
            table = basic_function(x)
            seg = segment_vertices(table)
            hull = hull_vertices(distinct_values(table))
            seg_set = sorted(tuple(np.round(v, 12)) for v in seg.vertices)
            hull_set = sorted(tuple(np.round(v, 12)) for v in hull.vertices)
            assert seg_set == hull_set

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            segment_vertices(basic_function(np.eye(3)))

    def test_coincident_values_raise(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        with pytest.raises(SpanDeficiencyError):
            segment_vertices(basic_function(x))


class TestReorderVertices:
    def test_independent_prefix_stays_put(self):
        vs = VertexSet(
            vertices=np.array([[0, 0.5, 0.5], [0, 1, 0], [0.5, 0, 0.5], [1, 0, 0]]),
            source_columns=(4, 5, 2, 0),
            r=3,
        )
        out = reorder_vertices(vs)
        assert out.source_columns == vs.source_columns
        assert np.array_equal(out.vertices, vs.vertices)

    def test_dependent_vertex_moves_back(self):
        # Four coplanar square corners plus one point off their plane: the
        # fourth corner is a linear combination of the first three, so the
        # off-plane point is pulled into the prefix.
        def corner(x, y):
            return [x, y, 0.6 - x - y, 0.4]

        vertices = np.array(
            [
                corner(0.2, 0.2),
                corner(0.2, 0.4),
                corner(0.4, 0.2),
                corner(0.4, 0.4),
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        vs = VertexSet(vertices=vertices, source_columns=(0, 1, 2, 3, 4), r=4)
        out = reorder_vertices(vs)
        assert out.source_columns == (0, 1, 2, 4, 3)
        assert rank_of(out.vertices[:4]) == 4

    def test_first_r_rows_are_independent_on_random_instances(self):
        state = np.random.default_rng(61)
        for _ in range(20):
            k = int(state.integers(2, 5))
            x = state.uniform(0.1, 3.0, size=(k, 9))
            vs = hull_vertices(distinct_values(basic_function(x)))
            out = reorder_vertices(vs)
            assert rank_of(out.vertices[: out.r]) == out.r
            assert sorted(out.source_columns) == sorted(vs.source_columns)

    def test_span_deficiency_raises(self):
        vs = VertexSet(
            vertices=np.array([[1.0, 0.0], [2.0, 0.0]]),
            source_columns=(0, 1),
            r=2,
        )
        with pytest.raises(SpanDeficiencyError):
            reorder_vertices(vs)
