from itertools import combinations, islice, permutations, product

import numpy as np
import pytest

import latticenmf
from latticenmf import (
    FeasibilityProblem,
    SimplexCheckError,
    SimplexStalledError,
    SpanDeficiencyError,
    Tolerances,
    VertexSet,
    basic_function,
    distinct_values,
    factorize,
    hull_vertices,
    is_extreme_point,
    phase_one_feasible,
    rank_of,
    reorder_vertices,
    segment_vertices,
)
from latticenmf.simplex import convex_combination

from data import MINLAT_6X6, MINLAT_8X11, NRF_5X4, RANK2_ROWS
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
        # The first point lies 3e-9 from the centroid, where a direction from
        # the centroid to it is tiny and scores along it tie; interior points
        # must still not end up among the vertices.
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


def _point_by_point_pass(rng, tol_feas=1e-9):
    """Unique indices of the vertices found by the hull pass that tests one
    point at a time, each until it is interior or confirmed, from the single
    start direction point 0 minus the centroid, then a last pass that drops,
    one at a time, each confirmed point in the hull of those still kept."""
    points = rng.unique_points
    tie_tol = tol_feas * (1.0 + float(np.abs(points).max()))
    confirmed = np.zeros(len(points), dtype=bool)

    def extreme_along(w):
        scores = points @ w
        scores[confirmed] = -np.inf
        tied = np.flatnonzero(scores >= scores.max() - tie_tol * float(np.abs(w).max()))
        return int(tied[np.lexsort(points[tied].T[::-1])[-1]])

    confirmed[extreme_along(points[0] - points.mean(axis=0))] = True
    for i in range(len(points)):
        while not confirmed[i]:
            test = convex_combination(points[i], points[confirmed], tol_feas)
            if test.feasible:
                break
            confirmed[extreme_along(test.dual[:-1])] = True
    # One confirmed point at a time, against the ones still kept: a corner and
    # its near copy can each lie within tolerance of the other's hull, and
    # testing them together would drop both.
    found = list(np.flatnonzero(confirmed))
    for j in list(found):
        others = [i for i in found if i != j]
        if not is_extreme_point(points[j], points[others], tol_feas):
            found.remove(j)
    return found


def _rounds_pass(rng):
    """Unique indices of the vertices ``hull_vertices`` keeps."""
    return [rng.representative_column.index(c) for c in hull_vertices(rng).source_columns]


def _small_sets(state, count):
    for _ in range(count):
        r = int(state.integers(3, 6))
        points = state.dirichlet(np.ones(r), size=int(state.integers(r, 25)))
        yield distinct_values(basic_function(points.T))


def _near_corner_sets(state, count):
    """Corners plus one point 1e-8..1e-7 along every edge from each corner,
    each carried by a column with a random scale."""
    for _ in range(count):
        r = int(state.integers(3, 6))
        corners = state.dirichlet(np.ones(r), size=int(state.integers(r, 7)))
        near = [
            corners[i] + state.uniform(1e-8, 1e-7) * (corners[j] - corners[i])
            for i, j in permutations(range(len(corners)), 2)
        ]
        points = np.vstack([corners, near])[state.permutation(len(corners) * len(corners))]
        scales = state.uniform(0.5, 20.0, size=len(points))
        yield distinct_values(basic_function((points * scales[:, None]).T))


def _recording_certificates(monkeypatch):
    """Patch ``hull_vertices`` to record each certificate it finds, as the
    unique index of the point and the direction, in ``record["certified"]``,
    and the points confirmed at its first stacked solve in ``record["seeded"]``."""
    record = {"certified": [], "seeded": None}
    certify, stacked = latticenmf.polytope._certify, latticenmf.polytope.convex_combinations

    def recorded_certify(scores, w, tie_tol):
        winners, proven = certify(scores, w, tie_tol)
        record["certified"].extend(zip(winners[proven].tolist(), w[proven]))
        return winners, proven

    def recorded_stack(points, pts, *args, **kwargs):
        if record["seeded"] is None:
            record["seeded"] = {tuple(p) for p in pts}
        return stacked(points, pts, *args, **kwargs)

    monkeypatch.setattr(latticenmf.polytope, "_certify", recorded_certify)
    monkeypatch.setattr(latticenmf.polytope, "convex_combinations", recorded_stack)
    return record


class TestRounds:
    @staticmethod
    def _counting(monkeypatch):
        """Patch the hull pass to record each stacked solve as ``(points
        tested, points tested against, result)`` in ``calls["stacked"]`` and
        each result checked for a fault in ``calls["checked"]``, and to count
        kernel and one-problem calls."""
        calls = {"stacked": [], "checked": [], "kernel": 0, "single": 0}
        stacked, kernel, single, check = (
            latticenmf.polytope.convex_combinations,
            latticenmf.simplex.solve_stack,
            latticenmf.simplex.phase_one_feasible,
            latticenmf.simplex.StackResult.raise_fault,
        )

        def counted_stack(points, pts, tol_feas=1e-9):
            out = stacked(points, pts, tol_feas)
            calls["stacked"].append((points, pts, out))
            return out

        def counted_check(result, p):
            calls["checked"].append(result)
            return check(result, p)

        def counted_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return kernel(*args, **kwargs)

        def counted_single(*args, **kwargs):
            calls["single"] += 1
            return single(*args, **kwargs)

        monkeypatch.setattr(latticenmf.polytope, "convex_combinations", counted_stack)
        monkeypatch.setattr(latticenmf.simplex.StackResult, "raise_fault", counted_check)
        monkeypatch.setattr(latticenmf.simplex, "solve_stack", counted_kernel)
        monkeypatch.setattr(latticenmf.simplex, "phase_one_feasible", counted_single)
        return calls

    def test_one_kernel_call_per_round_and_per_uncertified_point(self, monkeypatch):
        # The last pass runs only when a confirmed point is uncertified. It
        # tests each uncertified confirmed point alone, in index order,
        # against the confirmed points still kept, and drops it when that
        # test is feasible. It checks every result for a fault; a round
        # checks only when it gives no pick, which no set here does. Every
        # certified point is kept.
        state = np.random.default_rng(139)
        with_last = without_last = 0
        for rng in [*_small_sets(state, 30), *_near_corner_sets(state, 30)]:
            calls = self._counting(monkeypatch)
            record = _recording_certificates(monkeypatch)
            vs = hull_vertices(rng)
            index = {tuple(p): i for i, p in enumerate(rng.unique_points)}
            rounds, last = [], []
            for points, pts, out in calls["stacked"]:
                tested, against = ({index[tuple(p)] for p in q} for q in (points, pts))
                checked = any(out is c for c in calls["checked"])
                (last if checked else rounds).append((tested, against, out))
            certified = {p for p, _ in record["certified"]}
            kept = {index[tuple(v)] for v in vs.vertices}
            assert calls["kernel"] == len(calls["stacked"])
            assert calls["single"] == 0
            # Each round tests a strict subset of the points of the round before.
            assert all(later[0] < earlier[0] for earlier, later in zip(rounds, rounds[1:]))
            assert certified <= kept
            if last:
                tested, against, _ = last[0]
                confirmed = tested | against
                assert [t for t, _, _ in last] == [{i} for i in sorted(confirmed - certified)]
                still_kept = set(confirmed)
                for tested, against, out in last:
                    still_kept -= tested
                    assert against == still_kept
                    if out.status[0] == latticenmf.simplex.INFEASIBLE:
                        still_kept |= tested
                assert kept == still_kept
                assert kept <= confirmed
                with_last += 1
            else:
                assert kept == certified
                without_last += 1
            monkeypatch.undo()
        assert with_last and without_last

    def test_a_lone_point_is_certified_with_no_solve(self, monkeypatch):
        # A rank-1 input has one unique share. With no other point to beat
        # it is certified, so the last pass has nothing to solve.
        calls = self._counting(monkeypatch)
        result = factorize(np.outer([1.0, 2.0, 3.0], [1.0, 4.0, 0.0, 2.0]))
        assert result.p == 1
        assert calls["stacked"] == []
        assert calls["kernel"] == 0

    def test_failed_tests_raise_with_no_solve_alone(self, monkeypatch):
        # Every stacked test reports a fault: the first stacked solve of a set
        # (a round or the last pass) raises the first failed test's fault, and
        # no problem goes to the one-problem solver.
        state = np.random.default_rng(149)
        stacked = latticenmf.polytope.convex_combinations
        single = latticenmf.simplex.phase_one_feasible
        calls = {"stacked": 0, "single": 0}

        def failing(*args, **kwargs):
            calls["stacked"] += 1
            out = stacked(*args, **kwargs)
            out.status[:] = latticenmf.simplex.NO_PIVOT_ROW
            return out

        def counted_single(*args, **kwargs):
            calls["single"] += 1
            return single(*args, **kwargs)

        monkeypatch.setattr(latticenmf.polytope, "convex_combinations", failing)
        monkeypatch.setattr(latticenmf.simplex, "phase_one_feasible", counted_single)
        raised = 0
        for rng in _small_sets(state, 10):
            calls["stacked"] = 0
            try:
                hull_vertices(rng)
            except SimplexStalledError as error:
                assert str(error) == "simplex stalled: no admissible pivot row"
                assert calls["stacked"] == 1
                raised += 1
            else:
                assert calls["stacked"] == 0
        assert raised and calls["single"] == 0

    def test_a_fault_no_round_can_pass_raises_with_stage_vertices(self, monkeypatch):
        stacked = latticenmf.polytope.convex_combinations

        def failing(*args, **kwargs):
            out = stacked(*args, **kwargs)
            out.status[:] = latticenmf.simplex.MISSED_EQUATIONS
            return out

        monkeypatch.setattr(latticenmf.polytope, "convex_combinations", failing)
        with pytest.raises(SimplexCheckError) as raised:
            factorize(MINLAT_8X11)
        assert raised.value.stage == "vertices"

    def test_near_corner_points_match_the_point_by_point_pass(self):
        # Corners plus one point 1e-8..1e-7 along every edge from each corner.
        # Both passes can fail here (the absolute pivot tolerance); the
        # rounds must not fail more often. Wherever both return, they keep
        # as many vertices, each within 1e-7 of one the other keeps: the
        # passes may keep different points of a corner and its near copies.
        state = np.random.default_rng(151)
        raised = {"point_by_point": 0, "rounds": 0}
        both = 0
        for rng in _near_corner_sets(state, 100):
            found = {}
            for name, run in (("point_by_point", _point_by_point_pass), ("rounds", _rounds_pass)):
                try:
                    found[name] = rng.unique_points[run(rng)]
                except SimplexCheckError:
                    raised[name] += 1
            if len(found) < 2:
                continue
            both += 1
            expected, got = found["point_by_point"], found["rounds"]
            assert len(got) == len(expected)
            distance = np.abs(expected[:, None] - got[None]).max(axis=2)
            assert distance.min(axis=0).max() <= 1e-7 and distance.min(axis=1).max() <= 1e-7
        assert raised["rounds"] <= raised["point_by_point"]
        assert both >= 80

    @pytest.mark.parametrize("seed, index", [(147, 28), (106, 44)])
    def test_a_point_found_interior_is_never_picked(self, seed, index):
        # On these sets a round used to pick a point an earlier round had
        # found interior; the last pass then tested it together with the
        # vertex it nearly copies and dropped both.
        rng = next(islice(_near_corner_sets(np.random.default_rng(seed), 100), index, None))
        expected = rng.unique_points[_point_by_point_pass(rng)]
        got = rng.unique_points[_rounds_pass(rng)]
        assert len(got) == len(expected)
        distance = np.abs(expected[:, None] - got[None]).max(axis=2)
        assert distance.min(axis=0).max() <= 1e-7 and distance.min(axis=1).max() <= 1e-7

    def test_a_vertex_and_its_near_copy_are_not_dropped_together(self):
        # Column 3 is column 0 moved 4e-9 along the edge towards column 1 and
        # 1e-9 outward. Both are extremes of a coordinate and neither is
        # certified; with tol_feas 1e-7 each lies in the hull of the others.
        # Only the first tested, column 0, is dropped: column 3 is then
        # tested against the points still kept, outside their hull.
        x = np.array(
            [
                [0.6, 0.2, 0.2, 0.599999997],
                [0.2, 0.6, 0.2, 0.200000004],
                [0.2, 0.2, 0.6, 0.199999999],
            ]
        )
        rng = distinct_values(basic_function(x))
        assert hull_vertices(rng, tol_feas=1e-7).source_columns == (1, 2, 3)
        a = np.vstack([x, x[0] + x[1]])
        result = factorize(a, Tolerances(feas=1e-7))
        assert result.p == 3
        assert result.vertex_source_columns == (1, 2, 3)
        assert result.warnings == ()
        # With the default tolerance neither lies in the hull of the others.
        result = factorize(a)
        assert result.p == 4
        assert result.vertex_source_columns == (0, 1, 2, 3)


class TestCertificates:
    @staticmethod
    def _runs(monkeypatch, seed):
        """``(rng, record, vertices)`` of ``hull_vertices`` on Dirichlet and
        near-corner sets (see ``_recording_certificates``); ``vertices`` is
        None where the pass raises, and what it recorded before still counts."""
        state = np.random.default_rng(seed)
        for rng in [*_small_sets(state, 30), *_near_corner_sets(state, 30)]:
            record = _recording_certificates(monkeypatch)
            try:
                vertices = {tuple(v) for v in hull_vertices(rng).vertices}
            except SimplexCheckError:
                vertices = None
            monkeypatch.undo()
            yield rng, record, vertices

    def test_certified_points_are_infeasible_by_the_certified_margin(self, monkeypatch):
        # A point that beats every other one on w by g has a phase-one
        # objective of at least g / |(w, c)|_inf against all the others,
        # where c is minus the runner-up's score, and that bound is above
        # the objective at which the solver declares a feasible point.
        checked = 0
        for rng, record, _ in self._runs(monkeypatch, 157):
            points = rng.unique_points
            for p, w in record["certified"]:
                others = np.delete(points, p, axis=0)
                c = -(others @ w).max()
                bound = (points[p] @ w + c) / max(np.abs(w).max(), abs(c))
                assert bound > 1e-9 * (1.0 + max(1.0, np.abs(points[p]).max()))
                test = convex_combination(points[p], others)
                assert not test.feasible
                assert test.infeasibility >= bound * (1.0 - 1e-9)
                checked += 1
        assert checked >= 500

    def test_seed_pass_confirms_only_vertices_of_the_point_by_point_pass(self, monkeypatch):
        # The points confirmed before the first solve, other than the
        # extremes of a coordinate, come from the pass along the directions
        # from the centroid: all certified, all kept by the point-by-point pass.
        compared = from_centroid = 0
        for rng, record, vertices in self._runs(monkeypatch, 163):
            points = rng.unique_points
            seeded = record["seeded"] if record["seeded"] is not None else vertices
            ends = (points == points.max(axis=0)) | (points == points.min(axis=0))
            along_centroid = seeded - {tuple(p) for p in points[ends.any(axis=1)]}
            assert along_centroid <= {tuple(points[p]) for p, _ in record["certified"]}
            try:
                expected = _point_by_point_pass(rng)
            except SimplexCheckError:
                continue
            assert along_centroid <= {tuple(p) for p in points[expected]}
            compared += 1
            from_centroid += len(along_centroid)
        assert compared >= 50 and from_centroid >= 30
