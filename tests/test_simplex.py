import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latticenmf import (
    FactorizationError,
    FeasibilityProblem,
    SimplexCheckError,
    SimplexStalledError,
    basic_function,
    distinct_values,
    hull_vertices,
    is_extreme_point,
    phase_one_feasible,
    simplex,
)
from latticenmf.simplex import convex_combination, convex_combinations

from data import MINLAT_6X6, MINLAT_6X6_VERTEX_ORDER
from oracles import brute_force_vertices, hull_contains


def _check_solution(a_eq, b_eq, x, tol=1e-9):
    assert x.min() >= -tol
    assert np.abs(a_eq @ x - b_eq).max() <= tol * (1.0 + np.abs(b_eq).max())


def _solver_verdict(a, b, x, tol_feas=1e-9):
    """One-problem StackResult with the status and detail the solver's own
    checks (``_solution_faults``) give ``x`` for ``a @ x == b``."""
    a, b, x = np.atleast_2d(a), np.ravel(b), np.ravel(x).astype(float)
    out = simplex.StackResult(1, *a.shape)
    out.status, out.detail = simplex._solution_faults(
        a[None], b[None], x[None], np.abs(a).max()[None], np.abs(b).max()[None], tol_feas
    )
    return out


class TestPhaseOne:
    def test_identity_plus_sum_row(self):
        a_eq = np.vstack([np.eye(3), np.ones(3)])
        b_eq = np.array([0.0, 1.0, 0.0, 1.0])
        result = phase_one_feasible(FeasibilityProblem(a_eq, b_eq))
        assert result.feasible
        assert np.allclose(result.x, [0.0, 1.0, 0.0])

    def test_worked_6x6_column_two_expansion(self):
        # Express the second column share over the four vertices with unit
        # total weight; (3/4, 0, 0, 1/4) is one valid answer but any
        # feasible point is acceptable.
        point = np.array([2, 3, 3], dtype=float) / 8.0
        a_eq = np.vstack([MINLAT_6X6_VERTEX_ORDER.T, np.ones(4)])
        b_eq = np.concatenate([point, [1.0]])
        result = phase_one_feasible(FeasibilityProblem(a_eq, b_eq))
        assert result.feasible
        _check_solution(a_eq, b_eq, result.x)
        hand = np.array([0.75, 0.0, 0.0, 0.25])
        _check_solution(a_eq, b_eq, hand)

    def test_infeasible_single_point(self):
        a_eq = np.vstack([np.array([[0.0], [1.0]]), np.ones((1, 1))])
        b_eq = np.array([1.0, 0.0, 1.0])
        result = phase_one_feasible(FeasibilityProblem(a_eq, b_eq))
        assert not result.feasible
        assert result.infeasibility > 0.1

    def test_negative_rhs_rows_are_handled(self):
        a_eq = np.array([[1.0, -1.0]])
        b_eq = np.array([-2.0])
        result = phase_one_feasible(FeasibilityProblem(a_eq, b_eq))
        assert result.feasible
        _check_solution(a_eq, b_eq, result.x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_one_feasible(FeasibilityProblem(np.eye(2), np.ones(3)))

    @settings(deadline=None, max_examples=60)
    @given(
        a=arrays(np.float64, (3, 6), elements=st.floats(-5, 5)),
        x0=arrays(np.float64, (6,), elements=st.floats(0, 3)),
    )
    def test_constructed_systems_are_found_feasible(self, a, x0):
        b = a @ x0
        result = phase_one_feasible(FeasibilityProblem(a, b))
        assert result.feasible
        _check_solution(a, b, result.x, tol=1e-8)

    @pytest.mark.parametrize(
        "a, x0",
        [
            # A tie in the ratio test once pushed another row far below zero.
            ([[1e-7, 0, 1e-7], [1e-7, 1e-7, 1e-7], [1e-7, 1, 1e-7]], [1e-7, 1e-7, 1e-7]),
            # Column sums above the pivot tolerance, every entry below it.
            ([[1e-11, 1e-11], [1e-11, 1e-11], [1e-11, 1e-11]], [0, 0]),
            # Pivots on an entry 1e-7..1e-9 sent the solution to 1e7..1e9.
            ([[3.5, 0, 1e-9, 1], [0.25, -1, 2, 0], [-1, 0, 0, 0]], [0, 0, 0, 1]),
            ([[0, 2, 0, 1, 1, 1], [1e-8, 1, 0, 1, 1, 1], [-3, 1, 1, 1, 1, 1]], [1] * 6),
            ([[1e-11, 0], [1.1920929e-07, 1], [0, 0]], [1, 1]),
            ([[1, 1e-7, 1e-7], [1e-7, 1e-11, 1e-7], [1e-7, 1e-7, 1]], [1, 1, 1]),
        ],
    )
    def test_tiny_entries_are_found_feasible(self, a, x0):
        a = np.array(a, dtype=float)
        b = a @ np.array(x0, dtype=float)
        result = phase_one_feasible(FeasibilityProblem(a, b))
        assert result.feasible
        _check_solution(a, b, result.x, tol=1e-8)

    def test_nonnegative_matrix_with_negative_rhs_is_infeasible(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = rng.uniform(0.0, 2.0, size=(3, 5))
            b = np.array([1.0, -0.5, 1.0])
            result = phase_one_feasible(FeasibilityProblem(a, b))
            assert not result.feasible

    def test_iteration_count_stays_small(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.uniform(-2, 2, size=(4, 8))
            x0 = rng.uniform(0, 1, size=8)
            result = phase_one_feasible(FeasibilityProblem(a, a @ x0))
            assert result.iterations < 2000

    def test_infeasible_dual_certifies_infeasibility(self):
        def check_certificate(a, b, result):
            y = result.dual
            assert y.shape == b.shape
            assert (y @ a).max() <= 1e-9
            assert abs(y @ b - result.infeasibility) <= 1e-9 * (1.0 + result.infeasibility)
            assert y @ b > 0.1 * result.infeasibility

        state = np.random.default_rng(83)
        for _ in range(15):
            a, b = state.uniform(0.0, 2.0, size=(3, 5)), np.array([1.0, -0.5, 1.0])
            result = phase_one_feasible(FeasibilityProblem(a, b))
            if not result.feasible:
                check_certificate(a, b, result)
        # Point-in-hull systems, half with a point pushed out of the hull.
        for case in range(30):
            r = int(state.integers(3, 7))
            pts = state.dirichlet(np.ones(r), size=int(state.integers(2, 10)))
            point = state.dirichlet(np.ones(r))
            if case % 2:
                point = pts[0] + 0.3 * (pts[0] - pts.mean(axis=0))
            result = convex_combination(point, pts)
            if result.feasible:
                assert np.abs(result.x @ pts - point).max() <= 1e-8
                continue
            check_certificate(np.vstack([pts.T, np.ones(len(pts))]), np.append(point, 1.0), result)
            w = result.dual[:-1]
            assert (pts @ w).max() < point @ w

    def test_check_solution_rejects_a_negative_entry(self):
        a, b = np.eye(2), np.array([1.0, 0.0])
        _solver_verdict(a, b, np.array([1.0, 0.0])).raise_fault(0)
        with pytest.raises(SimplexCheckError, match="negative"):
            _solver_verdict(a, b, np.array([1.0, -1e-3])).raise_fault(0)

    def test_check_solution_rejects_a_large_residual(self):
        a, b = np.eye(2), np.array([1.0, 0.0])
        with pytest.raises(SimplexCheckError, match="misses") as raised:
            _solver_verdict(a, b, np.array([1.0, 1e-3])).raise_fault(0)
        assert isinstance(raised.value, FactorizationError)


class TestIsExtremePoint:
    def test_worked_6x6_vertex_and_interior(self):
        table = basic_function(MINLAT_6X6[:3])
        points = table.points
        others = np.delete(points, 0, axis=0)
        assert is_extreme_point(points[0], others)
        others = np.delete(points, 1, axis=0)
        assert not is_extreme_point(points[1], others)

    def test_midpoint_is_not_extreme(self):
        a = np.array([0.0, 1.0])
        b = np.array([1.0, 0.0])
        assert not is_extreme_point((a + b) / 2, np.vstack([a, b]))

    def test_no_other_points_means_extreme(self):
        assert is_extreme_point(np.array([0.3, 0.7]), np.empty((0, 2)))

    def test_agrees_with_brute_force_on_simplex_points(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            count = int(rng.integers(2, 9))
            pts = rng.dirichlet((1.0, 1.0, 1.0), size=count)
            for i in range(count):
                others = np.delete(pts, i, axis=0)
                assert is_extreme_point(pts[i], others) == (
                    not hull_contains(pts[i], others)
                )


def test_hull_route_matches_brute_force_vertices():
    rng_state = np.random.default_rng(37)
    for _ in range(20):
        x = rng_state.uniform(0.1, 3.0, size=(3, 7))
        rng = distinct_values(basic_function(x))
        vs = hull_vertices(rng)
        expected = brute_force_vertices(rng.unique_points)
        got = [rng.representative_column.index(src) for src in vs.source_columns]
        assert sorted(got) == expected


def _random_systems(state, count, k, q):
    """``count`` systems of one shape: constructed feasible ones, nonnegative
    ones with a negative right-hand side, and point-in-hull ones with half of
    the points pushed out of the hull."""
    kind = int(state.integers(0, 3))
    if kind == 0:
        a = state.uniform(-3, 3, size=(count, k, q))
        return a, (a @ state.uniform(0, 1, size=(count, q, 1)))[:, :, 0]
    if kind == 1:
        return state.uniform(0, 2, size=(count, k, q)), state.uniform(-1, 1, size=(count, k))
    pts = state.dirichlet(np.ones(k - 1), size=(count, q))
    points = state.dirichlet(np.ones(k - 1), size=count)
    out = state.random(count) < 0.5
    points[out] = pts[out, 0] + 0.3 * (pts[out, 0] - pts[out].mean(axis=1))
    return (
        np.concatenate([pts.transpose(0, 2, 1), np.ones((count, 1, q))], axis=1),
        np.hstack([points, np.ones((count, 1))]),
    )


class TestSolveStack:
    def test_matches_one_problem_solves(self):
        state = np.random.default_rng(89)
        faults = {SimplexStalledError: (simplex.NO_PIVOT_ROW, simplex.ITERATION_LIMIT),
                  SimplexCheckError: (simplex.NEGATIVE_ENTRY, simplex.MISSED_EQUATIONS)}
        for _ in range(60):
            count, k, q = int(state.integers(1, 12)), int(state.integers(2, 6)), int(state.integers(1, 15))
            a, b = _random_systems(state, count, k, q)
            stack = simplex.solve_stack(a, b)
            for p in range(count):
                try:
                    single = phase_one_feasible(FeasibilityProblem(a[p], b[p]))
                except (SimplexStalledError, SimplexCheckError) as err:
                    assert stack.status[p] in faults[type(err)]
                    continue
                assert stack.iterations[p] == single.iterations
                if single.feasible:
                    assert stack.status[p] == simplex.FEASIBLE
                    _solver_verdict(a[p], b[p], stack.x[p]).raise_fault(0)
                    assert np.abs(stack.x[p] - single.x).max() <= 1e-12
                    continue
                assert stack.status[p] == simplex.INFEASIBLE
                y = stack.dual[p]
                assert (y @ a[p]).max() <= 1e-9
                assert abs(y @ b[p] - stack.infeasibility[p]) <= 1e-9 * (1 + stack.infeasibility[p])
                assert abs(stack.infeasibility[p] - single.infeasibility) <= 1e-12

    def test_shared_matrix_and_slices_give_the_same_result(self, monkeypatch):
        state = np.random.default_rng(97)
        pts = state.dirichlet(np.ones(4), size=9)
        points = np.vstack([state.dirichlet(np.ones(4), size=20), pts + 0.2 * (pts - 0.25)])
        whole = convex_combinations(points, pts)
        monkeypatch.setattr(simplex, "_SLICE_ENTRIES", 3 * 5 * 15)
        sliced = convex_combinations(points, pts)
        for field in ("status", "x", "infeasibility", "iterations", "dual"):
            assert np.array_equal(getattr(whole, field), getattr(sliced, field))
        for p, point in enumerate(points):
            single = convex_combination(point, pts)
            assert (whole.status[p] == simplex.FEASIBLE) == single.feasible
        assert set(whole.status) == {simplex.FEASIBLE, simplex.INFEASIBLE}

    def test_faults_are_reported_per_problem_with_the_messages_raised_alone(self):
        # The second system needs its entry 5e-11, below the pivot tolerance,
        # to meet its first equation. Its improving columns are all tiny
        # beside the entry 5, so the pivot is on 2e-10 and the solution
        # misses that equation.
        a = np.zeros((3, 6))
        a[0, 0], a[1, 0], a[1, 1], a[2, 2] = 5e-11, 2e-10, 5e-6, 5.0
        b = a[:, 0] + a[:, 1]
        stack_a = np.stack([np.eye(3, 6), a])
        stack_b = np.stack([np.ones(3), b])
        stack = simplex.solve_stack(stack_a, stack_b)
        assert list(stack.status) == [simplex.FEASIBLE, simplex.MISSED_EQUATIONS]
        with pytest.raises(SimplexCheckError, match=f"misses the equations by {stack.detail[1]:.3e}"):
            phase_one_feasible(FeasibilityProblem(a, b))
        capped = simplex.solve_stack(stack_a, stack_b, max_iterations=0)
        assert list(capped.status) == [simplex.ITERATION_LIMIT] * 2
        with pytest.raises(SimplexStalledError, match="stalled after 1 iterations"):
            phase_one_feasible(FeasibilityProblem(a, b), max_iterations=0)

    def test_fault_checks_hold_under_python_O(self):
        # The checks raise rather than assert, so python -O keeps them: the
        # system above still misses its equations, and a negative entry is
        # still rejected.
        script = """
import numpy as np
from latticenmf import FeasibilityProblem, SimplexCheckError, simplex
print(__debug__)
a = np.zeros((3, 6))
a[0, 0], a[1, 0], a[1, 1], a[2, 2] = 5e-11, 2e-10, 5e-6, 5.0
# x solves eye @ x == b but for its negative entry; max|eye| = max|b| = 1.
eye, b, x = np.eye(2), np.array([1.0, 0.0]), np.array([1.0, -1e-3])
negative = simplex.StackResult(1, 2, 2)
negative.status, negative.detail = simplex._solution_faults(
    eye[None], b[None], x[None], np.ones(1), np.ones(1), 1e-9
)
checks = [
    lambda: simplex.phase_one_feasible(FeasibilityProblem(a, a[:, 0] + a[:, 1])),
    lambda: negative.raise_fault(0),
]
for check in checks:
    try:
        check()
        print("passed")
    except SimplexCheckError as error:
        print(error)
"""
        src = str(Path(simplex.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        )
        debug, missed, negative = run.stdout.splitlines()
        assert debug == "False"
        assert missed.startswith("simplex solution misses the equations by ")
        assert negative == "simplex returned a negative entry -1.000e-03"
