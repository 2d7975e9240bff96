"""Self-tests of the benchmark: generators, expected results, checker, output.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import check_cli_outputs, check_result, read_csv, read_mtx  # noqa: E402
from golden import golden_matrices  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Case, make_cases  # noqa: E402

lnmf = run.import_latticenmf()


def run_main(*argv) -> tuple[dict, str]:
    """Run the benchmark in-process; the parsed last line and all of stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(workload):
    first, again, other = make_cases(workload, 5), make_cases(workload, 5), make_cases(workload, 6)
    assert [c.name for c in first] == [c.name for c in again]
    for a, b in zip(first, again):
        assert np.array_equal(a.a, b.a)
        assert (a.p, a.vertex_columns, a.fmt, a.report) == (b.p, b.vertex_columns, b.fmt, b.report)
    assert any(not np.array_equal(a.a, b.a) for a, b in zip(first, other))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_planted_results_match_the_library(workload, seed):
    for case in make_cases(workload, seed):
        result = lnmf.factorize(case.a)
        assert result.p == case.p, case.name
        assert frozenset(result.vertex_source_columns) == case.vertex_columns, case.name
        assert check_result(case, result) == [], case.name


def oracle_vertex_columns(a) -> frozenset[int]:
    """First column of each extreme column share, by LP feasibility in scipy.

    Column shares are taken over all rows: every row is a combination of the
    basic rows, so the shares are a projective image of the basic-row shares
    and have the same extreme points.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    kept = np.flatnonzero(a.sum(axis=0) > 0)
    shares = (a[:, kept] / a[:, kept].sum(axis=0)).T
    firsts = []
    for i, point in enumerate(shares):
        if not any(np.abs(point - shares[j]).max() <= 1e-12 for j in firsts):
            firsts.append(i)
    vertices = set()
    for i in firsts:
        others = np.array([shares[j] for j in firsts if j != i])
        a_eq = np.vstack([others.T, np.ones(len(others))])
        b_eq = np.append(shares[i], 1.0)
        if linprog(np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None)).status == 2:
            vertices.add(int(kept[i]))
    return frozenset(vertices)


def test_golden_vertex_columns_match_an_lp_oracle():
    for name, a, p, cols in golden_matrices():
        assert oracle_vertex_columns(a) == cols, name
        assert len(cols) == p, name


def test_planted_vertex_columns_match_an_lp_oracle():
    for case in make_cases("cli-batch", 3):
        assert oracle_vertex_columns(case.a) == case.vertex_columns, case.name


def test_checker_fails_tampered_factorizations():
    case = make_cases("hull-interior", 4)[0]
    result = lnmf.factorize(case.a)
    assert check_result(case, result) == []
    v = result.V.copy()
    j = int(np.argmax(v[0]))
    v[0, j] = -v[0, j]
    assert check_result(case, dataclasses.replace(result, V=v))
    assert check_result(case, dataclasses.replace(result, p=result.p + 1))
    assert check_result(dataclasses.replace(case, p=case.p - 1), result)
    outside = next(j for j in range(case.a.shape[1]) if j not in case.vertex_columns)
    wrong = case.vertex_columns - {min(case.vertex_columns)} | {outside}
    assert check_result(dataclasses.replace(case, vertex_columns=wrong), result)


@pytest.mark.parametrize("style", [("csv", "json"), ("mtx", "text")])
def test_checker_fails_tampered_command_line_outputs(tmp_path, style):
    name, a, p, cols = golden_matrices()[0]
    case = Case(name, a, p, cols, *style)
    path = tmp_path / f"A.{case.fmt}"
    run.write_input(case, path)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = lnmf.cli.run([str(path), "--out-dir", str(out), "--report", case.report])
    assert check_cli_outputs(case, code, out) == []
    assert check_cli_outputs(case, 2, out)

    v_path = out / f"V.{case.fmt}"
    original = v_path.read_text(encoding="utf-8")
    v = (read_csv if case.fmt == "csv" else read_mtx)(v_path)
    v.flat[np.argmax(v)] *= -1.0
    run.write_input(dataclasses.replace(case, a=v), v_path)
    assert check_cli_outputs(case, 0, out)
    v_path.write_text(original, encoding="utf-8")
    assert check_cli_outputs(case, 0, out) == []

    report = out / ("report.json" if case.report == "json" else "report.txt")
    text = report.read_text(encoding="utf-8")
    if case.report == "json":
        data = json.loads(text)
        data["p"] += 1
        report.write_text(json.dumps(data), encoding="utf-8")
    else:
        report.write_text(text.replace(f"\np: {p}\n", f"\np: {p + 1}\n"), encoding="utf-8")
    assert check_cli_outputs(case, 0, out)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_workloads_are_defined_here():
    for workload in benchmark_spec()["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]


def test_every_printed_metric_is_declared_in_benchmark_json():
    spec = benchmark_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    result, text = run_main("--workload", "cli-batch", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == e2e
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, text = run_main("--workload", "cli-batch", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert set(result["metrics"]) == layer
    printed = {line.split()[0] for line in text.splitlines() if line.startswith("  ")}
    assert printed == layer
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["polytope.segment_calls"] > 0
    assert metrics["matio.bytes_read"] > 0 and metrics["cli.other_ms"] > 0


def test_traced_counts_repeat_exactly_for_a_seed():
    counts = []
    for _ in range(2):
        result, _ = run_main("--workload", "cli-batch", "--seed", "2", "--seconds", "0", "--trace", "1")
        counts.append({k: result["metrics"][k]["value"] for k in ("simplex.calls", "simplex.pivots_total")})
    assert counts[0] == counts[1]
    assert counts[0]["simplex.calls"] > 0


def test_a_missing_wrapped_function_is_reported_absent(monkeypatch):
    module = sys.modules["latticenmf.lattice"]
    monkeypatch.delattr(module, "phase_one_feasible")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["latticenmf.lattice.phase_one_feasible"]
    finally:
        tracer.uninstall()
    assert not hasattr(module, "phase_one_feasible")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_times_are_scaled_by_the_reference_next_to_them():
    nominal = run.REFERENCE_SECONDS
    reference = run.Reference()
    reference.samples = [5 * nominal, nominal, nominal, 5 * nominal]
    assert reference.scale(0.2, 1) == pytest.approx(0.2)
    # A machine running the reference at half speed halves the reported time.
    reference.samples = [nominal, 2 * nominal, 2 * nominal]
    assert reference.scale(0.2, 1) == pytest.approx(0.1)
    reference.samples = [nominal, 3 * nominal]
    assert reference.scale(0.2, 0) == pytest.approx(0.1)
