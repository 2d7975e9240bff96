"""Output checks: a call counts as correct only if its result passes these.

The checks read nothing from the library's own validation: the residual is
recomputed from F and V, and files written by the command line are parsed
here, not with ``latticenmf.matio``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The library's default reconstruction tolerance, fixed here so that a change
# to the library's defaults cannot loosen the check.
RECON_TOL = 1e-8


def check_factors(a, f, v, p: int) -> list[str]:
    """Problems with ``F @ V`` as a nonnegative factorization of ``a`` with
    inner dimension ``p``; empty when there are none."""
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    v = np.asarray(v, dtype=float)
    if f.shape != (a.shape[0], p) or v.shape != (p, a.shape[1]):
        return [f"shapes F {f.shape}, V {v.shape} do not fit A {a.shape} with p={p}"]
    problems = []
    if not (np.isfinite(f).all() and np.isfinite(v).all()):
        problems.append("non-finite entry in F or V")
    if f.min() < 0.0:
        problems.append(f"F has a negative entry {f.min():.3e}")
    if v.min() < 0.0:
        problems.append(f"V has a negative entry {v.min():.3e}")
    bound = RECON_TOL * (1.0 + float(np.abs(a).max()))
    residual = float(np.abs(a - f @ v).max())
    if not residual <= bound:
        problems.append(f"residual {residual:.3e} exceeds {bound:.3e}")
    return problems


def check_result(case, result) -> list[str]:
    """Problems with a ``Factorization`` of ``case.a``."""
    if result.p != case.p:
        return [f"p={result.p}, expected {case.p}"]
    problems = check_factors(case.a, result.F, result.V, case.p)
    if frozenset(result.vertex_source_columns) != case.vertex_columns:
        problems.append(
            f"vertex columns {sorted(result.vertex_source_columns)}, "
            f"expected {sorted(case.vertex_columns)}"
        )
    return problems


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_mtx(path) -> np.ndarray:
    """Dense MatrixMarket array: header, comments, ``rows cols``, then the
    entries column by column."""
    lines = [
        line
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("%")
    ]
    n, m = (int(t) for t in lines[0].split())
    values = np.array([float(t) for line in lines[1:] for t in line.split()])
    return values.reshape((n, m), order="F")


def read_report(path) -> dict:
    """``p`` and the 1-based ``vertex_source_columns`` from a JSON or text report."""
    path = Path(path)
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        return {"p": data["p"], "vertex_source_columns": data["vertex_source_columns"]}
    fields = dict(
        line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines()
    )
    return {
        "p": int(fields["p"]),
        "vertex_source_columns": [int(t) for t in fields["vertex_source_columns"].split()],
    }


def output_paths(case, out_dir: Path) -> tuple[Path, Path, Path]:
    """Where the command line writes F, V and the report for ``case``."""
    report = "report.json" if case.report == "json" else "report.txt"
    return out_dir / f"F.{case.fmt}", out_dir / f"V.{case.fmt}", out_dir / report


def check_cli_outputs(case, exit_code: int, out_dir: Path) -> list[str]:
    """Problems with one command-line run on ``case``: exit code, report, and
    the written F and V read back."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    f_path, v_path, report_path = output_paths(case, out_dir)
    missing = [p.name for p in (f_path, v_path, report_path) if not p.is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    report = read_report(report_path)
    if report["p"] != case.p:
        return [f"report p={report['p']}, expected {case.p}"]
    read = read_csv if case.fmt == "csv" else read_mtx
    problems = check_factors(case.a, read(f_path), read(v_path), case.p)
    if frozenset(j - 1 for j in report["vertex_source_columns"]) != case.vertex_columns:
        problems.append(
            f"report vertex columns {report['vertex_source_columns']} (1-based), "
            f"expected {sorted(j + 1 for j in case.vertex_columns)}"
        )
    return problems
