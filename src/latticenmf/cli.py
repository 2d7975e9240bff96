"""Batch command line: factorize a matrix file, write F, V and a report.

All indices the command line prints or writes (rows, columns, nodes) are
1-based so they match how the input file reads; the library API underneath
is 0-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import FactorizationError, IntermediateDimensionError, InvalidEntryError
from .factorize import Classification, Factorization, factorize
from .linalg import Tolerances
from .matio import (
    CSV_FORMAT,
    MM_FORMAT,
    detect_format,
    read_matrix,
    write_matrix,
)

_STATUS = {
    Classification.TRIVIAL: "trivial factorization",
    Classification.RANK_TWO: "rank factorization: the rows generate a two-dimensional lattice-subspace",
    Classification.SUBLATTICE_RANK: "rank factorization: the rows of the matrix generate a sublattice",
    Classification.LATTICE_RANK: "rank factorization: the rows of the matrix generate a lattice-subspace",
    Classification.MINIMAL_LATTICE: "exact factorization through a minimal lattice-subspace",
}

# One flag --tol-<field> per Tolerances field; its help ends with the default.
_TOL_HELP = {
    "rank": "pivot threshold for rank decisions",
    "dedup": "equality threshold for merging column shares",
    "feas": "feasibility threshold for the hull and expansion solves",
    "recon": "reconstruction residual bound",
}


def build_report(result: Factorization) -> dict:
    """What the batch run writes next to F and V (indices 1-based)."""
    return {
        "classification": result.classification.value,
        "p": result.p,
        "r": result.r,
        "mu": result.mu,
        "basic_rows": [i + 1 for i in result.basic_rows],
        "nodes": [j + 1 for j in result.nodes],
        "vertex_source_columns": [j + 1 for j in result.vertex_source_columns],
        "residual_inf": result.residual_inf,
        "dropped_zero_columns": [j + 1 for j in result.mask.dropped_columns],
        "warnings": list(result.warnings),
        "timings_ms": {k: round(v, 3) for k, v in result.timings_ms.items()},
    }


def render_text_report(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key == "timings_ms":
            value = " ".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, list):
            value = " ".join(str(v) for v in value) if value else "-"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticenmf",
        description="Exact nonnegative factorization of a matrix file; writes F, V and a run report.",
    )
    parser.add_argument("input", help="matrix file (CSV rows or MatrixMarket array)")
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for F, V and the report (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=[CSV_FORMAT, MM_FORMAT],
        help="matrix format for input and outputs (default: inferred from the input extension)",
    )
    parser.add_argument(
        "--report",
        choices=["json", "text"],
        default="json",
        help="report style (default: json)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="abort instead of warning when the factorization cannot reduce dimension",
    )
    for field in fields(Tolerances):
        help_text = f"{_TOL_HELP[field.name]} (default {field.default:g})"
        parser.add_argument(f"--tol-{field.name}", type=float, default=None, help=help_text)
    return parser


# run's parser, built on first use: parse_args leaves it unchanged.
_parser = functools.cache(build_parser)


def _tolerances_from(args: argparse.Namespace) -> Tolerances:
    values = {field.name: getattr(args, f"tol_{field.name}") for field in fields(Tolerances)}
    return Tolerances(**{name: value for name, value in values.items() if value is not None})


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    path = Path(args.input)
    try:
        fmt = args.format or detect_format(path)
        a = read_matrix(path, fmt)
        result = factorize(a, _tolerances_from(args), strict=args.strict)
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return 1
    except IntermediateDimensionError as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 3
    except FactorizationError as err:
        stage = f" [{err.stage}]" if err.stage else ""
        print(f"numerical failure{stage}: {err}", file=sys.stderr)
        return 2
    except InvalidEntryError as err:
        print(f"error: {err.entry} at row {err.row + 1}, column {err.column + 1}", file=sys.stderr)
        return 1
    except ValueError as err:  # parse errors and bad tolerances
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        extension = "csv" if fmt == CSV_FORMAT else "mtx"
        write_matrix(out_dir / f"F.{extension}", result.F, fmt)
        write_matrix(out_dir / f"V.{extension}", result.V, fmt)

        report = build_report(result)
        if args.report == "json":
            (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        else:
            (out_dir / "report.txt").write_text(render_text_report(report), encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write {out_dir}: {err}", file=sys.stderr)
        return 1

    print(_STATUS[result.classification])
    print(f"p={result.p} r={result.r} mu={result.mu} residual_inf={result.residual_inf:.3e}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
