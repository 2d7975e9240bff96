import dataclasses
import importlib
import json
import re

import numpy as np
import pytest

from latticenmf import ConvexExpansion, Tolerances
from latticenmf.cli import _tolerances_from, build_parser, run
from latticenmf.matio import read_matrix, write_matrix

from data import MINLAT_6X6, NRF_5X4


def _write_csv(path, a):
    write_matrix(path, np.asarray(a, dtype=float), "csv")
    return path


def test_end_to_end_json_report(tmp_path, capsys):
    source = _write_csv(tmp_path / "a.csv", MINLAT_6X6)
    out = tmp_path / "out"
    assert run([str(source), "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "minimal lattice-subspace" in captured.out

    f = read_matrix(out / "F.csv")
    v = read_matrix(out / "V.csv")
    assert np.abs(MINLAT_6X6 - f @ v).max() <= 1e-8

    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 4
    assert report["p"] == v.shape[0]
    assert report["classification"] == "minimal-lattice"
    assert report["basic_rows"] == [1, 2, 3]
    assert sorted(report["nodes"]) == [1, 3, 5, 6]
    assert report["dropped_zero_columns"] == []
    assert report["residual_inf"] <= 1e-8
    # 1-based node structure against the written V.
    for k, node in enumerate(report["nodes"]):
        column = v[:, node - 1]
        assert column[k] > 0
        assert all(column[j] == 0 for j in range(v.shape[0]) if j != k)


def test_identity_is_trivial(tmp_path, capsys):
    source = _write_csv(tmp_path / "id.csv", np.eye(3))
    assert run([str(source), "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "trivial factorization" in captured.out
    f = read_matrix(tmp_path / "out" / "F.csv")
    v = read_matrix(tmp_path / "out" / "V.csv")
    assert np.array_equal(f, np.eye(3))
    assert np.array_equal(v, np.eye(3))


def test_negative_entry_exits_one(tmp_path, capsys):
    source = tmp_path / "neg.csv"
    source.write_text("1,2\n3,-4\n")
    assert run([str(source)]) == 1
    captured = capsys.readouterr()
    assert "row 2, column 2" in captured.err


def test_non_finite_entry_exits_one(tmp_path, capsys):
    source = tmp_path / "nan.csv"
    source.write_text("1,2,3\n4,5,nan\n")
    assert run([str(source)]) == 1
    assert "non-finite entry at row 2, column 3" in capsys.readouterr().err


def test_ragged_input_exits_one(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("1,2\n3\n")
    assert run([str(source)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    assert run([str(tmp_path / "nope.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_strict_mode_exits_three(tmp_path, capsys):
    source = _write_csv(tmp_path / "id.csv", np.eye(3))
    assert run([str(source), "--strict", "--out-dir", str(tmp_path / "out")]) == 3
    assert "aborted" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_two(tmp_path, capsys):
    # So loose a feasibility threshold finds too few vertices to span the shares.
    source = _write_csv(tmp_path / "a.csv", MINLAT_6X6)
    assert run([str(source), "--tol-feas", "0.5", "--out-dir", str(tmp_path / "out")]) == 2
    assert "numerical failure [reorder]" in capsys.readouterr().err


def test_singular_basis_exits_two_with_stage(tmp_path, capsys, monkeypatch):
    # Column 1's weights are moved onto one vertex, so its residual exceeds
    # the bound and the block solve runs; it gets all-ones vertices, so V_r
    # has rank 1.
    module = importlib.import_module("latticenmf.factorize")
    expand, blocks = module.expand_in_vertices, module.positive_basis_by_blocks

    def misplaced(*args):
        coefficients = expand(*args).coefficients.copy()
        coefficients[1] = np.eye(coefficients.shape[1])[0]
        return ConvexExpansion(coefficients)

    monkeypatch.setattr(module, "expand_in_vertices", misplaced)
    monkeypatch.setattr(
        module,
        "positive_basis_by_blocks",
        lambda vs, *a: blocks(dataclasses.replace(vs, vertices=np.ones_like(vs.vertices)), *a),
    )
    source = _write_csv(tmp_path / "a.csv", MINLAT_6X6)
    assert run([str(source), "--out-dir", str(tmp_path / "out")]) == 2
    assert "numerical failure [basis]" in capsys.readouterr().err


def test_matrix_market_output(tmp_path):
    source = tmp_path / "a.mtx"
    write_matrix(source, NRF_5X4, "mtx")
    out = tmp_path / "out"
    assert run([str(source), "--out-dir", str(out)]) == 0
    f = read_matrix(out / "F.mtx")
    v = read_matrix(out / "V.mtx")
    assert np.abs(NRF_5X4 - f @ v).max() <= 1e-12


def test_format_flag_overrides_extension(tmp_path):
    source = tmp_path / "a.txt"
    write_matrix(source, NRF_5X4, "mtx")
    out = tmp_path / "out"
    assert run([str(source), "--format", "mtx", "--out-dir", str(out)]) == 0
    assert (out / "F.mtx").exists()


def test_text_report(tmp_path):
    source = _write_csv(tmp_path / "a.csv", NRF_5X4)
    out = tmp_path / "out"
    assert run([str(source), "--report", "text", "--out-dir", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "classification: lattice-rank" in text
    assert "p: 3" in text


def test_zero_columns_are_reported(tmp_path):
    a = np.array([[1.0, 0.0, 2.0], [2.0, 0.0, 1.0]])
    source = _write_csv(tmp_path / "a.csv", a)
    out = tmp_path / "out"
    assert run([str(source), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dropped_zero_columns"] == [2]
    v = read_matrix(out / "V.csv")
    assert np.array_equal(v[:, 1], np.zeros(v.shape[0]))


def test_a_column_nonzero_only_in_dependent_rows_is_dropped(tmp_path):
    # Column 2 is zero in the basic rows 1 and 3; row 2 is twice row 1 up to
    # an entry within the rank tolerance there.
    a = np.array([[1, 0, 1, 2], [2, 1e-12, 2, 4], [0, 0, 1, 1]], dtype=float)
    source = _write_csv(tmp_path / "a.csv", a)
    out = tmp_path / "out"
    assert run([str(source), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dropped_zero_columns"] == [2]
    assert report["p"] == 2


def test_unknown_flag_exits_one(tmp_path, capsys):
    source = _write_csv(tmp_path / "a.csv", NRF_5X4)
    assert run([str(source), "--bogus"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "latticenmf" in capsys.readouterr().out


def test_unwritable_out_dir_exits_one(tmp_path, capsys):
    source = _write_csv(tmp_path / "a.csv", MINLAT_6X6)
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    assert run([str(source), "--out-dir", str(blocker / "out")]) == 1
    assert "error: cannot write" in capsys.readouterr().err


def test_each_tolerance_field_has_a_flag_stating_its_default():
    parser = build_parser()
    flags = {a.dest: a for a in parser._actions if a.dest.startswith("tol_")}
    defaults = {f.name: f.default for f in dataclasses.fields(Tolerances)}
    assert sorted(flags) == sorted(f"tol_{name}" for name in defaults)
    for name, default in defaults.items():
        action = flags[f"tol_{name}"]
        assert action.option_strings == [f"--tol-{name}"]
        assert float(re.search(r"\(default (\S+)\)$", action.help).group(1)) == default
        tol = _tolerances_from(parser.parse_args(["a.csv", f"--tol-{name}", "0.25"]))
        assert tol == dataclasses.replace(Tolerances(), **{name: 0.25})


def test_text_and_json_reports_list_the_same_keys_in_order(tmp_path):
    source = _write_csv(tmp_path / "a.csv", MINLAT_6X6)
    assert run([str(source), "--out-dir", str(tmp_path / "json")]) == 0
    assert run([str(source), "--report", "text", "--out-dir", str(tmp_path / "text")]) == 0
    json_keys = list(json.loads((tmp_path / "json" / "report.json").read_text()))
    text = (tmp_path / "text" / "report.txt").read_text()
    assert [line.split(":")[0] for line in text.splitlines()] == json_keys
