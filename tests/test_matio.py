import numpy as np
import pytest

from latticenmf.matio import (
    CSV_FORMAT,
    MM_FORMAT,
    MatrixParseError,
    detect_format,
    read_matrix,
    write_matrix,
)


def test_detect_format():
    assert detect_format("a.csv") == CSV_FORMAT
    assert detect_format("a.txt") == CSV_FORMAT
    assert detect_format("a.mtx") == MM_FORMAT
    assert detect_format("a.MM") == MM_FORMAT
    with pytest.raises(MatrixParseError):
        detect_format("a.dat")


def test_csv_round_trip(tmp_path):
    a = np.array([[1.0, 2.5, 1 / 3], [0.0, 1e-17, 123456.789]])
    path = tmp_path / "m.csv"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5.5,6\n")
    a = read_matrix(path)
    assert np.array_equal(a, [[1, 2, 3], [4, 5.5, 6]])


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        read_matrix(path)


def test_csv_bad_token_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(MatrixParseError, match="line 2.*'x'"):
        read_matrix(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n")
    with pytest.raises(MatrixParseError, match="no matrix rows"):
        read_matrix(path)


def test_mm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 5, size=(4, 3))
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_mm_exact_layout(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    assert path.read_text() == (
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )


def test_mm_reads_column_major(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "2 3\n1\n2\n3\n4\n5\n6\n"
    )
    assert np.array_equal(read_matrix(path), [[1, 3, 5], [2, 4, 6]])


def test_mm_bad_header(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1\n1\n")
    with pytest.raises(MatrixParseError, match="line 1"):
        read_matrix(path)


def test_mm_wrong_count(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(MatrixParseError, match="expected 4 values"):
        read_matrix(path)


def test_format_override(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("%%MatrixMarket matrix array real general\n1 2\n7\n8\n")
    assert np.array_equal(read_matrix(path, MM_FORMAT), [[7, 8]])


def test_mm_bad_token_on_a_later_line_names_it(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% note\n2 3\n1\n2\n\n3\n% mid\n4 5\nx\n"
    )
    with pytest.raises(MatrixParseError, match="line 10: invalid number 'x'"):
        read_matrix(path)


def test_csv_bad_token_on_a_later_line_names_it(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n5, y\n")
    with pytest.raises(MatrixParseError, match="line 4: invalid number 'y'"):
        read_matrix(path)


@pytest.mark.parametrize("name", ["m.csv", "m.mtx"])
def test_leading_byte_order_mark_is_skipped(tmp_path, name):
    # Spreadsheet exports often start with a UTF-8 byte-order mark; the
    # writers never write one.
    a = np.array([[1.0, 2.5, 0.0], [1 / 3, 4.0, 1e-17]])
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    write_matrix(plain, a)
    assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(read_matrix(marked), a)
    assert np.array_equal(read_matrix(marked), read_matrix(plain))


def test_unknown_explicit_format(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(MatrixParseError, match="unknown matrix format 'xml'"):
        write_matrix(path, np.eye(2), "xml")
    assert not path.exists()
    path.write_text("1,2\n3,4\n")
    with pytest.raises(MatrixParseError, match="unknown matrix format 'xml'"):
        read_matrix(path, "xml")


_MM_HEAD = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("%%MatrixMarket matrix array real\n1 1\n1\n", "line 1: not a MatrixMarket header"),
        ("%MatrixMarket matrix array real general\n1 1\n1\n", "line 1: not a MatrixMarket header"),
        ("1 1\n1\n", "line 1: not a MatrixMarket header"),
        (_MM_HEAD.replace("real", "complex") + "1 1\n1 0\n", "line 1: unsupported field 'complex'"),
        (_MM_HEAD + "2 2 4\n1\n2\n3\n4\n", "line 2: expected 'rows cols'"),
        (_MM_HEAD + "% c\n\n4\n1\n", "line 4: expected 'rows cols'"),
        (_MM_HEAD + "2 x\n1\n2\n", "line 2: invalid dimensions '2 x'"),
        (_MM_HEAD + "% c\n1.5 2\n1\n2\n", "line 3: invalid dimensions '1.5 2'"),
        (_MM_HEAD + "0 2\n", "line 2: dimensions must be positive"),
        (_MM_HEAD + "2 -1\n", "line 2: dimensions must be positive"),
        (_MM_HEAD + "% only\n%  comments\n\n", "missing dimension line"),
    ],
)
def test_mm_malformed_preamble(tmp_path, text, message):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    with pytest.raises(MatrixParseError, match=message):
        read_matrix(path)
