"""Dense matrix files: CSV rows and the MatrixMarket array format."""

from __future__ import annotations

from pathlib import Path

import numpy as np

CSV_FORMAT = "csv"
MM_FORMAT = "mtx"
_MM_HEADER = "%%MatrixMarket matrix array real general"


class MatrixParseError(ValueError):
    """The input file cannot be parsed into a rectangular real matrix."""


def detect_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return MM_FORMAT
    if suffix in (".csv", ".txt"):
        return CSV_FORMAT
    raise MatrixParseError(f"cannot infer matrix format from {path}; pass --format")


# Text of one value that reads back as the same float.
_fmt = "{:.17g}".format


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    fmt = fmt or detect_format(path)
    if fmt == CSV_FORMAT:
        return _read_csv(path)
    if fmt == MM_FORMAT:
        return _read_mm(path)
    raise MatrixParseError(f"unknown matrix format {fmt!r}")


def write_matrix(path, a, fmt: str | None = None) -> None:
    a = np.asarray(a, dtype=float)
    fmt = fmt or detect_format(path)
    if fmt == CSV_FORMAT:
        _write_csv(path, a)
    elif fmt == MM_FORMAT:
        _write_mm(path, a)
    else:
        raise MatrixParseError(f"unknown matrix format {fmt!r}")


def _read_csv(path) -> np.ndarray:
    # utf-8-sig skips the byte-order mark that spreadsheet exports often write.
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise MatrixParseError(f"{path}: no matrix rows found")
    width = rows[0].count(",") + 1
    try:
        values = list(map(float, ",".join(rows).split(",")))
    except ValueError:
        values = None
    if values is None or any(row.count(",") + 1 != width for row in rows):
        raise _first_fault(path, lines, 1, ",", width)
    return np.array(values, dtype=float).reshape(len(rows), width)


def _write_csv(path, a: np.ndarray) -> None:
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in a.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_mm(path) -> np.ndarray:
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if not text:
        raise MatrixParseError(f"{path}: empty file")
    lines = text.split("\n")
    header = lines[0].split()
    expected = _MM_HEADER.split()
    if len(header) != 5 or header[0] != expected[0]:
        raise MatrixParseError(f"{path}: line 1: not a MatrixMarket header")
    kind = [token.lower() for token in header[1:]]
    if kind[0] != "matrix" or kind[1] != "array" or kind[3] != "general":
        raise MatrixParseError(f"{path}: line 1: need 'matrix array ... general', got {lines[0].strip()!r}")
    if kind[2] not in ("real", "integer", "double"):
        raise MatrixParseError(f"{path}: line 1: unsupported field {header[3]!r}")

    shape: tuple[int, int] | None = None
    for line_no, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise MatrixParseError(f"{path}: line {line_no}: expected 'rows cols'")
        try:
            shape = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise MatrixParseError(
                f"{path}: line {line_no}: invalid dimensions {text!r}"
            ) from None
        if shape[0] <= 0 or shape[1] <= 0:
            raise MatrixParseError(f"{path}: line {line_no}: dimensions must be positive")
        break
    if shape is None:
        raise MatrixParseError(f"{path}: missing dimension line")
    # The body is parsed in one pass; only a failure goes back line by line.
    body = "\n".join(lines[line_no:])
    if "%" in body:  # comment lines
        body = "\n".join(line for line in lines[line_no:] if not line.lstrip().startswith("%"))
    try:
        values = list(map(float, body.split()))
    except ValueError:
        raise _first_fault(path, lines[line_no:], line_no + 1, None) from None
    n, m = shape
    if len(values) != n * m:
        raise MatrixParseError(f"{path}: expected {n * m} values, found {len(values)}")
    # The array body is stored column-major.
    return np.array(values, dtype=float).reshape((n, m), order="F")


def _first_fault(path, lines, first_line_no: int, sep, width: int | None = None):
    """The MatrixParseError of the first line in ``lines`` (numbered from
    ``first_line_no``) with a token that is not a number or, given ``width``,
    a count of ``sep``-separated values other than ``width``. Blank lines
    are skipped, and so are ``%`` comment lines when ``sep`` is whitespace."""
    for line_no, line in enumerate(lines, start=first_line_no):
        text = line.strip()
        if not text or (sep is None and text.startswith("%")):
            continue
        tokens = text.split(sep)
        for token in tokens:
            try:
                float(token)
            except ValueError:
                return MatrixParseError(f"{path}: line {line_no}: invalid number {token.strip()!r}")
        if width is not None and len(tokens) != width:
            return MatrixParseError(
                f"{path}: line {line_no}: expected {width} values, found {len(tokens)}"
            )
    return MatrixParseError(f"{path}: cannot parse the matrix body")


def _write_mm(path, a: np.ndarray) -> None:
    n, m = a.shape
    # The array body is stored column-major.
    body = "".join(map("{:.17g}\n".format, a.ravel(order="F").tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MM_HEADER}\n{n} {m}\n{body}")
