"""Plain-text matrix serialization shared by the CLI and the tests.

Layout: a header line ``rows cols`` (ASCII decimal integers, one space), then
``rows`` lines of ``cols`` space-separated floating-point values.  Values are
written with Python's shortest round-trip ``repr``, so load(save(a)) == a
bit-for-bit.  Lines end with ``\\n``.

Reading accepts more than writing produces: blank lines anywhere, any run of
whitespace between values, and ``\\r\\n`` or ``\\r`` line ends.  The header
is read in Python; the data lines go through numpy's C text reader
(``np.loadtxt``) in one call.  Only when that reader fails, or its shape
disagrees with the header, are the lines scanned again, to name the first
faulty line in the error; a byte outside ASCII has ``load_matrix`` read the
file again as bytes, to name its line.
"""

from __future__ import annotations

import io
import os
import warnings

import numpy as np

from .linalg import as_matrix


def format_matrix(a) -> str:
    a = as_matrix(a)
    rows, cols = a.shape
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(map(repr, row.tolist())) for row in a)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Read a matrix from its text form; errors name the 1-based line."""
    return _read_matrix(io.StringIO(text, newline=None), "")


def save_matrix(path: str | os.PathLike, a) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(a))


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix file; errors name the file and the 1-based line."""
    where = f"{os.fspath(path)}: "
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _read_matrix(fh, where)
    except UnicodeDecodeError:
        raise ValueError(where + _first_non_ascii(path)) from None


def _first_non_ascii(path: str | os.PathLike) -> str:
    """Word the first byte of ``path`` at or above 0x80, by 1-based line.

    Latin-1 maps each byte to the code point of its value, so this reads the
    raw bytes with the same universal-newline line numbering as the reader.
    """
    with open(path, "r", encoding="latin-1") as fh:
        for number, line in enumerate(fh, 1):
            if not line.isascii():
                byte = next(ord(char) for char in line if char > "\x7f")
                return f"line {number}: non-ASCII byte {byte:#04x}"
    return "non-ASCII byte"


def _read_matrix(fh, where: str) -> np.ndarray:
    """Read the header, then every data line in one C-reader call.

    ``fh`` is a seekable text stream with universal newlines; ``where``
    prefixes every error message.
    """
    rows, cols, header_line = _read_header(fh, where)
    try:
        with warnings.catch_warnings():
            # A header with no data lines after it: the shape check words it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        data = None
    if data is None or data.shape != (rows, cols):
        fh.seek(0)
        raise ValueError(where + _first_fault(fh, header_line, rows, cols))
    try:
        return as_matrix(data)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


def _read_header(fh, where: str) -> tuple[int, int, int]:
    """Return (rows, cols, line number) of the first non-blank line."""
    for number, line in enumerate(fh, 1):
        header = line.split()
        if not header:
            continue
        if len(header) != 2 or not all(t.isascii() and t.isdigit() for t in header):
            raise ValueError(
                f"{where}line {number}: matrix header must be 'rows cols', got {line.strip()!r}"
            )
        rows, cols = int(header[0]), int(header[1])
        if rows < 1 or cols < 1:
            raise ValueError(
                f"{where}line {number}: matrix dimensions must be positive, got {rows} {cols}"
            )
        return rows, cols, number
    raise ValueError(f"{where}empty matrix text")


def _first_fault(fh, header_line: int, rows: int, cols: int) -> str:
    """Word the first faulty data line, scanning from the start of ``fh``."""
    seen = 0
    for number, line in enumerate(fh, 1):
        tokens = line.split()
        if number <= header_line or not tokens:
            continue
        if seen == rows:
            return f"line {number}: more than {rows} data rows"
        seen += 1
        if len(tokens) != cols:
            return f"line {number}: expected {cols} values, got {len(tokens)}"
        for token in tokens:
            if not _is_number(token):
                return f"line {number}: cannot read {token!r} as a number"
    if seen < rows:
        return f"line {number}: input ends after {seen} of {rows} data rows"
    return "cannot read the data lines"


def _is_number(token: str) -> bool:
    """Whether the C reader takes ``token``: ``float()`` syntax, ASCII, no ``_``."""
    try:
        float(token)
    except ValueError:
        return False
    return token.isascii() and "_" not in token
