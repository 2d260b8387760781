"""Plain-text matrix serialization shared by the CLI and the tests.

Layout: a header line ``rows cols`` (ASCII decimal integers, one space), then
``rows`` lines of ``cols`` space-separated floating-point values.  Values are
written with Python's shortest round-trip ``repr``, so load(save(a)) == a
bit-for-bit.  Lines end with ``\\n``.

Reading accepts more than writing produces: blank lines anywhere, any run of
whitespace between values, and ``\\r\\n`` or ``\\r`` line ends.  The header
is read in Python; the data lines go through numpy's C text reader
(``np.loadtxt``) in one call.  Only when that reader fails, its shape
disagrees with the header or it reads a non-finite value are the lines
scanned again, to name the first faulty line in the error; a byte outside
ASCII has ``open_ascii`` read the file again as bytes, to name its line.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .linalg import as_matrix


def format_matrix(a) -> str:
    return "".join(_lines(as_matrix(a)))


def save_matrix(path: str | os.PathLike, a) -> None:
    """Write ``a`` to ``path``, holding one row's text at a time.

    ``a`` is validated before the file is opened, so a rejected matrix
    leaves an existing file as it was.
    """
    a = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_lines(a))


def _lines(a: np.ndarray):
    """The text of validated ``a``: its header line, then one line per row."""
    rows, cols = a.shape
    yield f"{rows} {cols}\n"
    for row in a:
        yield " ".join(map(repr, row.tolist())) + "\n"


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix file; errors name the file and the 1-based line."""
    with open_ascii(path) as fh:
        return _read_matrix(fh, f"{os.fspath(path)}: ")


@contextmanager
def open_ascii(path: str | os.PathLike):
    """Open ``path`` as ASCII text; a non-ASCII byte read in the block is a ValueError.

    The error names the file and the byte's 1-based line: the file is read
    again as Latin-1, which maps each byte to the code point of its value,
    with the same universal-newline line numbering as the ASCII reader.
    """
    where = f"{os.fspath(path)}: "
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "r", encoding="latin-1") as fh:
            for number, line in enumerate(fh, 1):
                if not line.isascii():
                    byte = next(ord(char) for char in line if char > "\x7f")
                    raise ValueError(f"{where}line {number}: non-ASCII byte {byte:#04x}") from None
        raise ValueError(f"{where}non-ASCII byte") from None


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
    if data is None or data.shape != (rows, cols) or not np.isfinite(data).all():
        fh.seek(0)
        raise ValueError(where + _first_fault(fh, header_line, rows, cols))
    return data


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
            if not math.isfinite(float(token)):
                return f"line {number}: {token!r} is not a finite number"
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
