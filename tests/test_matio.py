import decimal
import re
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lsqmatch.generate import uniform_pattern
from lsqmatch.matio import format_matrix, load_matrix, save_matrix


def test_format_header_and_layout():
    text = format_matrix(np.array([[1.0, 2.5], [-3.0, 0.125]]))
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert lines[1] == "1.0 2.5"
    assert lines[2] == "-3.0 0.125"
    assert text.endswith("\n")


def test_roundtrip_is_bit_exact(load_text):
    for seed in (1, 2, 3):
        a = uniform_pattern(9, 4, seed)
        back = load_text(format_matrix(a))
        assert np.array_equal(a, back)


def test_roundtrip_extreme_values(load_text):
    a = np.array([[1e-300, 1.7976931348623157e308], [-4.9e-324, 0.3333333333333333]])
    assert np.array_equal(load_text(format_matrix(a)), a)


def test_parse_skips_blank_lines(load_text):
    a = load_text("\n2 2\n1.0 2.0\n\n3.0 4.0\n\n")
    assert np.array_equal(a, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_errors(load_text):
    where = re.escape(load_text.where)
    with pytest.raises(ValueError, match="empty matrix text"):
        load_text("")
    with pytest.raises(ValueError, match=rf"^{where}line 1: matrix header must be 'rows cols'"):
        load_text("2\n1.0\n2.0\n")
    with pytest.raises(ValueError, match=rf"^{where}line 2: matrix dimensions must be positive"):
        load_text("\n0 2\n")
    with pytest.raises(ValueError, match=rf"^{where}line 3: expected 2 values, got 1$"):
        load_text("2 2\n1.0 2.0\n3.0\n")  # short row
    with pytest.raises(ValueError, match=rf"^{where}line 3: input ends after 2 of 3 data rows$"):
        load_text("3 2\n1.0 2.0\n3.0 4.0\n")  # missing row
    with pytest.raises(ValueError, match=rf"^{where}line 2: cannot read 'abc' as a number$"):
        load_text("1 2\n1.0 abc\n")
    with pytest.raises(ValueError, match=rf"^{where}line 1: input ends after 0 of 2 data rows$"):
        load_text("2 2\n")  # header only
    with pytest.raises(ValueError, match=rf"^{where}line 5: more than 2 data rows$"):
        load_text("2 1\n1.0\n2.0\n\n3.0\n")
    with pytest.raises(ValueError, match=rf"^{where}line 2: expected 3 values, got 2$"):
        load_text("2 3\n1.0 2.0\n3.0 4.0\n")  # every row short: the shape check words it
    with pytest.raises(ValueError, match=rf"^{where}line 2: expected 2 values, got 4$"):
        load_text("1 2\n1.0 2.0 # note\n")  # '#' starts no comment
    with pytest.raises(ValueError, match=rf"^{where}line 2: cannot read '1_0' as a number$"):
        load_text("1 2\n1_0 2.0\n")  # float() accepts it; the C reader does not
    with pytest.raises(ValueError, match=rf"^{where}line 2: 'nan' is not a finite number$"):
        load_text("1 2\n1.0 nan\n")
    with pytest.raises(ValueError, match=rf"^{where}line 4: '1e999' is not a finite number$"):
        load_text("2 2\n1 2\n\n3 1e999\n")  # overflows to inf in the C reader


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: expected 2 values"):
        load_matrix(path)
    path.write_text("2 2\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 1: input ends after 0"):
        load_matrix(path)
    path.write_text("1 2\n1.0 inf\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: 'inf' is not a finite"):
        load_matrix(path)
    # A non-ASCII byte in the first decoded chunk, then one past it (the C
    # reader's path), counted by the same universal-newline lines.
    long_rows = "".join("1.0 2.0\r" for _ in range(3000))
    for data, line, byte in (
        (b"2 2\n1 2\n3 \xff\n", 3, "0xff"),
        (f"3001 2\r{long_rows}".encode() + b"3.0 \xe9\r", 3002, "0xe9"),
    ):
        path.write_bytes(data)
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(path))}: line {line}: non-ASCII byte {byte}$"
        ):
            load_matrix(path)


def test_parse_accepts_any_line_end_and_whitespace(load_text):
    expected = np.array([[1.0, 2.0], [3.0, 4.0]])
    texts = (
        "2 2\r\n1.0 2.0\r\n3.0 4.0\r\n",
        "2 2\r1.0 2.0\r3.0 4.0",
        "2  2\n\t1.0\t 2.0 \n3.0\x0c4.0\n",
    )
    for text in texts:
        assert np.array_equal(load_text(text), expected)


def test_save_and_load(tmp_path):
    a = uniform_pattern(5, 5, 77)
    path = tmp_path / "a.mat"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_save_holds_one_row_of_text(tmp_path):
    # A writer that builds the whole text first peaks near 7.6 x a.nbytes.
    a = uniform_pattern(2000, 50, 13)
    path = tmp_path / "a.mat"
    tracemalloc.start()
    try:
        save_matrix(path, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4
    assert path.read_text(encoding="ascii") == format_matrix(a)


def test_save_rejects_before_opening(tmp_path):
    path = tmp_path / "a.mat"
    save_matrix(path, [[1.0, 2.0]])
    kept = path.read_bytes()
    for bad in ([[np.nan]], [[1.0, np.inf]], [1.0, 2.0], [[1j]]):
        with pytest.raises(ValueError):
            save_matrix(path, bad)
        assert path.read_bytes() == kept


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "nope.mat")


def _tie_tokens():
    """Exact decimal midpoints between adjacent doubles, and the decimals just above and below."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        ties = [
            Decimal(5e-324) / 2,  # half the smallest subnormal
            1 + Decimal(2) ** -53,  # half an ulp above 1.0
            Decimal(sys.float_info.max) - Decimal(2) ** 970,  # half an ulp below DBL_MAX
        ]
        return [str(t) for tie in ties for t in (tie, tie.next_plus(), tie.next_minus())]


#: Decimal strings whose correctly rounded double is hard to get right.
HARD_FLOAT_STRINGS = [
    "1e23",
    "9007199254740993",
    "2.2250738585072011e-308",
    "4.9e-324",
    "1.7976931348623157e308",
    "-0.0",
    "0.30000000000000004",
    "2.4703282292062327e-324",
    "2.4703282292062328e-324",
    "123456789012345678901234567890",
    *_tie_tokens(),
]


@pytest.mark.parametrize("token", HARD_FLOAT_STRINGS, ids=[t[:24] for t in HARD_FLOAT_STRINGS])
def test_reader_rounds_like_python_float(load_text, token):
    expected = np.array([[float(token), float("-" + token.lstrip("-"))]])
    got = load_text(f"1 2\n{token} -{token.lstrip('-')}\n")
    assert got.tobytes() == expected.tobytes()


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64),
    )
)
def test_save_load_roundtrip_is_bit_exact(tmp_path, a):
    path = tmp_path / "a.mat"
    save_matrix(path, a)
    assert load_matrix(path).tobytes() == a.tobytes()


def _format_matrix_reference(a):
    """``format_matrix`` as it was, one numpy scalar per element."""
    rows, cols = a.shape
    lines = [f"{rows} {cols}"]
    for i in range(rows):
        lines.append(" ".join(repr(float(v)) for v in a[i]))
    return "\n".join(lines) + "\n"


def test_format_matches_per_element_repr():
    edge = np.array(
        [
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308],
            [1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1],
            [1.0, 123456789.0, 1e22, 1e23, 9007199254740993.0],
        ]
    )
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((40, 7)) * np.exp2(rng.integers(-1070, 1020, (40, 7)))
    for a in (edge, wide, uniform_pattern(33, 5, 3), np.array([[7.0]])):
        assert format_matrix(a) == _format_matrix_reference(a)
