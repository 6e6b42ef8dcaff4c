"""Table serialization: exact float round-trips and header handling.

Every write below goes through both table writers, the numpy one and, wherever
a C compiler is found, the compiled formatter, and checks they write the same bytes.
"""
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balldiff import ValidationError, tables
from balldiff.tables import _BLOCK_ROWS, FormattedColumn, read_table

_WRITERS = []  # each writer's tables.format_rows, set once for the module by _every_writer


@pytest.fixture(scope="module", autouse=True)
def _every_writer(table_writers):
    _WRITERS[:] = table_writers


def write_table(path, column_names, columns):
    """``tables.write_table`` on each writer in turn; all must write the same bytes."""
    written = []
    for format_rows in _WRITERS:
        live, tables.format_rows = tables.format_rows, format_rows
        try:
            tables.write_table(path, column_names, columns)
        finally:
            tables.format_rows = live
        written.append(Path(path).read_bytes())
    assert written == written[:1] * len(written)


def test_round_trip_is_bitwise_exact(tmp_path):
    path = tmp_path / "t.txt"
    tricky = np.array([
        0.0, -0.0, 1.0, -1.0, math.pi, 1.0 / 3.0,
        1e-300, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
    ])
    write_table(path, ["v"], [tricky])
    names, data = read_table(path)
    assert names == ["v"]
    assert data[:, 0].tobytes() == tricky.tobytes()


def test_round_trip_preserves_negative_zero(tmp_path):
    path = tmp_path / "z.txt"
    write_table(path, ["v"], [np.array([-0.0])])
    _, data = read_table(path)
    assert math.copysign(1.0, data[0, 0]) == -1.0


def test_round_trip_infinities_and_nan(tmp_path):
    path = tmp_path / "inf.txt"
    write_table(path, ["v"], [np.array([math.inf, -math.inf, math.nan])])
    _, data = read_table(path)
    assert data[0, 0] == math.inf
    assert data[1, 0] == -math.inf
    assert math.isnan(data[2, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
def test_round_trip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "v.txt"
    col = np.array(values)
    write_table(path, ["v"], [col])
    _, data = read_table(path)
    assert data[:, 0].tobytes() == col.tobytes()


def test_multiple_columns_and_header(tmp_path):
    path = tmp_path / "m.txt"
    write_table(path, ["t", "x", "p"], [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    names, data = read_table(path)
    assert names == ["t", "x", "p"]
    assert data.shape == (2, 3)
    assert data[1, 2] == 5.0
    first_line = path.read_text().splitlines()[0]
    assert first_line == "# t x p"


def test_empty_table_round_trips(tmp_path):
    path = tmp_path / "e.txt"
    write_table(path, ["a", "b"], [np.empty(0), np.empty(0)])
    names, data = read_table(path)
    assert names == ["a", "b"]
    assert data.shape == (0, 2)


def test_write_makes_missing_directories(tmp_path):
    path = tmp_path / "run" / "point_000" / "t.txt"
    write_table(path, ["a"], [[1.5]])
    assert read_table(path)[0] == ["a"]
    write_table(path.parent / "u.txt", ["b"], [[2.5]])  # the directory exists now
    assert sorted(p.name for p in path.parent.iterdir()) == ["t.txt", "u.txt"]


def test_write_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValidationError):
        write_table(tmp_path / "r.txt", ["a", "b"], [[1.0], [1.0, 2.0]])
    with pytest.raises(ValidationError):
        write_table(tmp_path / "r.txt", ["a"], [[1.0], [2.0]])


@pytest.mark.parametrize("column", [np.zeros((3, 2)), 5.0], ids=["2d", "scalar"])
def test_write_rejects_column_that_is_not_1d(tmp_path, column):
    with pytest.raises(ValidationError, match="must be 1-d"):
        write_table(tmp_path / "c.txt", ["a"], [column])
    assert not (tmp_path / "c.txt").exists()


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n")
    with pytest.raises(ValidationError):
        read_table(path)


def test_read_rejects_column_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# a b\n1.0 2.0 3.0\n")
    with pytest.raises(ValidationError):
        read_table(path)


@pytest.mark.parametrize("text, line", [
    ("# a b\n1 2\n3\n", 3), ("# a b\n1 2\n\n3 4\n5 6 7\n", 5), ("# a b\n1 x\n", 2),
    ("# a b\n1 2\n# c d\n", 3), ("# a b\n1 2\n\n3\n", 4), ("# a b\n1 2\n\n3 y\n", 4),
    ("# a b\n1 2\n3 1_5\n", 3), ("# a b\n1 2\n3 \u0661\n", 3),
], ids=["ragged", "ragged_after_blank", "not_a_number", "comment_row", "short_after_blank",
        "not_a_number_after_blank", "underscore", "arabic_indic_one"])
def test_read_names_file_and_row_of_bad_row(tmp_path, text, line):
    """The refusal names the file and the bad row's 1-based line in it, blank lines counted.

    float() alone would read 1_5 as 15, and the Arabic-Indic digit one as 1.
    """
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: line {line}\b"):
        read_table(path)


def test_read_takes_tabs_and_runs_of_spaces_between_cells(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("# a  b\tc\n1\t2   3\n  4 \t 5\t\t-inf  \n")
    names, data = read_table(path)
    assert names == ["a", "b", "c"]
    assert data.dtype == np.float64 and data.flags.writeable
    assert data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, -math.inf]]


def test_no_timestamps_in_output(tmp_path):
    """Writing the same data twice produces identical bytes."""
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    col = np.linspace(0.0, 1.0, 7)
    write_table(p1, ["v"], [col])
    write_table(p2, ["v"], [col])
    assert p1.read_bytes() == p2.read_bytes()


def _per_cell_reference(column_names, columns):
    """The table bytes written one f-string per cell."""
    cols = [np.asarray(c.values if isinstance(c, _Formatted) else c, dtype=np.float64)
            for c in columns]
    n = cols[0].shape[0] if cols else 0
    lines = ["# " + " ".join(column_names)]
    for i in range(n):
        lines.append(" ".join(f"{c[i]:.17g}" for c in cols))
    return ("\n".join(lines) + "\n").encode()


class _Formatted:
    """A column the test passes to write_table as a FormattedColumn."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)


def _as_written(columns):
    return [FormattedColumn(c.values) if isinstance(c, _Formatted) else c for c in columns]


@pytest.mark.parametrize("names, columns", [
    (["v"], [[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
              1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, 1e22, 1e16]]),
    (["a", "b"], [np.empty(0), np.empty(0)]),
    ([], []),
    (["i", "x", "y"], [np.arange(_BLOCK_ROWS + 1.0),
                       np.linspace(-1.0, 1.0, _BLOCK_ROWS + 1),
                       np.geomspace(1e-300, 1e300, _BLOCK_ROWS + 1)]),
    (["i"], [np.arange(2.0 * _BLOCK_ROWS)]),
    (["c", "v"], [np.full(7, math.nan), np.arange(7.0)]),
    (["v", "c"], [np.arange(7.0), np.full(7, math.inf)]),
    (["a", "c", "b"], [np.arange(7.0), np.full(7, -math.inf), -np.arange(7.0)]),
    (["c"], [np.full(_BLOCK_ROWS + 1, 5e-324)]),
    (["c", "d"], [np.full(3, 1.7976931348623157e308), np.full(3, -0.0)]),
    (["z", "v"], [[-0.0, 0.0, -0.0], [1.0, 2.0, 3.0]]),
    (["z"], [[0.0, -0.0]]),
    (["t", "x", "p"], [np.full(9, 0.25), _Formatted(np.linspace(-4.0, 4.0, 9)),
                       np.exp(-np.linspace(-4.0, 4.0, 9) ** 2)]),
    (["x", "t", "p"], [_Formatted(np.linspace(-4.0, 4.0, 9)), np.full(9, 0.25),
                       np.linspace(0.0, 1.0, 9)]),
    (["t", "p", "x"], [np.full(9, 0.25), np.linspace(0.0, 1.0, 9),
                       _Formatted(np.linspace(-4.0, 4.0, 9))]),
    (["x", "y"], [_Formatted([1.0 / 3.0, -0.0]), _Formatted([math.nan, 5e-324])]),
    (["x"], [_Formatted(np.geomspace(1e-300, 1e300, 2 * _BLOCK_ROWS + 3))]),
    (["t", "x", "p"], [np.empty(0), _Formatted(np.empty(0)), np.empty(0)]),
    (["t", "x", "p"], [[2.5], _Formatted([0.1]), [math.pi]]),
    (["t", "x", "p"], [np.full(_BLOCK_ROWS - 1, 1.5), _Formatted(np.arange(_BLOCK_ROWS - 1.0)),
                       np.sqrt(np.arange(_BLOCK_ROWS - 1.0))]),
    (["t", "x", "p"], [np.full(_BLOCK_ROWS, 1.5), _Formatted(np.arange(float(_BLOCK_ROWS))),
                       np.sqrt(np.arange(float(_BLOCK_ROWS)))]),
    (["t", "x", "p"], [np.full(_BLOCK_ROWS + 1, 1.5), _Formatted(np.arange(_BLOCK_ROWS + 1.0)),
                       np.sqrt(np.arange(_BLOCK_ROWS + 1.0))]),
    (["t", "x", "p"], [np.full(2 * _BLOCK_ROWS, 1.5), _Formatted(np.arange(2.0 * _BLOCK_ROWS)),
                       np.cbrt(np.arange(2.0 * _BLOCK_ROWS))]),
], ids=["special", "zero_rows", "zero_columns", "block_plus_one", "two_blocks",
        "const_nan_first", "const_inf_last", "const_neg_inf_middle", "const_tiny_block_plus_one",
        "const_max_and_neg_zero", "mixed_zeros_not_baked", "mixed_zeros_alone",
        "formatted_middle", "formatted_first", "formatted_last", "two_formatted",
        "formatted_alone_three_blocks", "formatted_zero_rows", "formatted_one_row",
        "formatted_block_minus_one", "formatted_block", "formatted_block_plus_one",
        "formatted_two_blocks"])
def test_write_matches_per_cell_formatting(tmp_path, names, columns):
    path = tmp_path / "t.txt"
    write_table(path, names, _as_written(columns))
    assert path.read_bytes() == _per_cell_reference(names, columns)


def test_formatted_column_reused_across_tables(tmp_path):
    x = np.linspace(-2.0, 2.0, _BLOCK_ROWS + 5)
    x_col = FormattedColumn(x)
    assert len(x_col) == x.size
    for t in (0.0, 0.5):
        path = tmp_path / f"f{t}.txt"
        write_table(path, ["t", "x", "p"], [np.full(x.size, t), x_col, np.exp(-x * x)])
        assert path.read_bytes() == _per_cell_reference(
            ["t", "x", "p"], [np.full(x.size, t), x, np.exp(-x * x)])


@pytest.mark.parametrize("formatted_rows, array_rows", [(3, 4), (4, 3), (0, 1)])
def test_formatted_column_length_mismatch_rejected(tmp_path, formatted_rows, array_rows):
    with pytest.raises(ValidationError, match="differing lengths"):
        write_table(tmp_path / "m.txt", ["x", "p"],
                    [FormattedColumn(np.zeros(formatted_rows)), np.zeros(array_rows)])


def test_formatted_column_rejects_2d():
    with pytest.raises(ValidationError):
        FormattedColumn(np.zeros((2, 2)))


_COLUMN_KINDS = st.sampled_from(["array", "constant", "formatted"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, _BLOCK_ROWS + 2), st.lists(_COLUMN_KINDS, min_size=1, max_size=5),
       st.lists(st.floats(), min_size=1, max_size=8))
def test_mixed_column_kinds_match_per_cell_formatting(tmp_path_factory, rows, kinds, pool):
    pool = np.array(pool, dtype=np.float64)
    columns = []
    for j, kind in enumerate(kinds):
        if kind == "constant":
            columns.append(np.full(rows, pool[j % pool.size]))
        else:
            values = np.resize(np.roll(pool, j), rows)
            columns.append(_Formatted(values) if kind == "formatted" else values)
    names = [f"c{j}" for j in range(len(kinds))]
    path = tmp_path_factory.mktemp("mixed") / "v.txt"
    write_table(path, names, _as_written(columns))
    assert path.read_bytes() == _per_cell_reference(names, columns)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(), min_size=0, max_size=40), st.integers(1, 4))
def test_write_matches_per_cell_formatting_property(tmp_path_factory, values, ncols):
    path = tmp_path_factory.mktemp("pc") / "v.txt"
    columns = [np.roll(np.array(values, dtype=np.float64), j) for j in range(ncols)]
    names = [f"c{j}" for j in range(ncols)]
    write_table(path, names, columns)
    assert path.read_bytes() == _per_cell_reference(names, columns)


def _assert_formats_like_percent(format_rows, block):
    """format_rows(block) is '%.17g' % v per cell, ' ' between cells, '\\n' after each row."""
    rows, cols = block.shape
    got = format_rows(block)
    if got != ((" ".join(["%.17g"] * cols) + "\n") * rows) % tuple(block.ravel().tolist()):
        bad = [(v, g) for v, g in zip(block.ravel().tolist(), got.split()) if g != "%.17g" % v]
        pytest.fail(f"format_rows differs from '%.17g' % v (value, text): {bad[:10]}")


def test_format_rows_matches_percent_on_random_bit_patterns(compiled_stencil):
    bits = np.random.default_rng(20261020).integers(0, 2**64, size=10**6, dtype=np.uint64)
    block = bits.view(np.float64).reshape(-1, 4)
    _assert_formats_like_percent(compiled_stencil.format_rows, block)


def _near_ties():
    """Doubles whose 17-digit scaled value D = |v| * 10^(16 - k) lies near an integer + 1/2.

    Built from modular inverses: for v >= 1e39, where the table of 10^q is inexact,
    D = m * 2^(e2 - p) / 5^p, and for 1e-15 <= v < 1e-7, D = m * 5^q / 2^s.
    """
    out = []
    for p in range(23, 28):
        five = 5**p
        for e2 in range(p, p + 80):
            inv = pow(2 ** (e2 - p), -1, five)
            for j in range(-8, 8):
                m = ((five + 1) // 2 + j) * inv % five
                if 2**52 <= m < 2**53 and 10 ** (p + 16) <= m << e2 < 10 ** (p + 17):
                    out.append(math.ldexp(m, e2))
    for q in range(24, 32):
        five = 5**q
        for s in range(56, 67):
            inv = pow(five, -1, 2**s)
            for j in range(-(2 ** (s - 56)), 2 ** (s - 56) + 1):
                m = (2 ** (s - 1) + j) * inv % 2**s
                if 2**52 <= m < 2**53 and 10**16 <= m * five >> s < 10**17:
                    out.append(math.ldexp(m, -q - s))
    return out


def _edge_values():
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000000,
                     0x7FFFFFFFFFFFFFFF, 0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)
    marks = np.array([0.0, 5e-324, sys.float_info.min, sys.float_info.max, 1e-5, 1e-4, 1e16, 1e17]
                     + [2.0**e for e in range(-1074, 1024)]
                     + [float(f"1e{e}") for e in range(-323, 309)])
    below, above = marks.copy(), marks.copy()
    with np.errstate(over="ignore"):  # DBL_MAX's upper neighbour is inf
        for _ in range(4):  # four neighbours each way
            below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
            marks = np.concatenate([marks, below, above])
    n = np.arange(1e15 - 2048, 1e15 + 2048)
    ints = ([float(2**53 + i) for i in range(-64, 65)]
            + [float(10**17 + i) for i in range(-2048, 2049, 7)])
    values = np.concatenate([nans, [math.inf], marks, n + 0.25, n + 0.75, ints, _near_ties()])
    return np.concatenate([values, -values])


def test_format_rows_matches_percent_on_edge_values(compiled_stencil):
    """Signed zeros, infinities, NaNs of both signs and several payloads, subnormals, the
    limits, every power of 2 and of 10, integers around 2^53 and 1e17, exact ties at the
    17th digit, near ties, and the switches to exponent form, each with its neighbours."""
    _assert_formats_like_percent(compiled_stencil.format_rows, _edge_values().reshape(-1, 1))


def test_format_rows_shapes(compiled_stencil):
    fmt = compiled_stencil.format_rows
    assert fmt(np.empty((0, 3))) == "" and fmt(np.empty((2, 0))) == "\n\n"
    assert fmt([[1.5, -0.0], [math.nan, 1e300]]) == "1.5 -0\nnan 1.0000000000000001e+300\n"
    assert fmt(np.arange(6.0).reshape(2, 3).T) == "0 3\n1 4\n2 5\n"  # any strides
    with pytest.raises(ValueError):
        fmt(np.zeros(3))


def test_compiled_writer_memory_is_bounded_by_its_block(monkeypatch, compiled_stencil):
    """A 2^20-row, 3-column table peaks at about one block's text, not at the table's.

    Each format_rows call holds the stacked (512, 3) float64 block (12 KiB), its C
    buffer of at most 25 bytes a cell (38 KiB), the str made from that buffer and the
    file's encoded copy of it (38 KiB each): under 0.2 MiB. The table's text is over
    50 MiB. The 1 MiB bound leaves room for the interpreter's own allocations.
    """
    monkeypatch.setattr(tables, "format_rows", compiled_stencil.format_rows)
    rng = np.random.default_rng(7)
    columns = [rng.random(2**20) for _ in range(3)]
    tracemalloc.start()
    try:
        tables.write_table(os.devnull, ["a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
