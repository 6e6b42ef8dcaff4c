"""Table serialization: exact float round-trips and header handling."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balldiff import ValidationError
from balldiff.tables import _BLOCK_ROWS, FormattedColumn, read_table, write_table


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
