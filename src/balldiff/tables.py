"""Plain-text column tables: one '#' header line, 17-significant-digit floats.

17 significant digits round-trip any 64-bit float exactly, so golden-file
comparisons and re-parsing are bit-stable across platforms. Data files
carry no timestamps or other run metadata.

Every cell is written as ``"%.17g" % value``, through one row format per
table that a single ``%`` fills for each block of rows. A column whose
float64 values all have the same bits (such as a snapshot's time) is
formatted once and baked into the row format, which it cannot disturb:
a float's text never contains ``%``. A :class:`FormattedColumn`
(such as a run's x axis, shared by every snapshot table) is formatted once
when it is built and fills a ``%s`` of each row. So the bytes are those of
the per-cell format either way.
"""
from __future__ import annotations

from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ValidationError

#: Rows formatted and written per block: bounds the formatting buffer
#: without paying a write call per row.
_BLOCK_ROWS = 512


class FormattedColumn:
    """A float column formatted once, for a column several tables share.

    Holds one newline-joined string per :data:`_BLOCK_ROWS` rows rather
    than one ``str`` per value; :func:`write_table` splits a block when it
    writes that block's rows.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValidationError(f"a formatted column must be 1-d, got shape {v.shape}")
        self._rows = v.shape[0]
        self._blocks = []
        for start in range(0, v.shape[0], _BLOCK_ROWS):
            chunk = v[start:start + _BLOCK_ROWS].tolist()
            self._blocks.append("\n".join(["%.17g"] * len(chunk)) % tuple(chunk))

    def __len__(self) -> int:
        return self._rows


def write_table(path, column_names: list[str], columns: list) -> None:
    """Write named columns; all columns must share one length (0 allowed).

    A column is a 1-d array-like of floats or a :class:`FormattedColumn`.
    Makes missing directories.
    """
    if len(column_names) != len(columns):
        raise ValidationError("one name per column required")
    cols = [c if isinstance(c, FormattedColumn) else np.asarray(c, dtype=np.float64)
            for c in columns]
    if any(not isinstance(c, FormattedColumn) and c.ndim != 1 for c in cols):
        raise ValidationError("table columns must be 1-d")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValidationError(f"columns have differing lengths {sorted(lengths)}")
    n = len(cols[0]) if cols else 0

    items, cells = [], []  # the row format's item per column; the columns that fill items
    for c in cols:
        formatted = isinstance(c, FormattedColumn)
        bits = None if formatted else c.view(np.uint64)  # -0.0 is not 0.0, NaN payloads differ
        if not formatted and n and (bits == bits[0]).all():
            items.append("%.17g" % c[0])  # baked in
        else:
            items.append("%s" if formatted else "%.17g")
            cells.append(c)
    row = " ".join(items) + "\n"

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + " ".join(column_names) + "\n")
        for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
            rows = min(_BLOCK_ROWS, n - start)
            block = [c._blocks[b].split("\n") if isinstance(c, FormattedColumn)
                     else c[start:start + rows].tolist() for c in cells]
            fh.write((row * rows) % tuple(chain.from_iterable(zip(*block))))


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Parse a table back into (column_names, data) with data shaped (rows, cols).

    Skips blank lines. Refuses a table without its header line, and a row that
    does not hold one number per header name, naming the file and the row's line.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValidationError(f"{path}: missing '#' header line")
    names = lines[0][1:].split()
    cells, rows = array("d"), 0
    for no, line in enumerate(lines[1:], start=2):
        row = line.split()
        if not row:
            continue
        if len(row) != len(names):
            raise ValidationError(f"{path}: line {no} holds {len(row)} numbers for "
                                  f"{len(names)} header names")
        if "_" in line or not line.isascii():  # float() reads 1_5 as 15, and non-ASCII digits
            raise ValidationError(f"{path}: line {no}: {line.strip()!r} is not plain numbers")
        try:
            cells.extend(map(float, row))
        except ValueError as exc:
            raise ValidationError(f"{path}: line {no}: {exc}") from None
        rows += 1
    return names, np.frombuffer(cells, dtype=np.float64).reshape(rows, len(names))
