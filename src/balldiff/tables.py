"""Plain-text column tables: one '#' header line, 17-significant-digit floats.

17 significant digits round-trip any 64-bit float exactly, so golden-file
comparisons and re-parsing are bit-stable across platforms. Data files
carry no timestamps or other run metadata.

Every cell is written as ``"%.17g" % value``, but only cells that differ
are formatted per row. A column whose float64 values all have the same
bits (such as a snapshot's time) is formatted once and baked into the row
format. A :class:`FormattedColumn` (such as a run's x axis, shared by
every snapshot table) is formatted once when it is built and reused by
each table it is passed to. Rows are then assembled by C-level joins, so
the bytes are those of the per-cell format either way.
"""
from __future__ import annotations

from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ValidationError

#: Rows formatted and written per block: bounds the formatting buffer
#: without paying a write call per row.
_BLOCK_ROWS = 512


class FormattedColumn:
    """A float column formatted once, for a column several tables share.

    Holds one newline-joined string per :data:`_BLOCK_ROWS` rows rather
    than one ``str`` per value. The text comes only from ``%.17g`` of
    floats, so it never contains ``%`` and can be spliced into a format.
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

    A column is an array-like of floats or a :class:`FormattedColumn`. Makes missing directories.
    """
    if len(column_names) != len(columns):
        raise ValidationError("one name per column required")
    cols = [c if isinstance(c, FormattedColumn) else np.asarray(c, dtype=np.float64)
            for c in columns]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValidationError(f"columns have differing lengths {sorted(lengths)}")
    n = len(cols[0]) if cols else 0

    # The row is statics[0] + text_0 + statics[1] + text_1 + ... + statics[-1],
    # with the formatted columns' text between the static pieces.
    statics = [""]
    texts: list[FormattedColumn] = []
    floats: list[np.ndarray] = []  # formatted per cell, in row order
    for j, c in enumerate(cols):
        sep = " " if j else ""
        if isinstance(c, FormattedColumn):
            statics[-1] += sep
            texts.append(c)
            statics.append("")
            continue
        bits = c.view(np.uint64)  # bitwise: -0.0 is not 0.0, NaN payloads differ
        if n and (bits == bits[0]).all():
            statics[-1] += sep + "%.17g" % c[0]
        else:
            statics[-1] += sep + "%.17g"
            floats.append(c)
    statics[-1] += "\n"

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + " ".join(column_names) + "\n")
        for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
            rows = min(_BLOCK_ROWS, n - start)
            if texts:
                pieces = [repeat(statics[0])]
                for text, static in zip(texts, statics[1:]):
                    pieces += [text._blocks[b].split("\n"), repeat(static)]
                line = "".join(chain.from_iterable(zip(*pieces)))
            else:
                line = statics[0] * rows
            cells = [c[start:start + rows] for c in floats]
            fh.write(line % (tuple(np.column_stack(cells).ravel().tolist()) if cells else ()))


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Parse a table back into (column_names, data) with data shaped (rows, cols)."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValidationError(f"{path}: missing '#' header line")
    names = lines[0][1:].split()
    rows = [line.split() for line in lines[1:] if line.strip()]
    if not rows:
        return names, np.empty((0, len(names)))
    data = np.array([[float(v) for v in row] for row in rows])
    if data.shape[1] != len(names):
        raise ValidationError(
            f"{path}: {data.shape[1]} data columns but {len(names)} header names"
        )
    return names, data
