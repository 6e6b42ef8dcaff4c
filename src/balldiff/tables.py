"""Plain-text column tables: one '#' header line, 17-significant-digit floats.

17 significant digits round-trip any 64-bit float exactly, so golden-file
comparisons and re-parsing are bit-stable across platforms. Data files
carry no timestamps or other run metadata.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError

#: Rows formatted and written per block: bounds the formatting buffer
#: without paying a write call per row.
_BLOCK_ROWS = 512


def write_table(path, column_names: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns; all columns must share one length (0 allowed)."""
    if len(column_names) != len(columns):
        raise ValidationError("one name per column required")
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    lengths = {c.shape[0] for c in cols}
    if len(lengths) > 1:
        raise ValidationError(f"columns have differing lengths {sorted(lengths)}")
    n = cols[0].shape[0] if cols else 0
    line = " ".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + " ".join(column_names) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


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
