"""CSV emission and parsing; all numeric output at 17 significant digits.

float64 round-trips exactly through 17 significant digits, so dumped
tables re-read bit-identically and identical configs produce
byte-identical files.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import numpy as np

from .tables import FunctionTable


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_rows(header: str, rows, out=None) -> str:
    """Render rows to CSV text; write to a path or file object if given.
    A row is one %-format per tuple of its cell types: ``format_value``'s
    ``%d`` at an integer and ``%.17g`` elsewhere."""
    buf = io.StringIO()
    buf.write(header + "\n")
    formats = {}
    for row in map(tuple, rows):
        types = tuple(map(type, row))
        fmt = formats.get(types) or formats.setdefault(types, ",".join(
            "%d" if issubclass(t, (int, np.integer)) else "%.17g"
            for t in types) + "\n")
        buf.write(fmt % row)
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    elif isinstance(out, (str, Path)):
        Path(out).write_text(text)
    else:
        out.write(text)
    return text


def write_table(table: FunctionTable, out=None) -> str:
    """Dump a table as ``n,value`` rows."""
    rows = ((n, table.values[n]) for n in range(1, table.n_max + 1))
    return write_rows("n,value", rows, out)


def read_table_values(path) -> np.ndarray:
    """Read a table dump back into a values array (slot 0 = 0)."""
    lines = Path(path).read_text().splitlines()
    values = [0.0]
    for line in lines[1:]:
        if not line.strip():
            continue
        _, value = line.split(",")
        values.append(float(value))
    return np.asarray(values, dtype=np.float64)
