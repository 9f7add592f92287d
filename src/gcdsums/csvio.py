"""CSV emission; all numeric output at 17 significant digits.

float64 round-trips exactly through 17 significant digits, so dumped
tables re-read bit-identically and identical configs produce
byte-identical files.  Rows are written 1024 at a time, and a table dump
reads its table a block at a time, so it is never held whole.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

import numpy as np

from ._accum import _BLOCK


def write_rows(header: str, rows, out=None, keep: bool = True) -> str:
    """Write header and rows as CSV, 1024 rows at a time, to stdout (out
    None), a path (opened before the first row is formed) or a file object, and
    return the text written (the header alone without ``keep``).  A row is
    one %-format per tuple of its cell types: ``%d`` at an integer and
    ``%.17g`` elsewhere."""
    if isinstance(out, (str, Path)):
        with open(out, "w") as f:
            return write_rows(header, rows, f, keep)
    out, text, formats = out or sys.stdout, [header + "\n"], {}
    out.write(text[0])
    rows = map(tuple, rows)
    while chunk := list(islice(rows, 1024)):
        lines = []
        for row in chunk:
            types = tuple(map(type, row))
            fmt = formats.get(types) or formats.setdefault(types, ",".join(
                "%d" if issubclass(t, (int, np.integer)) else "%.17g"
                for t in types) + "\n")
            lines.append(fmt % row)
        block = "".join(lines)
        out.write(block)
        text += [block] if keep else []
    return "".join(text)


def write_table(table, out=None) -> None:
    """Dump a table as ``n,value`` rows, its values read a block at a time
    and no text kept: a table from ``tables.blocks`` is never whole."""
    # a memoryview yields Python floats one at a time, with no list of them
    end = table.n_max + 1
    rows = (row for lo in range(1, end, _BLOCK) for row in zip(
        range(lo, end), memoryview(table.values[lo:min(lo + _BLOCK, end)])))
    write_rows("n,value", rows, out, keep=False)

