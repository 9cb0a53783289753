"""Whitespace-separated text tables: the reader and writer behind every file format.

A table may open with a header `# <kind> v1 key=value ...`. Data rows hold
whitespace-separated numbers; blank lines and lines starting with `#` are
skipped. Every value must be finite, and every error names `path:line`, except
a file without data rows, which has no line to name.
Writers emit each value as `repr(float(v))`, so a load round-trips bit-identically.
"""

from __future__ import annotations

import numpy as np


def parse_header(path, line, kind, keys, error):
    """Check `# <kind> v1 key=value ...` with ``keys`` in order; return the values."""
    parts = line.split()
    if parts[:3] != ["#", kind, "v1"] or len(parts) != 3 + len(keys) or \
            not all(f.startswith(k + "=") for f, k in zip(parts[3:], keys)):
        raise error(f"{path}:1: malformed {kind} header: {line.strip()!r}")
    return [f.split("=", 1)[1] for f in parts[3:]]


def parse_rows(path, lines, first_lineno, ncols, error):
    """Parse rows of ``ncols`` finite numbers; ``lines[0]`` is line ``first_lineno``."""
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=first_lineno):
        cols = line.split()
        if not cols or cols[0].startswith("#"):
            continue
        if len(cols) != ncols:
            raise error(f"{path}:{lineno}: expected {ncols} columns, got {len(cols)}")
        try:
            rows.append([float(c) for c in cols])
        except ValueError:
            raise error(f"{path}:{lineno}: non-numeric value") from None
        linenos.append(lineno)
    if not rows:
        raise error(f"{path}: no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise error(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return data


def read_table(path, kind, keys, ncols, error):
    """Return (header values, data rows); ``kind=None`` means no header line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if kind is None:
        return [], parse_rows(path, lines, 1, ncols, error)
    values = parse_header(path, lines[0] if lines else "", kind, keys, error)
    return values, parse_rows(path, lines[1:], 2, ncols, error)


def write_table(path, header_lines, rows) -> None:
    """Write the header lines, then one line of `repr(float(v))` values per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        for row in np.asarray(rows, dtype=float).tolist():
            fh.write(" ".join(map(repr, row)) + "\n")
