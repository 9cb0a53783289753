"""Text tables, the one numeric boundary of every input, and how a record keeps an array.

A table may open with a header `# <kind> v1 key=value ...`. Data rows hold
whitespace-separated numbers; blank lines and lines starting with `#` are
skipped. Every value must be finite, and every error names `path:line`, except
a file without data rows, which has no line to name.
Writers emit each value as `repr(float(v))`, so a load round-trips bit-identically.

Every module checks its fields and arguments here, raising its own error named
after the field. :func:`numbers` passes what numpy holds as integers or floats
(or complex, for the one complex record) and refuses a bool, string, ``None``,
object or ragged sequence; :func:`require` adds the finite/sign check,
:func:`scalar` the single-number check of every scalar field and argument,
and :func:`whole` the whole-number check. A record keeps no caller's array:
:func:`frozen` gives it a read-only copy, so a checked value stays checked;
:func:`columns` does so for its 1-D columns.
"""

from __future__ import annotations

import math

import numpy as np

_SIGN_TESTS = {"finite": None, "finite and positive": lambda x: x > 0,
               "finite and nonnegative": lambda x: x >= 0}
MIN_POINTS = 8  # the fewest samples an ODMR spectrum or a decay curve may hold


def numbers(error, name, value, dtype=float) -> np.ndarray:
    """``value`` as a ``dtype`` array if numpy holds it as integers or floats, or as
    complex numbers for ``dtype=complex``; else raise ``error`` naming ``name``."""
    what, kinds = ("numeric", "iufc") if dtype is complex else ("real", "iuf")  # bool is "b"
    try:
        a = np.asarray(value)
    except ValueError:  # numpy refuses a ragged sequence
        raise error(f"{name} must be {what}, got a ragged sequence") from None
    if a.dtype.kind not in kinds:
        raise error(f"{name} must be {what}, got {value!r}" if a.ndim == 0 else
                    f"{name} must be {what}, got an array of {a.dtype}")
    return a.astype(dtype, copy=False)


def require(error, name, value, rule="finite", dtype=float):
    """Return ``value`` once every element obeys ``rule``; raise ``error`` naming ``name``.

    A Python float comes back as it is, any other value as :func:`numbers` gives it.
    ``rule`` is "finite", "finite and positive" or "finite and nonnegative".
    A non-finite value gives "<name> must be <rule>"; a finite value of the
    wrong sign gives that and "<name> must be positive" (or "nonnegative").
    An array is reported by its first offending element and that index.
    """
    sign = _SIGN_TESTS[rule]
    if isinstance(value, float):  # a float scalar skips numpy's per-call overhead
        if math.isfinite(value) and (sign is None or sign(value)):
            return value
    elif np.isfinite(a := numbers(error, name, value, dtype)).all() and \
            (sign is None or sign(a).all()):
        return a
    a = np.asarray(value)
    wrong_sign = np.isfinite(a).all()
    ok = sign(a) if wrong_sign else np.isfinite(a)
    also = f"; {name} must be {rule.split()[-1]}" if wrong_sign else ""
    where = np.unravel_index(np.argmin(ok), a.shape)  # the first offending element
    at = f" at index {where[0] if a.ndim == 1 else tuple(map(int, where))}" if a.ndim else ""
    raise error(f"{name} must be {rule}{also}, got {a[where].item()!r}{at}")


def scalar(error, name, value, rule="finite"):
    """Return ``value`` once it is one number that obeys :func:`require`'s ``rule``.

    A sequence or array, even of one element, raises ``error`` naming ``name``:
    "<name> must be a single number, got shape (2,)".
    """
    a = require(error, name, value, rule)
    if isinstance(a, float) or a.ndim == 0:
        return value
    raise error(f"{name} must be a single number, got shape {a.shape}")


def whole(error, name, value, low, high=math.inf) -> int:
    """``value`` as an ``int`` if it passes :func:`numbers` and is a whole number from
    ``low`` to ``high``; else raise ``error`` naming ``name``, the bounds and ``value``."""
    a = numbers(error, name, value)
    if a.ndim or not (float(a).is_integer() and low <= a <= high):
        bounds = f"be at least {low} and whole" if high == math.inf else \
            f"be a whole number from {low} to {high}"
        raise error(f"{name} must {bounds}, got {value!r}")
    return int(a)


def frozen(value, dtype=float, ndmin=0) -> np.ndarray:
    """A read-only copy of ``value`` as a ``dtype`` array of at least ``ndmin`` dimensions."""
    a = np.array(value, dtype=dtype, ndmin=ndmin)
    a.setflags(write=False)  # about 1 us faster than setting a.flags.writeable
    return a


def columns(obj, error, *names):
    """Set fields ``names`` of dataclass ``obj`` to read-only 1-D float copies of one
    length and return them; a scalar counts as one value, and ``error`` names a field
    that is not :func:`numbers` or not 1-D."""
    arrays = [frozen(numbers(error, name, getattr(obj, name)), ndmin=1) for name in names]
    for name, a in zip(names, arrays):
        if a.ndim != 1:
            raise error(f"{name} must be 1-D, got shape {a.shape}")
        object.__setattr__(obj, name, a)
    if len({a.size for a in arrays}) > 1:
        raise error(f"{', '.join(names[:-1])} and {names[-1]} must have equal length")
    return arrays


def parse_header(path, line, kind, keys, error):
    """Check `# <kind> v1 key=value ...` with ``keys`` in order; return the values."""
    parts = line.split()
    if parts[:3] != ["#", kind, "v1"] or len(parts) != 3 + len(keys) or \
            not all(f.startswith(k + "=") for f, k in zip(parts[3:], keys)):
        raise error(f"{path}:1: malformed {kind} header: {line.strip()!r}")
    return [f.split("=", 1)[1] for f in parts[3:]]


def parse_rows(path, lines, first_lineno, ncols, error):
    """Parse rows of ``ncols`` finite numbers; ``lines[0]`` is line ``first_lineno``.

    The values are converted in one numpy call, which parses each token as
    ``float()`` does. Errors name the first offending line: a wrong column
    count or a non-numeric value, whichever comes first, then no data rows,
    then a non-finite value.
    """
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=first_lineno):
        cols = line.split()
        if not cols or cols[0].startswith("#"):
            continue
        if len(cols) != ncols:
            _raise_non_numeric(path, rows, linenos, error)
            raise error(f"{path}:{lineno}: expected {ncols} columns, got {len(cols)}")
        rows.append(cols)
        linenos.append(lineno)
    if not rows:
        raise error(f"{path}: no data rows")
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        _raise_non_numeric(path, rows, linenos, error)
        raise
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise error(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return data


def _raise_non_numeric(path, rows, linenos, error):
    """Raise ``error`` naming the first row holding a value ``float()`` rejects."""
    for lineno, cols in zip(linenos, rows):
        try:
            for c in cols:
                float(c)
        except ValueError:
            raise error(f"{path}:{lineno}: non-numeric value") from None


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
