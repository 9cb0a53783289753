"""Every text loader on random input: a typed error or finite arrays, nothing else."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvkit import tables
from nvkit.confocal import ConfocalError, load_map
from nvkit.dynamics import DynamicsError, load_curve
from nvkit.odmr import OdmrError, load_spectrum
from nvkit.photon_stats import PhotonStatsError, load_g2, load_saturation

# loader, its typed error, the header a valid file starts with, the arrays it returns
LOADERS = {
    "odmr": (load_spectrum, OdmrError, "# odmr v1 mode=cw\n",
             lambda r: [r.freqs, r.signal, r.sigma]),
    "decay": (load_curve, DynamicsError, "# decay v1 kind=fid\n",
              lambda r: [r.times, r.signal, r.sigma]),
    "g2": (load_g2, PhotonStatsError, "# g2 v1\n", lambda r: [r.taus, r.g2, r.sigma]),
    "saturation": (load_saturation, PhotonStatsError, "", list),
    "plmap": (load_map, ConfocalError,
              "# plmap v1 dims=2 power_mW=0.3\n# axis x: 2 0.0 1.0\n# axis y: 2 0.0 1.0\n",
              lambda r: [*r.axes, r.counts, r.power]),
}

TOKENS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(0, 3000).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "abc", "0x1", "#", "#x"]),
)
LINES = st.lists(st.lists(TOKENS, min_size=0, max_size=4).map(" ".join),
                 min_size=0, max_size=10)


@pytest.mark.parametrize("fmt", sorted(LOADERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(with_header=st.booleans(), lines=LINES)
def test_loader_raises_typed_error_or_returns_finite(tmp_path, fmt, with_header, lines):
    loader, error, header, arrays = LOADERS[fmt]
    path = tmp_path / "fuzz.txt"
    path.write_text((header if with_header else "") + "".join(line + "\n" for line in lines))
    try:
        result = loader(path)
    except error:
        return
    assert all(np.all(np.isfinite(a)) for a in arrays(result))


class _TableError(ValueError):
    pass


def _reference_parse_rows(path, lines, first_lineno, ncols, error):
    """parse_rows as a per-row float() loop."""
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


def _outcome(parse, lines, ncols):
    try:
        return parse("t.txt", lines, 2, ncols, _TableError)
    except _TableError as exc:
        return str(exc)


MORE_TOKENS = st.one_of(TOKENS, st.sampled_from(
    ["1_0", "infinity", "1e-400", "0x10", "１２", "1e", "+.5", "-0.0", "1__0"]))


def _table(ncols):
    """Mostly rows of ``ncols`` tokens, some lines of any length."""
    row = st.lists(MORE_TOKENS, min_size=ncols, max_size=ncols).map(" ".join)
    line = st.lists(MORE_TOKENS, min_size=0, max_size=4).map(" ".join)
    return st.tuples(st.lists(st.one_of(row, row, row, line), max_size=12), st.just(ncols))


@settings(max_examples=300, deadline=None)
@given(table=st.integers(1, 3).flatmap(_table))
def test_parse_rows_matches_the_float_loop(table):
    lines, ncols = table
    got = _outcome(tables.parse_rows, lines, ncols)
    expected = _outcome(_reference_parse_rows, lines, ncols)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes() and got.shape == expected.shape


# integers, float32, nested lists and 0-d arrays, each as numpy would cast it to float
CASTS = {
    "int": 3, "numpy int": np.int64(-2), "int array": np.arange(4),
    "int8 array": np.arange(-3, 3, dtype=np.int8), "uint array": np.arange(4, dtype=np.uint16),
    "float32": np.float32(0.1), "float32 array": np.linspace(0.0, 1.0, 5, dtype=np.float32),
    "list": [1, 2.5, -3], "nested list": [[1, 2], [3.25, 4]], "0-d float": np.array(2.5),
    "0-d int": np.array(7), "float16 array": np.array([0.1, 65504.0], dtype=np.float16),
}


@pytest.mark.parametrize("value", CASTS.values(), ids=CASTS.keys())
def test_require_returns_the_float_array_numpy_casts_bit_for_bit(value):
    got = tables.require(_TableError, "x", value)
    expected = np.asarray(value, dtype=float)
    assert isinstance(got, np.ndarray) and got.dtype == expected.dtype
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_require_returns_a_float_as_the_same_object():
    for value in (2.5, -0.0, 1e300, np.float64(-1.0)):
        assert tables.require(_TableError, "x", value) is value


NOT_REAL = {
    "bool": (True, "x must be real, got True"),
    "bool array": (np.array([True, False]), "x must be real, got an array of bool"),
    "complex": (1 + 1j, r"x must be real, got \(1\+1j\)"),
    "complex array": (np.array([1.0, 2.0], dtype=complex),
                      "x must be real, got an array of complex128"),
    "string": ("2", "x must be real, got '2'"),
    "None": (None, "x must be real, got None"),
    "object": (object(), "x must be real, got <object object"),
    "list with None": ([1.0, None], "x must be real, got an array of object"),
    "ragged": ([1.0, [2.0, 3.0]], "x must be real, got a ragged sequence"),
}


@pytest.mark.parametrize("value, message", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_require_refuses_what_is_not_real_before_its_finite_check(value, message):
    with pytest.raises(_TableError, match=message):
        tables.require(_TableError, "x", value, "finite and positive")
    with pytest.raises(_TableError, match=message):
        tables.numbers(_TableError, "x", value)


def test_numbers_takes_complex_only_when_asked():
    value = np.array([[1.0, 1j], [-1j, 2.0]])
    assert tables.numbers(_TableError, "h", value, complex) is value
    assert tables.require(_TableError, "h", value, dtype=complex) is value
    with pytest.raises(_TableError, match="h must be numeric, got 'ab'"):
        tables.numbers(_TableError, "h", "ab", complex)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float32(3.0), np.array(3)])
def test_whole_returns_an_int(value):
    got = tables.whole(_TableError, "n", value, 1, 5)
    assert got == 3 and type(got) is int


@pytest.mark.parametrize("value, message", [
    (2.5, "n must be a whole number from 1 to 5, got 2.5"),
    (np.nan, "n must be a whole number from 1 to 5, got nan"),
    (np.inf, "n must be a whole number from 1 to 5, got inf"),
    (0, "n must be a whole number from 1 to 5, got 0"),
    (6.0, "n must be a whole number from 1 to 5, got 6.0"),
    ([2], r"n must be a whole number from 1 to 5, got \[2\]"),
    (True, "n must be real, got True"),
    ("2", "n must be real, got '2'"),
    (None, "n must be real, got None"),
    (2 + 0j, r"n must be real, got \(2\+0j\)"),
], ids=["fraction", "nan", "inf", "below", "above", "list", "bool", "string", "None", "complex"])
def test_whole_refuses_what_is_not_a_whole_number_in_bounds(value, message):
    with pytest.raises(_TableError, match=f"^{message}$"):
        tables.whole(_TableError, "n", value, 1, 5)


def test_whole_without_an_upper_bound():
    assert tables.whole(_TableError, "n", 10**6, 1) == 10**6
    with pytest.raises(_TableError, match="^n must be at least 1 and whole, got 0.5$"):
        tables.whole(_TableError, "n", 0.5, 1)


@pytest.mark.parametrize("value", [2.5, 3, np.float64(2.5), np.int64(3), np.array(2.5)])
def test_scalar_returns_one_number_as_it_is(value):
    assert tables.scalar(_TableError, "x", value, "finite and positive") is value


@pytest.mark.parametrize("value, message", [
    ([2.5, 3.0], r"x must be a single number, got shape \(2,\)"),
    ([2.5], r"x must be a single number, got shape \(1,\)"),
    (np.ones((1, 1)), r"x must be a single number, got shape \(1, 1\)"),
    ([], r"x must be a single number, got shape \(0,\)"),
    ([np.nan, 1.0], "x must be finite and positive, got nan at index 0"),
    (-1.0, "x must be finite and positive; x must be positive, got -1.0"),
    ("2", "x must be real, got '2'"),
], ids=["pair", "one-element list", "1x1 array", "empty", "nan in a list", "negative", "string"])
def test_scalar_refuses_a_sequence_after_the_rule_of_require(value, message):
    with pytest.raises(_TableError, match=f"^{message}$"):
        tables.scalar(_TableError, "x", value, "finite and positive")
