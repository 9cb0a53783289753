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
