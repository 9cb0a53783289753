"""Confocal maps, Gaussian slice fits, density estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvkit.confocal import (
    ConfocalError,
    DensityMethod,
    MapFormatError,
    PLMap,
    PsfModel,
    enhancement_ratio,
    estimate_density,
    fit_gaussian_slice,
    gaussian_profile,
    gaussian_uniform_ratio,
    load_map,
    number_density_to_ppb,
    ppb_to_number_density,
    save_map,
)
from nvkit.fitting import FitError

PSF = PsfModel(0.45, 0.45, 2.0)


def gaussian_map(fwhm_x=4.53, fwhm_y=2.0, amplitude=1000.0, baseline=50.0,
                 noise=0.0, seed=0):
    x = np.linspace(-8.0, 8.0, 81)
    y = np.linspace(-6.0, 6.0, 61)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    counts = baseline + amplitude * np.exp(
        -4.0 * np.log(2.0) * (gx ** 2 / fwhm_x ** 2 + gy ** 2 / fwhm_y ** 2))
    if noise:
        counts = counts + np.random.default_rng(seed).normal(0, noise, counts.shape)
        counts = np.clip(counts, 0.0, None)
    return PLMap(axes=(x, y), counts=counts, power=0.3)


# ---------------------------------------------------------------------------
# density estimation

def test_density_reproduces_published_range():
    low = estimate_density(9.28e6, 7.7e3, PSF, DensityMethod.GAUSSIAN)
    high = estimate_density(14.46e6, 7.7e3, PSF, DensityMethod.GAUSSIAN)
    assert low.ppb == pytest.approx(14.0, rel=0.03)
    assert high.ppb == pytest.approx(21.9, rel=0.03)


def test_density_pristine_region():
    est = estimate_density(16.1e3, 7.7e3, PSF, DensityMethod.GAUSSIAN)
    assert est.ppb == pytest.approx(0.024, rel=0.05)


def test_density_unit_case():
    # PSF chosen so the Gaussian integral volume is exactly 1 um^3
    side = 1.0 / np.sqrt(np.pi / (4.0 * np.log(2.0)))
    psf = PsfModel(side, side, side)
    est = estimate_density(100.0, 100.0, psf, DensityMethod.GAUSSIAN)
    assert est.number_density == pytest.approx(1.0, abs=1e-12)


def test_gaussian_uniform_constant_ratio():
    expected = (4.0 * np.pi / 3.0) / (np.pi / (4.0 * np.log(2.0))) ** 1.5
    assert gaussian_uniform_ratio() == pytest.approx(expected, abs=1e-12)
    for psf in (PSF, PsfModel(1.0, 2.0, 3.0), PsfModel(0.1, 0.1, 0.1)):
        gauss = estimate_density(5e5, 1e3, psf, DensityMethod.GAUSSIAN)
        unif = estimate_density(5e5, 1e3, psf, DensityMethod.UNIFORM)
        assert gauss.number_density / unif.number_density == \
            pytest.approx(expected, abs=1e-9)


def test_density_linearity_scalings():
    base = estimate_density(1e6, 1e4, PSF)
    assert estimate_density(2e6, 1e4, PSF).number_density == \
        pytest.approx(2.0 * base.number_density)
    assert estimate_density(1e6, 2e4, PSF).number_density == \
        pytest.approx(0.5 * base.number_density)
    wide = PsfModel(2 * PSF.w_x, PSF.w_y, PSF.w_z)
    assert estimate_density(1e6, 1e4, wide).number_density == \
        pytest.approx(0.5 * base.number_density)


@pytest.mark.parametrize("method", ["gaussian", "uniform", None, 0],
                         ids=["gaussian", "uniform", "None", "int"])
def test_density_refuses_a_method_that_is_not_a_density_method(method):
    # a DensityMethod value is not a member: the string "gaussian" is refused too
    with pytest.raises(ConfocalError, match=f"unknown density method {method!r}"):
        estimate_density(1e6, 1e4, PSF, method)


def test_density_rejects_bad_rates():
    with pytest.raises(ConfocalError):
        estimate_density(1e6, 0.0, PSF)
    with pytest.raises(ConfocalError):
        estimate_density(-1.0, 1e3, PSF)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfocalError, match="c_ensemble"):
            estimate_density(bad, 1e3, PSF)
        with pytest.raises(ConfocalError, match="c_single"):
            estimate_density(1e6, bad, PSF)
        for field in ("w_x", "w_y", "w_z"):
            widths = dict(w_x=0.45, w_y=0.45, w_z=2.0)
            widths[field] = bad
            with pytest.raises(ConfocalError, match=field):
                PsfModel(**widths)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_ppb_number_density_bijection(per_um3):
    assert ppb_to_number_density(number_density_to_ppb(per_um3)) == \
        pytest.approx(per_um3, rel=1e-12)


def test_enhancement_ratio():
    assert enhancement_ratio(900.0, 1.0) == 900.0
    assert enhancement_ratio(5.0, 5.0) == 1.0
    with pytest.raises(ConfocalError):
        enhancement_ratio(1.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfocalError, match="region_a"):
            enhancement_ratio(bad, 1.0)
        with pytest.raises(ConfocalError, match="region_b"):
            enhancement_ratio(1.0, bad)


def test_enhancement_consistent_with_density_linearity():
    # density scales linearly with the ensemble rate, so the PL ratio is
    # also the concentration ratio
    in_wg = estimate_density(9.28e6, 7.7e3, PSF)
    pristine = estimate_density(16.1e3, 7.7e3, PSF)
    assert in_wg.ppb / pristine.ppb == \
        pytest.approx(enhancement_ratio(9.28e6, 16.1e3), rel=1e-9)


# ---------------------------------------------------------------------------
# slice fits

def test_slice_fit_recovers_waveguide_width():
    plmap = gaussian_map(noise=10.0, seed=3)
    fit = fit_gaussian_slice(plmap, 0, (30,))
    assert fit.fwhm == pytest.approx(4.53, rel=0.05)


def test_slice_fit_noiseless_exact():
    plmap = gaussian_map()
    fit = fit_gaussian_slice(plmap, 0, (30,))
    assert fit.fwhm == pytest.approx(4.53, rel=1e-6)
    assert fit.baseline == pytest.approx(50.0, rel=1e-3)


def test_slice_fit_psf_aspect_ratio():
    x = np.linspace(-1.5, 1.5, 61)
    z = np.linspace(-5.0, 5.0, 81)
    gx, gz = np.meshgrid(x, z, indexing="ij")
    counts = 500.0 * np.exp(-4 * np.log(2) * (gx ** 2 / 0.45 ** 2 + gz ** 2 / 2.0 ** 2))
    plmap = PLMap(axes=(x, z), counts=counts, power=0.1)
    fx = fit_gaussian_slice(plmap, 0, (40,))
    fz = fit_gaussian_slice(plmap, 1, (30,))
    assert fx.fwhm == pytest.approx(0.45, rel=0.05)
    assert fz.fwhm == pytest.approx(2.0, rel=0.05)
    assert fz.fwhm / fx.fwhm == pytest.approx(4.44, rel=0.05)


def test_slice_fit_baseline_shift_invariance():
    a = gaussian_map(baseline=50.0, noise=5.0, seed=7)
    b = PLMap(axes=a.axes, counts=a.counts + 300.0, power=a.power)
    fit_a = fit_gaussian_slice(a, 0, (30,))
    fit_b = fit_gaussian_slice(b, 0, (30,))
    assert fit_b.fwhm == pytest.approx(fit_a.fwhm, rel=1e-3)
    assert fit_b.baseline - fit_a.baseline == pytest.approx(300.0, rel=1e-3)


@pytest.mark.parametrize("field, bad", [
    ("counts", float("nan")), ("counts", float("inf")),
    ("power", float("nan")), ("power", float("inf")),
    ("axis", float("inf")),
])
def test_plmap_rejects_nonfinite_values(field, bad):
    x = np.linspace(0.0, 1.0, 4)
    axes, counts, power = [x, x.copy()], np.ones((4, 4)), 0.3
    if field == "counts":
        counts[1, 2] = bad
    elif field == "power":
        power = bad
    else:
        axes[1][-1] = bad
    with pytest.raises(ConfocalError, match=field):
        PLMap(axes=tuple(axes), counts=counts, power=power)


@pytest.mark.parametrize("shape, name", [((0, 2), "x"), ((2, 0), "y"), ((2, 2, 0), "z")])
def test_plmap_refuses_an_empty_axis(shape, name):
    axes = tuple(np.arange(float(n)) for n in shape)
    with pytest.raises(ConfocalError, match=f"^axis {name} must hold a value$"):
        PLMap(axes=axes, counts=np.zeros(shape), power=1.0)


@pytest.mark.parametrize("index", [61, -1, 30.7])
def test_slice_index_must_be_a_whole_number_inside_its_axis(index):
    # the fixed axis y has 61 points: 61 is past its end, -1 does not count
    # from the end, and 30.7 is not truncated to 30
    with pytest.raises(ConfocalError, match="index"):
        fit_gaussian_slice(gaussian_map(), 0, (index,))


def inverted_dip_map():
    """A 41 x 5 map whose x slices dip: 100 - 50 exp(-4 ln2 x^2 / 0.5^2)."""
    x, y = np.linspace(-2.0, 2.0, 41), np.linspace(0.0, 1.0, 5)
    dip = 100.0 - 50.0 * np.exp(-4.0 * np.log(2.0) * x ** 2 / 0.5 ** 2)
    return PLMap(axes=(x, y), counts=np.tile(dip[:, None], (1, 5)), power=1.0)


def test_slice_fit_refuses_a_bound_pinned_fit():
    # a dip has no peak of nonnegative amplitude: the fit ends on three bounds
    with pytest.raises(FitError, match="ended on a bound: amplitude=0, center=6, fwhm=4e-06"):
        fit_gaussian_slice(inverted_dip_map(), 0, (2,))


def test_slice_fit_flat_slice_rejected():
    x = np.linspace(0.0, 1.0, 10)
    plmap = PLMap(axes=(x, x), counts=np.ones((10, 10)), power=1.0)
    with pytest.raises(ValueError):
        fit_gaussian_slice(plmap, 0, (5,))


def test_gaussian_profile_fwhm_definition():
    prof = gaussian_profile(np.array([0.0, 2.265]), 100.0, 0.0, 4.53, 0.0)
    assert prof[1] == pytest.approx(prof[0] / 2.0)


# ---------------------------------------------------------------------------
# file format

def test_map_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    axes = (np.linspace(0, 6.3, 64), np.linspace(0, 6.3, 64),
            np.linspace(0, 3.1, 32))
    counts = rng.random((64, 64, 32)) * 1e5
    plmap = PLMap(axes=axes, counts=counts, power=0.3)
    path = tmp_path / "map3d.txt"
    save_map(path, plmap)
    back = load_map(path)
    assert back.power == plmap.power
    assert all(np.array_equal(a, b) for a, b in zip(back.axes, plmap.axes))
    assert np.array_equal(back.counts, plmap.counts)

    save_map(path, PLMap(axes=([0.0, 0.5], [-1.0, 1.0, 2.0]),
                         counts=[[1.0, 2.5, 3.0], [4.0, 0.0, 1e-07]], power=0.3))
    assert path.read_text() == ("# plmap v1 dims=2 power_mW=0.3\n"
                                "# axis x: 2 0.0 0.5\n"
                                "# axis y: 3 -1.0 1.0 2.0\n"
                                "1.0 2.5 3.0\n4.0 0.0 1e-07\n")
    assert load_map(path).counts[1, 2] == 1e-7


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(0, 3), min_size=2, max_size=3), data=st.data())
def test_every_map_plmap_accepts_loads_back(tmp_path_factory, shape, data):
    axes = tuple(data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n,
                                    unique=True).map(sorted), label=f"axis {k}")
                 for k, n in enumerate(shape))
    counts = data.draw(st.lists(st.floats(min_value=0.0), min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))), label="counts")
    power = data.draw(st.floats(min_value=0.0, exclude_min=True), label="power")
    try:
        plmap = PLMap(axes=axes, counts=np.reshape(counts, shape), power=power)
    except ConfocalError:
        return
    path = tmp_path_factory.mktemp("map") / "map.txt"
    save_map(path, plmap)
    back = load_map(path)
    assert back.power == plmap.power
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.axes, plmap.axes))
    assert back.counts.tobytes() == plmap.counts.tobytes()


def test_map_small_2x2(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# plmap v1 dims=2 power_mW=0.3\n"
                    "# axis x: 2 0.0 1.0\n"
                    "# axis y: 2 0.0 1.0\n"
                    "1.0 2.0\n# comment\n\n3.0 4.0\n")
    plmap = load_map(path)
    assert plmap.counts.shape == (2, 2)
    assert plmap.counts[1, 0] == 3.0


def test_map_header_errors(tmp_path):
    bad = tmp_path / "h.txt"
    bad.write_text("# plmop v1 dims=2 power_mW=0.3\n")
    with pytest.raises(MapFormatError, match=":1:"):
        load_map(bad)


def test_map_descending_axis_error(tmp_path):
    bad = tmp_path / "axis.txt"
    bad.write_text("# plmap v1 dims=2 power_mW=0.3\n"
                    "# axis x: 2 1.0 0.0\n"
                    "# axis y: 2 0.0 1.0\n"
                    "1.0 2.0\n3.0 4.0\n")
    with pytest.raises(MapFormatError, match=":2:"):
        load_map(bad)


@pytest.mark.parametrize("values, message", [
    ("3 0.0 nan 2.0", "non-finite value"), ("3 0.0 1.0 inf", "non-finite value"),
    ("3 -inf 0.0 1.0", "non-finite value"), ("3 0.0 1.0 1e400", "non-finite value"),
    ("3 0.0 abc 2.0", "non-numeric value"), ("3 0.0 1.0 2.0 3.0", "expected 3 columns, got 4"),
    ("3 0.0 1.0", "expected 3 columns, got 2"), ("3", "bad axis values"),
    ("0", "bad axis values"), ("2 #0.0 1.0", "bad axis values"),
])
def test_map_axis_values_follow_the_data_row_rules(tmp_path, values, message):
    bad = tmp_path / "axis.txt"
    bad.write_text("# plmap v1 dims=2 power_mW=0.3\n"
                   f"# axis x: {values}\n"
                   "# axis y: 2 0.0 1.0\n"
                   "1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    with pytest.raises(MapFormatError) as info:
        load_map(bad)
    assert str(info.value) == f"{bad}:2: {message}"


def test_map_ragged_row_error(tmp_path):
    bad = tmp_path / "ragged.txt"
    bad.write_text("# plmap v1 dims=2 power_mW=0.3\n"
                    "# axis x: 2 0.0 1.0\n"
                    "# axis y: 2 0.0 1.0\n"
                    "1.0 2.0\n3.0\n")
    with pytest.raises(MapFormatError, match=":5:"):
        load_map(bad)
    bad.write_text("# plmap v1 dims=2 power_mW=0.3\n"
                    "# axis x: 2 0.0 1.0\n"
                    "# axis y: 2 0.0 1.0\n"
                    "1.0 2.0\n3.0 nan\n")
    with pytest.raises(MapFormatError, match=":5: non-finite"):
        load_map(bad)
