"""Shot-noise-limited sensitivity estimates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvkit.magnetometry import (
    MagnetometryError,
    SensorParams,
    sensitivity,
    sensitivity_si,
)

SINGLE = SensorParams(count_rate=30e3, contrast=0.20, readout_window=0.5,
                      t2_star=1.76, t2=494.0)
ENSEMBLE = SensorParams(count_rate=0.9e9, contrast=0.033, readout_window=0.5,
                        t2_star=0.1, t2=1.53)


def test_single_emitter_sensitivities():
    report = sensitivity(SINGLE)
    assert report.eta_dc == pytest.approx(174.9, rel=0.01)
    assert report.eta_ac == pytest.approx(10.4, rel=0.01)


def test_ensemble_sensitivities():
    report = sensitivity(ENSEMBLE)
    assert report.eta_dc == pytest.approx(25.7, rel=0.02)
    assert report.eta_ac == pytest.approx(6.6, rel=0.02)


def test_ac_equals_dc_when_t2_equals_t2_star():
    params = SensorParams(count_rate=30e3, contrast=0.2, readout_window=0.5,
                          t2_star=1.76, t2=1.76)
    report = sensitivity(params)
    assert report.eta_ac == pytest.approx(report.eta_dc, rel=1e-12)


def test_ac_dc_ratio_identity():
    report = sensitivity(SINGLE)
    assert report.eta_ac / report.eta_dc == \
        pytest.approx((SINGLE.t2_star / SINGLE.t2) ** 0.5, rel=1e-12)


def test_parameter_doubling_scalings():
    base = sensitivity(SINGLE).eta_dc
    doubled_c = sensitivity(SensorParams(60e3, 0.20, 0.5, 1.76, 494.0)).eta_dc
    assert doubled_c == pytest.approx(base / 2 ** 0.5, rel=1e-12)
    doubled_contrast = sensitivity(SensorParams(30e3, 0.40, 0.5, 1.76, 494.0)).eta_dc
    assert doubled_contrast == pytest.approx(base / 2.0, rel=1e-12)
    doubled_t2s = sensitivity(SensorParams(30e3, 0.20, 0.5, 3.52, 494.0)).eta_dc
    assert doubled_t2s == pytest.approx(base / 2 ** 0.5, rel=1e-12)


def test_unit_consistency_si_vs_us():
    report = sensitivity(SINGLE)
    eta_dc_si, eta_ac_si = sensitivity_si(30e3, 0.20, 0.5e-6, 1.76e-6, 494e-6)
    assert report.eta_dc == pytest.approx(eta_dc_si * 1e9, rel=1e-12)
    assert report.eta_ac == pytest.approx(eta_ac_si * 1e9, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.1, 10.0))
def test_ac_never_exceeds_dc(scale):
    params = SensorParams(count_rate=30e3 * scale, contrast=0.2,
                          readout_window=0.5, t2_star=1.0, t2=1.0 + 10.0 * scale)
    report = sensitivity(params)
    assert report.eta_ac <= report.eta_dc


def test_invalid_parameters_rejected():
    with pytest.raises(MagnetometryError):
        SensorParams(count_rate=0.0, contrast=0.2, readout_window=0.5,
                     t2_star=1.0, t2=2.0)
    with pytest.raises(MagnetometryError):
        SensorParams(count_rate=1e3, contrast=1.5, readout_window=0.5,
                     t2_star=1.0, t2=2.0)
    with pytest.raises(MagnetometryError):
        SensorParams(count_rate=1e3, contrast=0.2, readout_window=0.5,
                     t2_star=2.0, t2=1.0)
    with pytest.raises(MagnetometryError):
        sensitivity_si(1e3, 0.2, -0.5, 1.0, 2.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("name", ["count_rate", "contrast", "readout_window", "t2_star", "t2"])
def test_nonfinite_parameters_rejected_by_name(name, value):
    fields = dict(count_rate=30e3, contrast=0.2, readout_window=0.5, t2_star=1.76, t2=494.0)
    fields[name] = value
    with pytest.raises(MagnetometryError, match=name):
        SensorParams(**fields)
    si_names = ["count_rate_hz", "contrast", "readout_s", "t2_star_s", "t2_s"]
    si_args = [30e3, 0.2, 0.5e-6, 1.76e-6, 494e-6]
    position = list(fields).index(name)
    si_args[position] = value
    with pytest.raises(MagnetometryError, match=f"^{si_names[position]} "):
        sensitivity_si(*si_args)
