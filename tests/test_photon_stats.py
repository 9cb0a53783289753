"""Photon correlation and PL saturation."""

import numpy as np
import pytest

from nvkit.fitting import FitError
from nvkit.noise import NoiseSpec
from nvkit.photon_stats import (
    G2Curve,
    PhotonStatsError,
    SaturationFit,
    fit_g2,
    fit_saturation,
    g2_model,
    load_g2,
    load_saturation,
    save_g2,
    saturation_model,
    synthesize_g2,
)

# antibunching plus two bunching components of a representative single
# emitter, with the standard errors of the source fit
REF_PARAMS = np.array([0.275, 1.481, 9.48, 0.365, 114.0, 0.313, 312.0])
REF_ERRORS = np.array([0.012, 0.011, 0.12, 0.061, 17.0, 0.067, 29.0])


def reference_grid():
    core = np.arange(-25.0, 25.001, 0.0125)
    wing = np.arange(25.4, 2000.0, 0.4)
    return np.sort(np.concatenate([core, wing, -wing]))


# ---------------------------------------------------------------------------
# model evaluation

def test_g2_at_dip_center():
    value = g2_model(REF_PARAMS[0], REF_PARAMS)
    assert value == pytest.approx(1.0 - 1.481 + 0.365 + 0.313, abs=1e-12)
    assert value == pytest.approx(0.197, abs=1e-3)
    assert value < 0.2


def test_g2_asymptote():
    assert g2_model(REF_PARAMS[0] + 1e5, REF_PARAMS) == pytest.approx(1.0, abs=1e-6)


def test_g2_zero_amplitudes_is_flat():
    params = np.array([0.0, 0.0, 1.0, 0.0, 10.0, 0.0, 100.0])
    taus = np.linspace(-50.0, 50.0, 31)
    assert np.allclose(g2_model(taus, params), 1.0)


def test_g2_symmetric_about_offset():
    x = np.linspace(0.0, 500.0, 101)
    left = g2_model(REF_PARAMS[0] - x, REF_PARAMS)
    right = g2_model(REF_PARAMS[0] + x, REF_PARAMS)
    assert np.array_equal(left, right)


def test_g2_monotone_recovery_without_bunching():
    params = np.array([0.0, 0.9, 5.0, 0.0, 100.0, 0.0, 300.0])
    x = np.linspace(0.0, 60.0, 200)
    values = g2_model(x, params)
    assert np.all(np.diff(values) > 0)


# ---------------------------------------------------------------------------
# fitting

def test_fit_noiseless_from_truth_is_exact():
    taus = reference_grid()
    curve = synthesize_g2(taus, REF_PARAMS)
    fit = fit_g2(curve, init=REF_PARAMS)
    assert np.allclose(fit.as_array(), REF_PARAMS, rtol=1e-6)
    assert fit.converged


def test_fit_roundtrip_with_noise():
    taus = reference_grid()
    curve = synthesize_g2(taus, REF_PARAMS,
                          noise=NoiseSpec("gaussian", sigma=0.02, seed=123))
    fit = fit_g2(curve)
    assert np.all(np.abs(fit.as_array() - REF_PARAMS) <= REF_ERRORS)
    assert fit.tau1 < fit.tau2 < fit.tau3


def test_fit_flat_curve_gives_zero_amplitudes():
    taus = np.linspace(-500.0, 500.0, 400)
    fit = fit_g2(G2Curve(taus, np.ones(taus.size), np.full(taus.size, 0.01)))
    assert abs(fit.c1) < 1e-2
    assert abs(fit.c2) < 1e-2
    assert abs(fit.c3) < 1e-2


def test_fit_noisy_flat_curve_amplitudes_within_error():
    rng = np.random.default_rng(5)
    taus = np.linspace(-500.0, 500.0, 400)
    g2 = 1.0 + rng.normal(0.0, 0.01, taus.size)
    fit = fit_g2(G2Curve(taus, g2, np.full(taus.size, 0.01)))
    for amp, err in ((fit.c1, fit.errors[1]), (fit.c2, fit.errors[3]),
                     (fit.c3, fit.errors[5])):
        assert abs(amp) <= max(3.0 * err, 0.1)


@pytest.mark.parametrize("field", ["taus", "g2", "sigma"])
def test_g2_curve_rejects_nonfinite_values(field):
    columns = dict(taus=np.linspace(-5.0, 5.0, 20), g2=np.ones(20), sigma=np.full(20, 0.01))
    columns[field][3] = np.nan
    with pytest.raises(PhotonStatsError, match=field):
        G2Curve(**columns)


def test_g2_curve_rejects_negative_sigma():
    sigma = np.full(20, 0.01)
    sigma[3] = -0.01
    with pytest.raises(PhotonStatsError, match="sigma"):
        G2Curve(np.linspace(-5.0, 5.0, 20), np.ones(20), sigma)
    sigma[3] = 0.0  # zero sigma is accepted; fit_g2 gives it weight 1
    assert G2Curve(np.linspace(-5.0, 5.0, 20), np.ones(20), sigma).sigma[3] == 0.0


def test_g2_curve_rejects_empty():
    with pytest.raises(PhotonStatsError):
        G2Curve([], [], [])


def test_fit_requires_enough_points():
    taus = np.linspace(-5.0, 5.0, 10)
    with pytest.raises(PhotonStatsError):
        fit_g2(G2Curve(taus, np.ones(10), np.ones(10)))


def test_fit_bias_over_noise_realizations():
    taus = reference_grid()
    fits = []
    for seed in range(12):
        curve = synthesize_g2(taus, REF_PARAMS,
                              noise=NoiseSpec("gaussian", sigma=0.02, seed=seed))
        fits.append(fit_g2(curve).as_array())
    bias = np.abs(np.mean(fits, axis=0) - REF_PARAMS)
    assert np.all(bias <= REF_ERRORS)


# ---------------------------------------------------------------------------
# saturation

def test_saturation_half_at_p_sat():
    fit = SaturationFit(c_sat=100e3, p_sat=1.10)
    assert saturation_model(1.10, fit) == pytest.approx(50e3)


def test_saturation_low_power_slope():
    fit = SaturationFit(c_sat=100e3, p_sat=1.10)
    p = 1.10 / 100.0
    assert saturation_model(p, fit) / p == pytest.approx(fit.k_linear, rel=0.01)
    assert fit.k_linear == pytest.approx(fit.c_sat / fit.p_sat)


def test_saturation_calibrated_to_low_power_rate():
    # 7.7 kcounts/s at 0.3 mW with saturation power 1.10 mW
    c_sat = 7.7e3 * (0.3 + 1.10) / 0.3
    assert c_sat == pytest.approx(35.93e3, rel=1e-3)
    fit = SaturationFit(c_sat=c_sat, p_sat=1.10)
    assert saturation_model(0.3, fit) == pytest.approx(7.7e3)


def test_saturation_concave_monotone_bounded():
    fit = SaturationFit(c_sat=36e3, p_sat=1.10)
    p = np.linspace(0.01, 20.0, 400)
    c = saturation_model(p, fit)
    assert np.all(np.diff(c) > 0)
    assert np.all(np.diff(np.diff(c)) < 0)
    assert np.all(c < fit.c_sat)


def test_fit_saturation_roundtrip():
    rng = np.random.default_rng(2)
    powers = np.linspace(0.05, 5.0, 30)
    counts = 35.93e3 * powers / (powers + 1.10) + rng.normal(0, 100.0, powers.size)
    fit = fit_saturation(powers, counts)
    assert fit.c_sat == pytest.approx(35.93e3, rel=0.02)
    assert fit.p_sat == pytest.approx(1.10, rel=0.03)


def test_fit_saturation_needs_three_powers():
    with pytest.raises(PhotonStatsError):
        fit_saturation([1.0, 1.0, 1.0], [5.0, 5.0, 5.0])


@pytest.mark.parametrize("counts", [[-100.0, -150.0, -200.0, -230.0],
                                    [0.0, 0.0, 0.0, 0.0],
                                    [100.0, np.nan, 300.0, 400.0],
                                    [100.0, 200.0, np.inf, 400.0]])
def test_fit_saturation_rejects_nonfinite_or_nonpositive_counts(counts):
    with pytest.raises(PhotonStatsError, match="counts"):
        fit_saturation([0.5, 1.0, 2.0, 4.0], counts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_saturation_rejects_nonfinite_powers(bad):
    with pytest.raises(PhotonStatsError, match="powers must be finite"):
        fit_saturation([0.5, 1.0, bad, 4.0], [100.0, 200.0, 300.0, 400.0])
    with pytest.raises(PhotonStatsError, match="powers must be finite"):
        saturation_model([bad], SaturationFit(c_sat=1e5, p_sat=1.1))


def test_fit_saturation_distinct_powers_count_ties():
    with pytest.raises(PhotonStatsError, match="3 distinct"):
        fit_saturation([2.0, 1.0, 2.0, 1.0], [5.0, 4.0, 5.0, 4.0])
    with pytest.raises(PhotonStatsError, match="3 distinct"):
        fit_saturation([], [])
    with pytest.raises(PhotonStatsError, match="positive"):
        fit_saturation([-0.0, 0.0, 1.0, 2.0], [5.0, 4.0, 5.0, 4.0])


def test_fit_saturation_pinned_on_bound_raises():
    # counts falling with power: the best fit drives p_sat onto its lower bound
    with pytest.raises(FitError, match="lower bound"):
        fit_saturation([0.5, 1.0, 2.0, 4.0], [300.0, 200.0, 100.0, 50.0])


# ---------------------------------------------------------------------------
# file formats

def test_g2_file_roundtrip(tmp_path):
    taus = np.linspace(-300.0, 300.0, 120)
    curve = synthesize_g2(taus, REF_PARAMS,
                          noise=NoiseSpec("gaussian", sigma=0.02, seed=1))
    path = tmp_path / "g2.txt"
    save_g2(path, curve)
    back = load_g2(path)
    assert np.array_equal(back.taus, curve.taus)
    assert np.array_equal(back.g2, curve.g2)

    save_g2(path, G2Curve([-1.5, 0.0, 2.0], [1.1, 0.197, 1.0], [0.02, 0.02, 0.025]))
    assert path.read_text() == "# g2 v1\n-1.5 1.1 0.02\n0.0 0.197 0.02\n2.0 1.0 0.025\n"
    assert np.array_equal(load_g2(path).g2, [1.1, 0.197, 1.0])


def test_g2_file_header_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# g3 v1\n0 1 0.1\n")
    with pytest.raises(PhotonStatsError, match=":1:"):
        load_g2(path)


def test_saturation_file(tmp_path):
    path = tmp_path / "sat.txt"
    path.write_text("# power counts\n0.1 3000\n0.3 7700\n1.0 17000\n3.0 26000\n")
    powers, counts = load_saturation(path)
    assert np.array_equal(powers, [0.1, 0.3, 1.0, 3.0])
    bad = tmp_path / "sat_bad.txt"
    bad.write_text("0.1 3000\n0.3\n")
    with pytest.raises(PhotonStatsError, match=":2:"):
        load_saturation(bad)
    bad.write_text("0.1 3000\n\n0.3 nan\n")
    with pytest.raises(PhotonStatsError, match=":3: non-finite"):
        load_saturation(bad)
