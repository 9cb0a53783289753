"""Contracts of the shared Levenberg-Marquardt fitter."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nvkit.confocal import PLMap, fit_gaussian_slice, gaussian_profile
from nvkit.dynamics import DecayCurve, DecayModel, fit_decay_envelope
from nvkit.fitting import (
    FitError,
    levenberg_marquardt,
    median,
    numeric_jacobian,
    pinned,
    sigma_weights,
)
from nvkit.noise import NoiseSpec
from nvkit.odmr import LineShapeModel, OdmrSpectrum, fit_spectrum
from nvkit.photon_stats import fit_g2, fit_saturation, synthesize_g2


def quadratic_residuals(target):
    def residuals(x):
        return np.array([x[0] - target[0], 2.0 * (x[1] - target[1]),
                         x[0] * x[1] - target[0] * target[1]])
    return residuals


def test_converges_to_exact_solution():
    fit = levenberg_marquardt(quadratic_residuals([1.5, -2.0]), [0.1, 0.1])
    assert fit.converged
    assert np.allclose(fit.params, [1.5, -2.0], atol=1e-8)
    assert fit.residual_norm < 1e-8


def test_start_at_truth_converges_immediately():
    fit = levenberg_marquardt(quadratic_residuals([1.5, -2.0]), [1.5, -2.0])
    assert fit.converged
    assert fit.iterations <= 2
    assert np.allclose(fit.params, [1.5, -2.0], atol=1e-12)


def test_accepted_steps_never_increase_cost():
    rng = np.random.default_rng(42)
    t = np.linspace(0, 10, 60)
    data = 2.0 * np.exp(-t / 3.0) + 0.5 + rng.normal(0, 0.02, t.size)

    def residuals(p):
        return p[0] * np.exp(-t / p[1]) + p[2] - data

    fit = levenberg_marquardt(residuals, [1.0, 1.0, 0.0])
    costs = np.array(fit.cost_history)
    assert np.all(np.diff(costs) <= 0.0)
    assert fit.converged


def test_bounds_are_respected():
    def residuals(x):
        return np.array([x[0] + 5.0])

    fit = levenberg_marquardt(residuals, [1.0], bounds=[(0.0, 10.0)])
    assert fit.params[0] == 0.0  # pinned at the feasible boundary


def test_stop_on_a_step_the_bounds_clipped_is_not_converged():
    def residuals(x):
        return np.array([x[0] + 5.0, 0.1 * x[0]])

    pinned = levenberg_marquardt(residuals, [1.0], bounds=[(0.0, np.inf)])
    assert pinned.params[0] == 0.0
    assert not pinned.converged
    free = levenberg_marquardt(residuals, [1.0], bounds=[(-10.0, np.inf)])
    assert free.params[0] == pytest.approx(-5.0 / 1.01)
    assert free.converged


def test_pinned_names_each_labelled_parameter_on_a_bound():
    bounds = [(0.0, 1.0), (0.0, 1.0), (-np.inf, np.inf), (0.0, 2.0)]
    assert pinned([0.0, 0.5, 7.0, 2.0], bounds, ("a", "b", "c", "d")) == "a=0, d=2"
    assert pinned([0.5, 1.0, 7.0, 2.0], bounds, ("a", "b")) == "b=1"  # unlabelled: unchecked
    assert pinned([0.5, 0.5, 7.0, 1.0], bounds, ("a", "b", "c", "d")) == ""


def test_solver_takes_only_bounds_and_jac_after_the_start_point():
    # bench/tracing.py finds jac as the fourth positional argument
    params = list(inspect.signature(levenberg_marquardt).parameters)
    assert params == ["residuals", "x0", "bounds", "jac"]


def test_sigma_weights_give_zero_sigma_unit_weight():
    weights = sigma_weights(np.array([0.0, 0.5, 2.0, 0.0]))
    np.testing.assert_array_equal(weights, [1.0, 2.0, 0.5, 1.0])


def test_stderr_scales_with_noise():
    t = np.linspace(0, 5, 400)
    rng = np.random.default_rng(0)
    errs = []
    for sigma in (0.01, 0.1):
        data = 3.0 * np.exp(-t / 2.0) + rng.normal(0, sigma, t.size)

        def residuals(p):
            return p[0] * np.exp(-t / p[1]) - data

        fit = levenberg_marquardt(residuals, [2.5, 1.5])
        errs.append(fit.stderr[0])
    assert errs[1] / errs[0] == pytest.approx(10.0, rel=0.5)


def test_analytic_jacobian_matches_numeric():
    t = np.linspace(0, 4, 50)
    data = 1.3 * np.exp(-t / 0.8)

    def residuals(p):
        return p[0] * np.exp(-t / p[1]) - data

    def jac(p):
        e = np.exp(-t / p[1])
        return np.column_stack([e, p[0] * e * t / p[1] ** 2])

    x = np.array([1.0, 1.0])
    assert np.allclose(jac(x), numeric_jacobian(residuals, x), atol=1e-5)
    fit = levenberg_marquardt(residuals, [1.0, 1.0], jac=jac)
    assert np.allclose(fit.params, [1.3, 0.8], atol=1e-8)


def test_nonfinite_start_raises():
    def residuals(x):
        return np.array([np.inf])

    with pytest.raises(FitError):
        levenberg_marquardt(residuals, [1.0])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 40), st.booleans())
def test_median_equals_numpy_median(data, size, ties):
    # ties from a few values, with both signs of zero, and arbitrary floats
    elements = (st.sampled_from([-2.0, -0.0, 0.0, 1.0]) if ties
                else st.floats(allow_nan=False, allow_infinity=False, width=64))
    values = data.draw(arrays(np.float64, size, elements=elements))
    with np.errstate(over="ignore"):  # both overflow alike on two huge middle values
        ours, theirs = median(values), np.median(values)
    assert np.float64(ours).tobytes() == np.float64(theirs).tobytes()


def test_median_keeps_numpys_sign_of_zero():
    values = np.array([1, 1, 0, 0, -0.0, -0.0, -0.0, -0.0, -2, 1])
    assert np.float64(median(values)).tobytes() == np.float64(np.median(values)).tobytes()


def test_median_of_nothing_is_nan():
    assert np.isnan(median(np.array([])))


# ---------------------------------------------------------------------------
# the fit report of every fitter

ODMR_GRID = np.linspace(2835.0, 2905.0, 701)
ODMR_TRUTH = LineShapeModel([2864.3, 2880.7], [0.02, 0.02], [8.0, 8.0])
G2_TRUTH = np.array([0.275, 1.481, 9.48, 0.365, 114.0, 0.313, 312.0])
G2_TAUS = np.linspace(-600.0, 600.0, 2401)


def _odmr_fit(init=None):
    rng = np.random.default_rng(3)
    signal = ODMR_TRUTH.evaluate(ODMR_GRID) + rng.normal(0.0, 0.002, ODMR_GRID.size)
    spectrum = OdmrSpectrum(ODMR_GRID, signal, np.full(ODMR_GRID.size, 0.002))
    return fit_spectrum(spectrum, 2, init=init)


def _g2_fit(init=None):
    curve = synthesize_g2(G2_TAUS, G2_TRUTH, noise=NoiseSpec("gaussian", sigma=0.02, seed=4))
    return fit_g2(curve, init=init)


def _decay_fit(model):
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 1500.0, 300)
    signal = 0.4 + 0.5 * np.exp(-np.power(times / 494.0, 1.5)) + rng.normal(0.0, 0.005, 300)
    return fit_decay_envelope(DecayCurve(times, signal, np.full(300, 0.005), "hahn"), model)


def _beat_curve():
    # a seeded FID: a 2.16 MHz beat under a T2* = 2 us envelope
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 8.0, 400)
    signal = 0.5 + 0.3 * np.exp(-times / 2.0) * np.cos(2 * np.pi * 2.16 * times) \
        + rng.normal(0.0, 0.005, 400)
    return DecayCurve(times, signal, np.full(400, 0.005), "fid")


def _saturation_fit():
    rng = np.random.default_rng(2)
    powers = np.linspace(0.1, 5.0, 15)
    counts = 1e5 * powers / (powers + 1.1) * (1.0 + rng.normal(0.0, 0.01, powers.size))
    return fit_saturation(powers, counts)


def _slice_fit():
    rng = np.random.default_rng(6)
    x, y = np.linspace(-2.0, 2.0, 41), np.linspace(0.0, 1.0, 3)
    profile = gaussian_profile(x, 5e3, 0.3, 0.45, 200.0) + rng.normal(0.0, 20.0, x.size)
    plmap = PLMap((x, y), np.repeat(profile[:, None], y.size, axis=1), power=0.3)
    return fit_gaussian_slice(plmap, 0, [1])


def _packed_model(fit):
    m = fit.model
    return [m.baseline, *np.column_stack([m.centers, m.contrasts, m.fwhms]).ravel()]


REVERSED_DIPS = LineShapeModel([2881.0, 2864.0], [0.02, 0.02], [8.0, 8.0])
REVERSED_BUNCHING = G2_TRUTH[[0, 1, 2, 5, 6, 3, 4]]

# each fitter, and the named fields that report.params must start with, in order
REPORTS = {
    "odmr": (_odmr_fit, _packed_model),
    "odmr, dips seeded in reverse": (lambda: _odmr_fit(REVERSED_DIPS), _packed_model),
    "g2": (_g2_fit, lambda fit: fit.as_array()),
    "g2, bunching pair seeded in reverse": (lambda: _g2_fit(REVERSED_BUNCHING),
                                            lambda fit: fit.as_array()),
    "decay, stretched": (lambda: _decay_fit(DecayModel.STRETCHED),
                         lambda fit: [fit.baseline, fit.amplitude, fit.t_coh, fit.n_stretch]),
    "decay, single exponential": (lambda: _decay_fit(DecayModel.SINGLE_EXP),
                                  lambda fit: [fit.baseline, fit.amplitude, fit.t_coh]),
    "decay, stretched with beats": (
        lambda: fit_decay_envelope(_beat_curve(), DecayModel.STRETCHED_TIMES_OSC),
        lambda fit: [fit.baseline, fit.t_coh, fit.n_stretch]),
    "saturation": (_saturation_fit, lambda fit: [fit.c_sat, fit.p_sat]),
    "gaussian slice": (_slice_fit,
                       lambda fit: [fit.amplitude, fit.center, fit.fwhm, fit.baseline]),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_params_name_the_result_fields_in_order(name):
    fit_once, named_fields = REPORTS[name]
    fit = fit_once()
    named = named_fields(fit)
    report = fit.report
    np.testing.assert_array_equal(report.params[:len(named)], named)
    assert report.stderr.shape == report.params.shape
    assert np.isfinite(report.stderr).all()
    assert report.converged


def test_beat_envelope_fit_has_a_full_rank_jacobian():
    # the amplitude is held at 1: a free one would scale all quadratures alike
    curve = _beat_curve()
    fit = fit_decay_envelope(curve, DecayModel.STRETCHED_TIMES_OSC)
    assert fit.amplitude == 1.0
    # (baseline, t_coh, n_stretch), then (f, cos, sin) per beat
    assert fit.report.params.size == 3 + 3 * len(fit.frequencies)
    assert np.array_equal(fit.report.params[3::3], fit.frequencies)

    def residuals(p):
        (b, t_coh, n), (freqs, cos_amps, sin_amps) = p[:3], p[3:].reshape(-1, 3).T
        phases = 2 * np.pi * np.outer(curve.times, freqs)
        osc = np.cos(phases) @ cos_amps + np.sin(phases) @ sin_amps
        return (b + np.exp(-(curve.times / t_coh) ** n) * osc - curve.signal) / curve.sigma

    singular = np.linalg.svd(numeric_jacobian(residuals, fit.report.params), compute_uv=False)
    assert singular[-1] > 1e-6 * singular[0]


@pytest.mark.parametrize("fit_with, init", [(_odmr_fit, REVERSED_DIPS),
                                             (_g2_fit, REVERSED_BUNCHING)])
def test_reordered_report_keeps_each_error_with_its_parameter(fit_with, init):
    # the reversed seed ends with its labels swapped; once sorted, each
    # parameter and its error match those of the fit seeded in order
    forward, reverse = fit_with().report, fit_with(init).report
    np.testing.assert_allclose(reverse.params, forward.params, rtol=1e-4)
    np.testing.assert_allclose(reverse.stderr, forward.stderr, rtol=1e-4)
