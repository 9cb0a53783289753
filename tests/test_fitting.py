"""Contracts of the shared Levenberg-Marquardt fitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nvkit.fitting import FitError, levenberg_marquardt, median, numeric_jacobian, percentile


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
@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(allow_nan=False, allow_infinity=False, width=64)))
def test_median_equals_numpy_median(values):
    with np.errstate(over="ignore"):  # both overflow alike on two huge middle values
        assert median(values) == np.median(values)


def test_median_of_nothing_is_nan():
    assert np.isnan(median(np.array([])))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 40) | st.sampled_from([701, 801]), st.booleans())
def test_percentile_equals_numpy_percentile_bit_for_bit(data, size, ties):
    # odd and even lengths, the ODMR grid sizes, and ties from a few values
    elements = (st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]) if ties
                else st.floats(allow_nan=False, allow_infinity=False, width=64))
    values = data.draw(arrays(np.float64, size, elements=elements))
    with np.errstate(over="ignore", invalid="ignore"):  # both overflow alike
        ours, theirs = percentile(values, 90), np.percentile(values, 90)
    assert np.float64(ours).tobytes() == np.float64(theirs).tobytes()


def test_percentile_interpolates_from_the_upper_value_from_half_on():
    # t = 0.6 (five values) and t = 0.5 exactly (six values) take numpy's
    # b - (b - a)(1 - t) branch; here a + (b - a) t would round differently
    assert percentile([0.0, 0.0, 0.0, 0.41, 0.83], 90) == 0.662
    assert percentile([0.0, 0.0, 0.0, 0.0, 0.19, 0.8], 90) == 0.495
    values = np.array([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0])
    assert percentile(values, 100) == 1.0 / 3.0
    assert percentile(values, 0) == 0.0
