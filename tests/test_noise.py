"""Noise specifications: every field checked by name."""

import numpy as np
import pytest

from nvkit.noise import NoiseError, NoiseSpec, apply_noise


@pytest.mark.parametrize("field, value", [
    ("sigma", float("nan")), ("sigma", float("inf")), ("sigma", -0.01),
    ("counts", float("nan")), ("counts", float("inf")), ("counts", -1.0),
])
def test_noise_spec_rejects_bad_field_by_name(field, value):
    with pytest.raises(NoiseError, match=f"^{field} must be finite and nonnegative"):
        NoiseSpec("gaussian", **{field: value})


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, 2.0, float("nan"), "3"])
def test_noise_spec_rejects_bad_seed_by_name(seed):
    with pytest.raises(NoiseError, match="^seed must be a nonnegative integer"):
        NoiseSpec("gaussian", sigma=0.01, seed=seed)


def test_noise_spec_accepts_integer_seeds():
    for seed in (0, 7, np.int64(7), 2 ** 40):
        noisy, _ = apply_noise(np.zeros(4), NoiseSpec("gaussian", sigma=0.1, seed=seed))
        assert np.isfinite(noisy).all()


def test_noise_spec_typed_errors():
    assert issubclass(NoiseError, ValueError)
    with pytest.raises(NoiseError, match="unknown noise kind"):
        NoiseSpec("uniform")
    with pytest.raises(NoiseError, match="counts > 0"):
        NoiseSpec("poisson", counts=0.0)


def test_zero_sigma_adds_nothing():
    signal = np.linspace(0.0, 1.0, 7)
    noisy, sigma = apply_noise(signal, NoiseSpec("gaussian", sigma=0.0, seed=3))
    assert np.array_equal(noisy, signal)
    assert np.array_equal(sigma, np.zeros(7))


@pytest.mark.parametrize("signal, spec", [
    ([float("inf"), 1.0], NoiseSpec("gaussian", sigma=0.1, seed=1)),
    ([float("nan"), 1.0], NoiseSpec("poisson", counts=100.0, seed=1)),
])
def test_nonfinite_signal_is_rejected_by_name(signal, spec):
    with pytest.raises(NoiseError, match="^signal must be finite, got .* at index 0"):
        apply_noise(np.array(signal), spec)
