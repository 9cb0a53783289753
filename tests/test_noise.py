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
