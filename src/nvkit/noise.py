"""Seeded noise models for synthetic data.

Reproducibility: all randomness goes through numpy's PCG64 generator seeded
explicitly, so identical seeds give identical arrays on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import require, scalar


class NoiseError(ValueError):
    """Invalid noise specification; the message names the field."""


@dataclass(frozen=True)
class NoiseSpec:
    """Noise to superimpose on a clean synthetic signal.

    kind 'gaussian': additive, standard deviation ``sigma`` per point.
    kind 'poisson': shot noise for ``counts`` expected counts per point at
    unit signal; the signal is scaled to counts, sampled, and rescaled.
    ``seed`` is a nonnegative integer, as numpy's generator requires.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    counts: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "poisson"):
            raise NoiseError(f"unknown noise kind {self.kind!r}")
        scalar(NoiseError, "sigma", self.sigma, "finite and nonnegative")
        scalar(NoiseError, "counts", self.counts, "finite and nonnegative")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise NoiseError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.kind == "poisson" and self.counts <= 0:
            raise NoiseError("poisson noise requires counts > 0")


def apply_noise(signal: np.ndarray, spec: NoiseSpec | None):
    """Return (noisy_signal, per_point_sigma) for the given spec.

    With spec=None the signal is returned unchanged with unit weights.
    The signal must be finite.
    """
    signal = require(NoiseError, "signal", signal)
    if spec is None:
        return np.array(signal), np.ones_like(signal)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian":
        sigma = np.full_like(signal, float(spec.sigma))
        return signal + rng.normal(0.0, spec.sigma, np.shape(signal)), sigma
    expected = np.clip(signal, 0.0, None) * spec.counts
    noisy = rng.poisson(expected) / spec.counts
    sigma = np.sqrt(np.clip(expected, 1.0, None)) / spec.counts
    return noisy, sigma
