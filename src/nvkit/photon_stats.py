"""Photon-correlation and PL-saturation models.

The second-order correlation is the empirical three-timescale form

    g2(tau) = 1 - c1*exp(-|tau-tau0|/tau1)
                + c2*exp(-|tau-tau0|/tau2) + c3*exp(-|tau-tau0|/tau3)

with one antibunching and two bunching components; curves are assumed
background-corrected. PL saturation follows C(P) = c_sat*P/(P + p_sat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitError, levenberg_marquardt, median
from .noise import NoiseSpec, apply_noise
from .tables import read_table, write_table

TAU_BOUNDS_NS = (0.01, 1e4)
AMPLITUDE_BOUNDS = (0.0, 5.0)


class PhotonStatsError(ValueError):
    """Invalid correlation or saturation input."""


@dataclass(frozen=True)
class G2Curve:
    """Sampled correlation: delays (ns), g2 values, uncertainty."""

    taus: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        g2 = np.asarray(self.g2, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (len(taus) == len(g2) == len(sigma)):
            raise PhotonStatsError("taus, g2 and sigma must have equal length")
        if len(taus) == 0:
            raise PhotonStatsError("g2 curve needs at least one point")
        for name, values in (("taus", taus), ("g2", g2), ("sigma", sigma)):
            if not np.all(np.isfinite(values)):
                raise PhotonStatsError(f"{name} values must be finite")
        if np.any(sigma < 0):
            raise PhotonStatsError("sigma values must be nonnegative")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "sigma", sigma)


@dataclass
class G2FitResult:
    """Antibunching/bunching parameters; tau1 < tau2 < tau3 by labeling."""

    tau0: float
    c1: float
    tau1: float
    c2: float
    tau2: float
    c3: float
    tau3: float
    errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def as_array(self) -> np.ndarray:
        return np.array([self.tau0, self.c1, self.tau1,
                         self.c2, self.tau2, self.c3, self.tau3])


def g2_model(tau, params) -> np.ndarray:
    """Evaluate the correlation model; params is a G2FitResult or 7-vector
    (tau0, c1, tau1, c2, tau2, c3, tau3)."""
    if isinstance(params, G2FitResult):
        p = params.as_array()
    else:
        p = np.asarray(params, dtype=float)
    tau0, c1, tau1, c2, tau2, c3, tau3 = p
    d = np.abs(np.asarray(tau, dtype=float) - tau0)
    return (1.0 - c1 * np.exp(-d / tau1)
            + c2 * np.exp(-d / tau2) + c3 * np.exp(-d / tau3))


def synthesize_g2(taus, params, noise: NoiseSpec | None = None) -> G2Curve:
    """Model curve on the given delay grid, optionally with seeded noise."""
    clean = g2_model(taus, params)
    values, sigma = apply_noise(clean, noise)
    return G2Curve(taus=np.asarray(taus, dtype=float), g2=values, sigma=sigma)


def _g2_weighted_jacobian(taus, weights):
    """Analytic residual Jacobian of the correlation model."""
    def jac(p):
        tau0, c1, t1, c2, t2, c3, t3 = p
        d = taus - tau0
        a = np.abs(d)
        s = np.sign(d)
        e1 = np.exp(-a / t1)
        e2 = np.exp(-a / t2)
        e3 = np.exp(-a / t3)
        out = np.empty((len(taus), 7))
        out[:, 0] = -c1 * e1 * s / t1 + c2 * e2 * s / t2 + c3 * e3 * s / t3
        out[:, 1] = -e1
        out[:, 2] = -c1 * e1 * a / t1 ** 2
        out[:, 3] = e2
        out[:, 4] = c2 * e2 * a / t2 ** 2
        out[:, 5] = e3
        out[:, 6] = c3 * e3 * a / t3 ** 2
        return out * weights[:, None]
    return jac


def _initial_g2_params(curve: G2Curve) -> np.ndarray:
    """Variable-projection seed for the seven-parameter fit.

    The model is linear in the three amplitudes once the time constants are
    fixed, so candidate (tau1, tau2, tau3) triples from coarse dip-width and
    tail-slope estimates are scored by weighted linear least squares; the
    best triple with its solved amplitudes seeds the full fit.
    """
    taus, g2 = curve.taus, curve.g2
    weights = 1.0 / np.where(curve.sigma > 0, curve.sigma, 1.0)
    noise = median(np.where(curve.sigma > 0, curve.sigma, 0.02))
    i_min = int(np.argmin(g2))
    tau0 = float(taus[i_min])
    span = float(taus.max() - taus.min())
    d = np.abs(taus - tau0)

    # where the dip has recovered through g2 = 1 (smoothed against noise)
    order = np.argsort(d)
    d_sorted, g_sorted = d[order], g2[order]
    win = max(len(g_sorted) // 200, 1)
    g_smooth = np.convolve(g_sorted, np.ones(win) / win, mode="same")
    crossed = np.nonzero(g_smooth >= 1.0)[0]
    d_cross = float(d_sorted[crossed[0]]) if crossed.size else 0.05 * span
    d_cross = min(max(d_cross, 2.0 * TAU_BOUNDS_NS[0]), 0.5 * span)

    # effective bunching timescale from a log-linear tail regression
    tail = (d > 5.0 * d_cross) & (g2 - 1.0 > 2.5 * noise)
    if np.count_nonzero(tail) >= 10:
        coef = np.polyfit(d[tail], np.log(g2[tail] - 1.0), 1, w=g2[tail] - 1.0)
        tau_eff = -1.0 / min(coef[0], -1e-12)
        tau_eff = min(max(tau_eff, d_cross), span)
    else:
        tau_eff = 10.0 * d_cross

    lo, hi = AMPLITUDE_BOUNDS
    best = None
    for t1 in (0.4 * d_cross, 0.8 * d_cross, 1.3 * d_cross, 2.0 * d_cross):
        e1 = np.exp(-d / t1)
        for t2 in (0.25 * tau_eff, 0.5 * tau_eff, 1.0 * tau_eff):
            e2 = np.exp(-d / t2)
            for t3 in (1.0 * tau_eff, 2.0 * tau_eff, 4.0 * tau_eff):
                if t3 <= 1.5 * t2:
                    continue
                e3 = np.exp(-d / t3)
                design = np.column_stack([-e1, e2, e3]) * weights[:, None]
                target = (g2 - 1.0) * weights
                amps, *_ = np.linalg.lstsq(design, target, rcond=None)
                amps = np.clip(amps, lo, hi)
                cost = float(np.sum((design @ amps - target) ** 2))
                if best is None or cost < best[0]:
                    best = (cost, amps, (t1, t2, t3))

    _, (c1, c2, c3), (t1, t2, t3) = best
    return np.array([tau0, max(c1, 1e-3), t1, c2, t2, c3, t3])


def fit_g2(curve: G2Curve, init=None) -> G2FitResult:
    """Least-squares fit of the correlation model.

    Decay times are bounded to [0.01, 1e4] ns and amplitudes to [0, 5];
    the two bunching components are label-ordered by time constant.
    Residuals are weighted by 1/sigma; a point with sigma = 0 gets weight 1.
    The solver gets the closed-form Jacobian of the weighted residual.
    """
    if len(curve.taus) < 14:
        raise PhotonStatsError("need at least 14 points spanning the dip and shoulders")
    taus, g2 = curve.taus, curve.g2
    weights = 1.0 / np.where(curve.sigma > 0, curve.sigma, 1.0)
    x0 = np.asarray(init, dtype=float) if init is not None else _initial_g2_params(curve)

    def residuals(p):
        return (g2_model(taus, p) - g2) * weights

    span = float(taus.max() - taus.min())
    bounds = [
        (taus.min(), taus.max()),
        AMPLITUDE_BOUNDS, (TAU_BOUNDS_NS[0], min(TAU_BOUNDS_NS[1], span)),
        AMPLITUDE_BOUNDS, TAU_BOUNDS_NS,
        AMPLITUDE_BOUNDS, TAU_BOUNDS_NS,
    ]
    fit = levenberg_marquardt(residuals, x0, bounds=bounds,
                              jac=_g2_weighted_jacobian(taus, weights))

    tau0, c1, tau1, c2, tau2, c3, tau3 = fit.params
    err = fit.stderr.copy()
    if tau3 < tau2:  # bunching labels sorted by time constant
        c2, tau2, c3, tau3 = c3, tau3, c2, tau2
        err[[3, 4, 5, 6]] = err[[5, 6, 3, 4]]
    return G2FitResult(
        tau0=float(tau0), c1=float(c1), tau1=float(tau1),
        c2=float(c2), tau2=float(tau2), c3=float(c3), tau3=float(tau3),
        errors=err, residual_norm=fit.residual_norm,
        converged=fit.converged, iterations=fit.iterations,
    )


# ---------------------------------------------------------------------------
# PL saturation

@dataclass
class SaturationFit:
    """Saturating PL curve: c_sat*P/(P+p_sat); k_linear is the P->0 slope."""

    c_sat: float
    p_sat: float
    errors: np.ndarray | None = None
    converged: bool = True

    def __post_init__(self):
        if self.c_sat <= 0 or self.p_sat <= 0:
            raise PhotonStatsError("c_sat and p_sat must be positive")

    @property
    def k_linear(self) -> float:
        return self.c_sat / self.p_sat


def saturation_model(power, fit: SaturationFit):
    """Detected PL rate (counts/s) at excitation power (mW)."""
    p = np.asarray(power, dtype=float)
    if not np.all(np.isfinite(p)):
        raise PhotonStatsError("powers must be finite")
    if np.any(p < 0):
        raise PhotonStatsError("powers must be nonnegative")
    return fit.c_sat * p / (p + fit.p_sat)


def fit_saturation(powers, counts) -> SaturationFit:
    """Fit the saturation curve to (power, counts) samples."""
    powers = np.asarray(powers, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if not np.all(np.isfinite(powers)):
        raise PhotonStatsError("powers must be finite")
    # np.unique would import numpy.ma, about 20 ms per CLI process
    if np.count_nonzero(np.diff(np.sort(powers, axis=None))) < 2:
        raise PhotonStatsError("need at least 3 distinct powers")
    if np.any(powers <= 0):
        raise PhotonStatsError("powers must be positive")
    if not np.all(np.isfinite(counts)):
        raise PhotonStatsError("counts must be finite")
    if counts.max() <= 0:
        raise PhotonStatsError("counts must have a positive maximum")

    c0 = 1.5 * float(counts.max())
    half = 0.5 * counts.max()
    p0 = float(powers[np.argmin(np.abs(counts - half))])
    p0 = max(p0, 1e-6 * powers.max())

    def residuals(p):
        return p[0] * powers / (powers + p[1]) - counts

    floor = 1e-12
    fit = levenberg_marquardt(residuals, [c0, p0], bounds=[(floor, np.inf)] * 2)
    if min(fit.params) <= floor:
        raise FitError(f"saturation fit ended on its {floor:g} lower bound "
                       f"(c_sat={fit.params[0]:g}, p_sat={fit.params[1]:g})")
    return SaturationFit(c_sat=float(fit.params[0]), p_sat=float(fit.params[1]),
                         errors=fit.stderr, converged=fit.converged)


# ---------------------------------------------------------------------------
# file formats

def save_g2(path, curve: G2Curve) -> None:
    """Write `# g2 v1` followed by tau/g2/sigma rows."""
    write_table(path, ["# g2 v1"], np.column_stack((curve.taus, curve.g2, curve.sigma)))


def load_g2(path) -> G2Curve:
    """Read the correlation format written by :func:`save_g2`."""
    _, data = read_table(path, "g2", (), 3, PhotonStatsError)
    return G2Curve(taus=data[:, 0], g2=data[:, 1], sigma=data[:, 2])


def load_saturation(path):
    """Read rows of `power_mW counts_per_s`; returns (powers, counts)."""
    _, data = read_table(path, None, (), 2, PhotonStatsError)
    return data[:, 0], data[:, 1]
