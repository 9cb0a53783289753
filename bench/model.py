"""The benchmark's own constants and closed forms.

Every expected value the checkers compare nvkit against is computed here,
from constants typed in again rather than imported from nvkit, so that a
change to nvkit's numbers cannot also move the reference.
"""

import numpy as np

D_MHZ = 2870.0
GAMMA_E_MHZ_PER_MT = 28.0249514
A_N14_MHZ = 2.16
HBAR_J_S = 1.054571817e-34
MU_B_J_PER_T = 9.2740100783e-24
G_FACTOR = 2.0
CARBON_PER_CM3 = 1.76e23
NV_AXIS = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

# ensemble CW spectra: contrast 0.1 split over two equal lines
CW_CONTRAST = 0.1
CW_FWHM_MHZ = 8.0

# photon-correlation truth and the paper's table uncertainties
G2_TRUTH = np.array([0.275, 1.481, 9.48, 0.365, 114.0, 0.313, 312.0])
G2_TABLE_ERRORS = np.array([0.012, 0.011, 0.12, 0.061, 17.0, 0.067, 29.0])
G2_NOISE = 0.02

# Hahn-echo defaults of `nvkit seq-sim --kind hahn`
HAHN_T2_US = 494.0
HAHN_STRETCH = 1.5
HAHN_MOD_DEPTH = 0.8


def g2_grid():
    """The 13,875-point delay grid (ns) of the acceptance round trip."""
    core = np.arange(-25.0, 25.001, 0.0125)
    wing = np.arange(25.4, 2000.0, 0.4)
    return np.sort(np.concatenate([core, wing, -wing]))


def lorentzian(f, center, fwhm):
    half = 0.5 * fwhm
    return half ** 2 / ((f - center) ** 2 + half ** 2)


def dips(freqs, baseline, centers, contrasts, fwhms):
    """Baseline minus a sum of unit-peak Lorentzian dips."""
    out = np.full_like(freqs, baseline, dtype=float)
    for c, k, w in zip(centers, contrasts, fwhms):
        out -= k * lorentzian(freqs, c, w)
    return out


def zero_field_lines(xi, delta):
    """Bare-spin zero-field resonances D + xi -+ 2 delta (MHz)."""
    return D_MHZ + xi - 2.0 * delta, D_MHZ + xi + 2.0 * delta


def cw_ensemble_signal(freqs, xi, delta):
    """Noiseless zero-field ensemble CW spectrum; all four axes coincide."""
    lines = zero_field_lines(xi, delta)
    return dips(freqs, 1.0, lines, [0.5 * CW_CONTRAST] * 2, [CW_FWHM_MHZ] * 2)


def gaussian_noise(seed, sigma, n):
    """The seeded PCG64 normal draws that nvkit documents for its noise."""
    return np.random.default_rng(seed).normal(0.0, sigma, n)


def chi2(model, data, sigma):
    return float(np.sum(((model - data) / sigma) ** 2))


def g2(tau, p):
    tau0, c1, t1, c2, t2, c3, t3 = p
    d = np.abs(tau - tau0)
    return 1.0 - c1 * np.exp(-d / t1) + c2 * np.exp(-d / t2) + c3 * np.exp(-d / t3)


def hahn(t, larmor_mhz):
    envelope = np.exp(-np.power(t / HAHN_T2_US, HAHN_STRETCH))
    modulation = 1.0 - HAHN_MOD_DEPTH * np.sin(np.pi * larmor_mhz * t) ** 4
    return 0.5 + 0.5 * envelope * modulation


def fid(t, t2star, detunings):
    beat = sum(np.cos(2.0 * np.pi * d * t) for d in detunings) / len(detunings)
    return 0.5 + 0.5 * np.exp(-t / t2star) * beat


def saturation(power, c_sat, p_sat):
    return c_sat * power / (power + p_sat)


def gaussian_2d(gx, gy, amp, x0, y0, wx, wy, base):
    k = 4.0 * np.log(2.0)
    return base + amp * np.exp(-k * ((gx - x0) ** 2 / wx ** 2 + (gy - y0) ** 2 / wy ** 2))


def sensitivity(count_rate, contrast, readout_us, t2star_us, t2_us):
    """Shot-noise-limited DC and AC sensitivity in nT/sqrt(Hz)."""
    pre = HBAR_J_S / (G_FACTOR * MU_B_J_PER_T)
    dc = pre / (contrast * np.sqrt(count_rate * readout_us * 1e-6)) / np.sqrt(t2star_us * 1e-6)
    return dc * 1e9, dc * np.sqrt(t2star_us / t2_us) * 1e9


def density(c_ens, c_single, psf):
    """Gaussian-PSF NV density: (per um^3, ppb of carbon sites)."""
    gauss_integral = np.sqrt(np.pi / (4.0 * np.log(2.0)))
    per_um3 = c_ens / c_single / (psf[0] * psf[1] * psf[2] * gauss_integral ** 3)
    return per_um3, per_um3 * 1e12 / CARBON_PER_CM3 * 1e9
