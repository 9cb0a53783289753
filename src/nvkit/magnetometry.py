"""Photon-shot-noise-limited magnetic field sensitivity.

DC sensitivity of a Ramsey-type measurement with PL rate C (counts/s),
ODMR contrast, readout window t_L and inhomogeneous dephasing time T2*:

    eta_dc = hbar/(g mu_B) * 1/(contrast*sqrt(C t_L)) * 1/sqrt(T2*)

AC (echo-based) sensitivity improves by sqrt(T2*/T2). Published values for
this sample family quote ensemble T2 both as 1.63 us and, in the
sensitivity context, 1.53 us; the 6.6 nT/sqrt(Hz) figure corresponds to
1.53 us.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .constants import G_LANDE, HBAR_J_S, MU_B_J_PER_T
from .tables import scalar


class MagnetometryError(ValueError):
    """Invalid sensor parameters."""


@dataclass(frozen=True)
class SensorParams:
    """Measured sensor figures: count_rate in counts/s, times in us."""

    count_rate: float
    contrast: float
    readout_window: float
    t2_star: float
    t2: float

    def __post_init__(self):
        for f in fields(self):
            scalar(MagnetometryError, f.name, getattr(self, f.name), "finite and positive")
        if self.contrast >= 1:
            raise MagnetometryError("contrast must be below 1")
        if self.t2 < self.t2_star:
            raise MagnetometryError("t2 must be at least t2_star")


@dataclass(frozen=True)
class SensitivityReport:
    """DC and AC sensitivities in nT/sqrt(Hz) plus the constants used."""

    eta_dc: float
    eta_ac: float
    hbar: float = HBAR_J_S
    g_factor: float = G_LANDE
    mu_b: float = MU_B_J_PER_T


def sensitivity_si(count_rate_hz: float, contrast: float, readout_s: float,
                   t2_star_s: float, t2_s: float) -> tuple[float, float]:
    """Core formula in SI units; returns (eta_dc, eta_ac) in T/sqrt(Hz)."""
    for name, value in zip(("count_rate_hz", "contrast", "readout_s", "t2_star_s", "t2_s"),
                           (count_rate_hz, contrast, readout_s, t2_star_s, t2_s)):
        scalar(MagnetometryError, name, value, "finite and positive")
    prefactor = HBAR_J_S / (G_LANDE * MU_B_J_PER_T)
    eta_dc = prefactor / (contrast * (count_rate_hz * readout_s) ** 0.5) \
        / t2_star_s ** 0.5
    eta_ac = eta_dc * (t2_star_s / t2_s) ** 0.5
    return eta_dc, eta_ac


def sensitivity(params: SensorParams) -> SensitivityReport:
    """DC/AC sensitivity report in nT/sqrt(Hz) from us-denominated inputs."""
    eta_dc, eta_ac = sensitivity_si(
        params.count_rate,
        params.contrast,
        params.readout_window * 1e-6,
        params.t2_star * 1e-6,
        params.t2 * 1e-6,
    )
    return SensitivityReport(eta_dc=eta_dc * 1e9, eta_ac=eta_ac * 1e9)
