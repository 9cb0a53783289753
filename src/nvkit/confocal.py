"""Confocal PL maps, Gaussian slice fits, and NV-density estimation.

Density estimation compares the ensemble PL rate against a single emitter at
the same sub-saturation power. The Gaussian method divides by the product of
the PSF Gaussian integrals A_i = w_i*sqrt(pi/(4 ln 2)); the uniform-spheroid
alternative divides by (4 pi/3) w_x w_y w_z. Their ratio is the constant
(4 pi/3) / (pi/(4 ln 2))^(3/2) = 3.4729 for any PSF.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import CARBON_DENSITY_PER_CM3
from .fitting import FitError, FitResult, levenberg_marquardt, pinned
from .tables import frozen, numbers, parse_header, parse_rows, require, scalar, whole, write_table

GAUSS_INTEGRAL_PER_FWHM = float(np.sqrt(np.pi / (4.0 * np.log(2.0))))
_AXIS_NAMES = ("x", "y", "z")


class ConfocalError(ValueError):
    """Invalid map, slice, or density input."""


class MapFormatError(ConfocalError):
    """Map file violates the plmap v1 format; message carries the line."""


@dataclass(frozen=True)
class PLMap:
    """PL rate grid over 2 or 3 spatial axes (um), with excitation power."""

    axes: tuple
    counts: np.ndarray
    power: float

    def __post_init__(self):
        if len(self.axes) not in (2, 3):
            raise ConfocalError("PLMap supports 2 or 3 axes")
        axes = tuple(frozen(numbers(ConfocalError, f"axis {name}", a))
                     for name, a in zip(_AXIS_NAMES, self.axes))
        counts = frozen(numbers(ConfocalError, "counts", self.counts))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "counts", counts)
        for name, a in zip(_AXIS_NAMES, axes):
            if a.ndim != 1:
                raise ConfocalError(f"axis {name} must be 1-D, got shape {a.shape}")
            require(ConfocalError, f"axis {name}", a)
            if not (a[1:] > a[:-1]).all():
                raise ConfocalError(f"axis {name} must be strictly increasing")
        if counts.shape != tuple(len(a) for a in axes):
            raise ConfocalError("counts shape does not match axis lengths")
        require(ConfocalError, "counts", counts, "finite and nonnegative")
        scalar(ConfocalError, "power", self.power, "finite and positive")
        if 0 in counts.shape:  # save_map would write a file that load_map refuses
            raise ConfocalError(f"axis {_AXIS_NAMES[counts.shape.index(0)]} must hold a value")

    @property
    def ndim(self) -> int:
        return len(self.axes)


@dataclass
class GaussianSliceFit:
    """1D Gaussian profile: baseline + amplitude*exp(-4 ln2 (x-center)^2/fwhm^2)."""

    amplitude: float
    center: float
    fwhm: float
    baseline: float
    report: FitResult | None = None  # params in field order; None when built by hand

    def __post_init__(self):
        scalar(ConfocalError, "amplitude", self.amplitude, "finite and nonnegative")
        scalar(ConfocalError, "center", self.center)
        scalar(ConfocalError, "fwhm", self.fwhm, "finite and positive")
        scalar(ConfocalError, "baseline", self.baseline)


@dataclass(frozen=True)
class PsfModel:
    """Confocal point-spread function FWHMs (um)."""

    w_x: float
    w_y: float
    w_z: float

    def __post_init__(self):
        for name in ("w_x", "w_y", "w_z"):
            scalar(ConfocalError, f"PSF {name}", getattr(self, name), "finite and positive")


class DensityMethod(Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class DensityEstimate:
    """NV concentration as number density (um^-3) and ppb of carbon sites."""

    number_density: float
    ppb: float
    method: DensityMethod

    def __post_init__(self):
        scalar(ConfocalError, "number_density", self.number_density, "finite and nonnegative")
        scalar(ConfocalError, "ppb", self.ppb, "finite and nonnegative")


def number_density_to_ppb(per_um3: float) -> float:
    """um^-3 -> parts-per-billion of the diamond carbon density."""
    per_cm3 = per_um3 * 1e12
    return per_cm3 / CARBON_DENSITY_PER_CM3 * 1e9


def ppb_to_number_density(ppb: float) -> float:
    """Inverse of :func:`number_density_to_ppb`."""
    per_cm3 = ppb / 1e9 * CARBON_DENSITY_PER_CM3
    return per_cm3 / 1e12


def gaussian_profile(x, amplitude, center, fwhm, baseline):
    x = np.asarray(x, dtype=float)
    return baseline + amplitude * np.exp(-4.0 * np.log(2.0) * (x - center) ** 2 / fwhm ** 2)


def extract_slice(plmap: PLMap, axis: int, index):
    """1D slice along ``axis`` at fixed indices of the remaining axes.

    ``axis`` and each fixed index must be whole numbers inside the map; a
    negative index does not count from the end.
    """
    axis = whole(ConfocalError, "axis", axis, 0, plmap.ndim - 1)
    index = np.atleast_1d(numbers(ConfocalError, "index", index)).tolist()
    if len(index) != plmap.ndim - 1:
        raise ConfocalError("index must fix all axes except the sliced one")
    fixed = [k for k in range(plmap.ndim) if k != axis]
    slicer = [whole(ConfocalError, f"index of axis {_AXIS_NAMES[k]}", i, 0,
                    plmap.counts.shape[k] - 1) for i, k in zip(index, fixed)]
    slicer.insert(axis, slice(None))
    return plmap.axes[axis], plmap.counts[tuple(slicer)]


def fit_gaussian_slice(plmap: PLMap, axis: int, index,
                       init: GaussianSliceFit | None = None) -> GaussianSliceFit:
    """Fit a Gaussian profile to one map slice (at least 6 points)."""
    coords, values = extract_slice(plmap, axis, index)
    if len(coords) < 6:
        raise ConfocalError("slice needs at least 6 points")
    if np.ptp(values) <= 0:
        raise FitError("slice is flat; nothing to fit")

    if init is not None:
        x0 = [init.amplitude, init.center, init.fwhm, init.baseline]
    else:
        baseline0 = float(values.min())
        amp0 = float(values.max() - baseline0)
        center0 = float(coords[np.argmax(values)])
        half = baseline0 + 0.5 * amp0
        above = coords[values >= half]
        width0 = float(above.max() - above.min()) if above.size > 1 else \
            float(coords[1] - coords[0])
        x0 = [amp0, center0, max(width0, float(coords[1] - coords[0])), baseline0]

    span = float(coords[-1] - coords[0])

    def residuals(p):
        return gaussian_profile(coords, *p) - values

    bounds = [(0.0, np.inf), (coords[0] - span, coords[-1] + span),
              (1e-6 * span, 10.0 * span), (-np.inf, np.inf)]
    fit = levenberg_marquardt(residuals, x0, bounds=bounds)
    if on_bound := pinned(fit.params, bounds, ("amplitude", "center", "fwhm")):
        raise FitError(f"Gaussian slice fit ended on a bound: {on_bound}")
    return GaussianSliceFit(*fit.params.tolist(), report=fit)


def estimate_density(c_ensemble: float, c_single: float, psf: PsfModel,
                     method: DensityMethod = DensityMethod.GAUSSIAN) -> DensityEstimate:
    """NV density from ensemble vs single-emitter PL rates at equal power.

    Both rates must be taken below saturation (caller's responsibility).
    """
    scalar(ConfocalError, "c_ensemble", c_ensemble, "finite and nonnegative")
    scalar(ConfocalError, "c_single", c_single, "finite and positive")
    ratio = c_ensemble / c_single
    if method is DensityMethod.GAUSSIAN:
        volume = (psf.w_x * psf.w_y * psf.w_z) * GAUSS_INTEGRAL_PER_FWHM ** 3
    elif method is DensityMethod.UNIFORM:
        volume = (4.0 * np.pi / 3.0) * psf.w_x * psf.w_y * psf.w_z
    else:
        raise ConfocalError(f"unknown density method {method!r}")
    per_um3 = ratio / volume
    return DensityEstimate(number_density=per_um3,
                           ppb=number_density_to_ppb(per_um3), method=method)


def gaussian_uniform_ratio() -> float:
    """PSF-independent ratio of the Gaussian to uniform-spheroid estimates."""
    return float((4.0 * np.pi / 3.0) / GAUSS_INTEGRAL_PER_FWHM ** 3)


def enhancement_ratio(region_a: float, region_b: float) -> float:
    """PL (or density) enhancement of region A over region B."""
    scalar(ConfocalError, "region_a", region_a, "finite and nonnegative")
    scalar(ConfocalError, "region_b", region_b, "finite and positive")
    return region_a / region_b


# ---------------------------------------------------------------------------
# plmap v1 file format


def save_map(path, plmap: PLMap) -> None:
    """Write the plmap v1 format; the loader round-trips it bit-identically."""
    header = [f"# plmap v1 dims={plmap.ndim} power_mW={float(plmap.power)!r}"]
    for name, axis in zip(_AXIS_NAMES, plmap.axes):
        values = " ".join(repr(float(v)) for v in axis)
        header.append(f"# axis {name}: {len(axis)} {values}")
    write_table(path, header, plmap.counts.reshape(-1, len(plmap.axes[-1])))


def load_map(path) -> PLMap:
    """Parse the plmap v1 format, reporting offending line numbers; the values of
    each `# axis` line follow the data-row rules and errors of :func:`parse_rows`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    dims, power = parse_header(path, lines[0] if lines else "", "plmap",
                               ("dims", "power_mW"), MapFormatError)
    try:
        dims, power = int(dims), float(power)
    except ValueError:
        raise MapFormatError(f"{path}:1: malformed dims/power fields") from None
    if dims not in (2, 3):
        raise MapFormatError(f"{path}:1: dims must be 2 or 3, got {dims}")

    axes = []
    for lineno, name in enumerate(_AXIS_NAMES[:dims], start=2):
        if lineno > len(lines):
            raise MapFormatError(f"{path}:{lineno}: missing axis line")
        parts = lines[lineno - 1].split()
        if parts[:3] != ["#", "axis", f"{name}:"]:
            raise MapFormatError(f"{path}:{lineno}: expected axis {name} header, got "
                                 f"{lines[lineno - 1].strip()!r}")
        try:  # parse_rows would skip an empty or '#' row without naming its line
            n = int(parts[3])
            if parts[4].startswith("#"):
                raise ValueError
        except (IndexError, ValueError):
            raise MapFormatError(f"{path}:{lineno}: bad axis values") from None
        axes.append(parse_rows(path, [" ".join(parts[4:])], lineno, n, MapFormatError)[0])
        if not (axes[-1][1:] > axes[-1][:-1]).all():
            raise MapFormatError(f"{path}:{lineno}: axis {name} is not strictly increasing")

    data = parse_rows(path, lines[dims + 1:], dims + 2, len(axes[-1]), MapFormatError)
    shape = tuple(len(a) for a in axes)
    if data.size != (size := int(np.prod(shape))):
        raise MapFormatError(f"{path}: expected {size} count values, got {data.size}")
    return PLMap(axes=tuple(axes), counts=data.reshape(shape), power=power)
