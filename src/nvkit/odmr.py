"""CW and pulsed ODMR spectra: synthesis and multi-Lorentzian dip fitting.

Spectra are normalized photoluminescence versus microwave frequency; spin
transitions appear as Lorentzian dips below the off-resonance baseline.
CW spectra use a power-broadened default linewidth (8 MHz FWHM); pulsed
spectra use 0.7 MHz, narrow enough to resolve the 2.16 MHz 14N structure.
The dip fit passes the closed-form Jacobian of its residual to the
Levenberg-Marquardt solver, so it makes one residual call per iteration and
no finite-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import D_ZFS_MHZ
from .fitting import levenberg_marquardt, percentile
from .noise import NoiseSpec, apply_noise
from .spin_model import (
    FieldEnvironment,
    SpinSystem,
    merge_lines,
    orientation_variants,
    project_field,
    unmerged_lines,
)
from .tables import read_table, write_table

CW_FWHM_MHZ = 8.0
PULSED_FWHM_MHZ = 0.7


class OdmrError(ValueError):
    """Invalid ODMR input (bad grid, degenerate spectrum, bad file)."""


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise OdmrError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OdmrSpectrum:
    """Sampled ODMR trace: frequency grid (MHz), normalized PL, uncertainty."""

    freqs: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    mode: str = "cw"

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (len(freqs) == len(signal) == len(sigma)):
            raise OdmrError("freqs, signal and sigma must have equal length")
        if len(freqs) < 8:
            raise OdmrError("spectrum needs at least 8 points")
        if not (np.all(np.isfinite(freqs)) and np.all(np.diff(freqs) > 0)):
            raise OdmrError("frequency grid must be finite and strictly increasing")
        if not (np.all(np.isfinite(signal)) and np.all(np.isfinite(sigma))):
            raise OdmrError("signal and sigma must be finite")
        if np.any(sigma < 0):
            raise OdmrError("sigma values must be nonnegative")
        if self.mode not in ("cw", "pulsed"):
            raise OdmrError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class LineShapeModel:
    """Multi-dip Lorentzian parameterization of an ODMR spectrum."""

    centers: np.ndarray
    contrasts: np.ndarray
    fwhms: np.ndarray
    baseline: float = 1.0

    def __post_init__(self):
        centers = np.atleast_1d(np.asarray(self.centers, dtype=float))
        contrasts = np.atleast_1d(np.asarray(self.contrasts, dtype=float))
        fwhms = np.atleast_1d(np.asarray(self.fwhms, dtype=float))
        if not (len(centers) == len(contrasts) == len(fwhms)):
            raise OdmrError("centers, contrasts and fwhms must have equal length")
        for name, values in (("centers", centers), ("contrasts", contrasts),
                             ("fwhms", fwhms), ("baseline", self.baseline)):
            _require_finite(name, values)
        if np.any(fwhms <= 0):
            raise OdmrError("fwhms must be positive")
        if np.any(contrasts < 0) or np.any(contrasts >= 1):
            raise OdmrError("contrasts must lie in [0, 1)")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "contrasts", contrasts)
        object.__setattr__(self, "fwhms", fwhms)

    def evaluate(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=float)
        signal = np.full_like(freqs, self.baseline)
        for f0, c, w in zip(self.centers, self.contrasts, self.fwhms):
            signal = signal - c * lorentzian(freqs, f0, w)
        return signal


def lorentzian(f, center, fwhm):
    """Unit-peak Lorentzian profile."""
    half = 0.5 * fwhm
    return half ** 2 / ((np.asarray(f, dtype=float) - center) ** 2 + half ** 2)


@dataclass
class OdmrFitResult:
    """Fitted line shape plus resonance shift/splitting in both conventions.

    delta_fit follows the two-line convention (quarter of the outer dip
    separation); delta_half_separation is the same separation divided by
    two, for comparison with half-splitting reports.
    """

    model: LineShapeModel
    d_fit: float
    xi_fit: float
    delta_fit: float
    delta_half_separation: float
    errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def orientation_lines(system: SpinSystem, env: FieldEnvironment, ensemble: bool = False):
    """Unmerged ``(freqs, strengths)`` of ``system``, one pair per orientation.

    With ensemble=True these are the four NV orientations in the fixed order,
    otherwise ``system`` alone; see :func:`spin_model.unmerged_lines`. The
    Hamiltonian sees an orientation only through its field projection, so
    orientations with the same projection share one eigensolve and the same
    arrays: at zero field all four do.
    """
    variants = orientation_variants(system) if ensemble else (system,)
    projections = np.array(project_field(env.b_lab, [v.orientation for v in variants]))
    solved, lines = {}, []
    for variant, projection in zip(variants, projections):
        key = projection.tobytes()  # exact bits, so 0.0 and -0.0 stay apart
        if key not in solved:
            solved[key] = unmerged_lines(variant, env)
        lines.append(solved[key])
    return lines


def synthesize_spectrum(
    system: SpinSystem,
    env: FieldEnvironment,
    mode: str,
    grid: np.ndarray,
    contrast: float = 0.1,
    baseline: float = 1.0,
    fwhm: float | None = None,
    ensemble: bool = False,
    branch_weights: tuple[float, float] = (1.0, 1.0),
    noise: NoiseSpec | None = None,
    unmerged: list | None = None,
) -> OdmrSpectrum:
    """Model ODMR spectrum for a spin system in its field environment.

    Dips sit at the exact transition frequencies of the diagonalized
    Hamiltonian. With ensemble=True the four NV orientations contribute
    equally; orientations with the same field projection share one
    eigensolve (see :func:`orientation_lines`). branch_weights scales dips
    below/above the mean line position to mimic the contrast asymmetry of
    strain-mixed sublevels.
    ``unmerged`` is ``orientation_lines(system, env, ensemble)``, for a
    caller that needs those lines too; it is computed here when None. Its
    length must match ``ensemble``: four orientations, or one.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise OdmrError("frequency grid is empty")
    if not np.all(np.diff(grid) > 0):
        raise OdmrError("frequency grid must be strictly increasing")
    if mode not in ("cw", "pulsed"):
        raise OdmrError(f"unknown mode {mode!r}; expected 'cw' or 'pulsed'")
    _require_finite("contrast", contrast)
    if contrast < 0:
        raise OdmrError(f"contrast must be nonnegative, got {contrast!r}")
    _require_finite("baseline", baseline)
    if fwhm is not None and not (np.isfinite(fwhm) and fwhm > 0):
        raise OdmrError(f"fwhm must be finite and positive, got {fwhm!r}")
    width = fwhm if fwhm is not None else (CW_FWHM_MHZ if mode == "cw" else PULSED_FWHM_MHZ)

    if unmerged is None:
        unmerged = orientation_lines(system, env, ensemble)
    elif len(unmerged) != (n := 4 if ensemble else 1):
        raise OdmrError(f"unmerged holds {len(unmerged)} orientations; "
                        f"ensemble={ensemble} needs {n}")

    lines: list[tuple[float, float]] = []
    for freqs, strengths in unmerged:
        for freq, weight in merge_lines(freqs, strengths):
            lines.append((freq, weight / len(unmerged)))

    signal = np.full_like(grid, baseline)
    if lines and contrast > 0:
        mean_freq = sum(f * w for f, w in lines) / sum(w for f, w in lines)
        lo_w, hi_w = branch_weights
        for freq, weight in lines:
            branch = lo_w if freq < mean_freq else hi_w
            signal = signal - contrast * branch * weight * lorentzian(grid, freq, width)

    noisy, sigma = apply_noise(signal, noise)
    return OdmrSpectrum(freqs=grid, signal=noisy, sigma=sigma, mode=mode)


def _half_depth_extent(smooth, baseline, i):
    """Contiguous index range around minimum ``i`` below half its depth.

    Each edge is the first index, walking out from ``i``, that is not below
    half depth, or the end of the array.
    """
    depth = max(baseline - smooth[i], 1e-12)
    half = baseline - 0.5 * depth
    stops = ~(smooth < half)
    right = np.flatnonzero(stops[i:-1])
    left = np.flatnonzero(stops[1:i + 1])
    right = i + right[0] if right.size else len(smooth) - 1
    left = 1 + left[-1] if left.size else 0
    return left, right


def _initial_model(spectrum: OdmrSpectrum, n_dips: int) -> LineShapeModel:
    """Seed dip parameters from the deepest local minima after smoothing.

    Once a minimum is picked, candidates inside its half-depth extent are
    excluded so noise wiggles within one dip cannot claim two seeds.
    """
    freqs, signal = spectrum.freqs, spectrum.signal
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(signal, kernel, mode="same")
    baseline = percentile(smooth, 90)

    inner = smooth[1:-1]
    minima = 1 + np.flatnonzero((inner <= smooth[:-2]) & (inner < smooth[2:]))
    # deepest first; ties broken toward lower frequency
    minima = minima[np.lexsort((freqs[minima], smooth[minima]))]
    picks: list[int] = []
    blocked = np.zeros(len(smooth), dtype=bool)
    for i in minima:
        if len(picks) == n_dips:
            break
        if blocked[i]:
            continue
        picks.append(i)
        left, right = _half_depth_extent(smooth, baseline, i)
        pad = max(right - left, 2)
        blocked[max(left - pad, 0):min(right + pad + 1, len(smooth))] = True
    while len(picks) < n_dips:
        # degenerate fallback: spread the remaining seeds over the grid
        k = len(picks)
        picks.append(int((k + 1) * (len(freqs) - 1) / (n_dips + 1)))
    picks.sort()

    centers, contrasts, widths = [], [], []
    span = freqs[-1] - freqs[0]
    for i in picks:
        depth = max(baseline - smooth[i], 1e-4)
        left, right = _half_depth_extent(smooth, baseline, i)
        width = max(freqs[right] - freqs[left], span / len(freqs))
        centers.append(freqs[i])
        contrasts.append(min(depth, 0.999))
        widths.append(width)
    return LineShapeModel(np.array(centers), np.array(contrasts), np.array(widths),
                          baseline=baseline)


def _pack(model: LineShapeModel) -> np.ndarray:
    return np.concatenate([[model.baseline],
                           np.column_stack([model.centers, model.contrasts,
                                            model.fwhms]).ravel()])


def _unpack(params: np.ndarray) -> LineShapeModel:
    baseline = params[0]
    trip = params[1:].reshape(-1, 3)
    order = np.argsort(trip[:, 0])
    trip = trip[order]
    return LineShapeModel(trip[:, 0], np.clip(trip[:, 1], 0.0, 0.999999),
                          trip[:, 2], baseline=baseline)


def _dip_residuals(params, freqs, signal, weights):
    """Weighted residual of the packed multi-dip model against ``signal``."""
    model = np.full_like(freqs, params[0])
    for f0, c, w in params[1:].reshape(-1, 3):
        model = model - c * lorentzian(freqs, f0, w)
    return (model - signal) * weights


def _dip_jacobian(params, freqs, weights):
    """Closed-form Jacobian of :func:`_dip_residuals` in the packed parameters.

    With h = w/2, u = f - f0, D = u^2 + h^2 and L = h^2/D, each dip adds
    -c*L to the model, and dL/df0 = 2 u h^2 / D^2, dL/dw = h u^2 / D^2.
    """
    jac = np.empty((freqs.size, params.size))
    jac[:, 0] = weights
    for k, (f0, c, w) in enumerate(params[1:].reshape(-1, 3)):
        h = 0.5 * w
        u = freqs - f0
        d = u * u + h * h
        shape = h * h / d * weights
        jac[:, 3 * k + 1] = -2.0 * c * u / d * shape
        jac[:, 3 * k + 2] = -shape
        jac[:, 3 * k + 3] = -c * u * u / (h * d) * shape
    return jac


def fit_spectrum(
    spectrum: OdmrSpectrum,
    n_dips: int,
    init: LineShapeModel | None = None,
    d_reference: float = D_ZFS_MHZ,
) -> OdmrFitResult:
    """Weighted multi-Lorentzian dip fit.

    Residuals are weighted by 1/sigma; a point with sigma = 0 gets weight 1.
    The solver gets the closed-form Jacobian of the weighted residual in the
    baseline and each dip's center, contrast and FWHM; the reported errors
    come from the same Jacobian at the solution. The shift/splitting
    summary uses the mean and spread of the outermost fitted centers
    relative to ``d_reference``.
    """
    if n_dips < 1:
        raise OdmrError("n_dips must be at least 1")
    if np.ptp(spectrum.signal) <= 0:
        raise OdmrError("spectrum is constant; nothing to fit")
    model0 = init if init is not None else _initial_model(spectrum, n_dips)
    if len(model0.centers) != n_dips:
        raise OdmrError("initial model dip count does not match n_dips")

    freqs, signal = spectrum.freqs, spectrum.signal
    weights = 1.0 / np.where(spectrum.sigma > 0, spectrum.sigma, 1.0)
    span = freqs[-1] - freqs[0]
    x0 = _pack(model0)

    def residuals(params):
        return _dip_residuals(params, freqs, signal, weights)

    def jacobian(params):
        return _dip_jacobian(params, freqs, weights)

    bounds = [(-np.inf, np.inf)]
    for _ in range(n_dips):
        bounds.extend([
            (freqs[0] - span, freqs[-1] + span),
            (0.0, 0.999999),
            (span / (10.0 * len(freqs)), 2.0 * span),
        ])

    fit = levenberg_marquardt(residuals, x0, bounds=bounds, jac=jacobian)
    model = _unpack(fit.params)

    v_lo, v_hi = model.centers[0], model.centers[-1]
    xi = 0.5 * (v_lo + v_hi) - d_reference
    # reorder the errors to match the sorted model parameters
    order = np.argsort(fit.params[1:].reshape(-1, 3)[:, 0])
    err = np.concatenate([[fit.stderr[0]],
                          fit.stderr[1:].reshape(-1, 3)[order].ravel()])
    return OdmrFitResult(
        model=model,
        d_fit=d_reference,
        xi_fit=xi,
        delta_fit=0.25 * (v_hi - v_lo),
        delta_half_separation=0.5 * (v_hi - v_lo),
        errors=err,
        residual_norm=fit.residual_norm,
        converged=fit.converged,
        iterations=fit.iterations,
    )


def invert_shift_splitting(v_minus: float, v_plus: float, d: float):
    """Shift/splitting scalars from the two resonance frequencies."""
    if v_plus < v_minus:
        raise OdmrError("v_plus must be >= v_minus")
    return 0.5 * (v_plus + v_minus) - d, 0.25 * (v_plus - v_minus)


def save_spectrum(path, spectrum: OdmrSpectrum) -> None:
    """Write `# odmr v1 mode=<cw|pulsed>` followed by freq/signal/sigma rows."""
    write_table(path, [f"# odmr v1 mode={spectrum.mode}"],
                np.column_stack((spectrum.freqs, spectrum.signal, spectrum.sigma)))


def load_spectrum(path) -> OdmrSpectrum:
    """Read the spectrum format written by :func:`save_spectrum`."""
    (mode,), data = read_table(path, "odmr", ("mode",), 3, OdmrError)
    return OdmrSpectrum(freqs=data[:, 0], signal=data[:, 1], sigma=data[:, 2], mode=mode)
