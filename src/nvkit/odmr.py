"""CW and pulsed ODMR spectra: synthesis and multi-Lorentzian dip fitting.

Spectra are normalized photoluminescence versus microwave frequency; spin
transitions appear as Lorentzian dips below the off-resonance baseline.
CW spectra use a power-broadened default linewidth (8 MHz FWHM); pulsed
spectra use 0.7 MHz, narrow enough to resolve the 2.16 MHz 14N structure.
Synthesis, :meth:`LineShapeModel.evaluate` and the fit residual share one
dip model. The dip fit passes the closed-form Jacobian of its residual to
the Levenberg-Marquardt solver, so it makes one residual call per iteration
and no finite-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import D_ZFS_MHZ
from .fitting import FitError, FitResult, levenberg_marquardt, pinned, sigma_weights
from .noise import NoiseSpec, apply_noise
from .spin_model import (
    NV_ORIENTATIONS,
    FieldEnvironment,
    SpinSystem,
    merge_lines,
    project_field,
    unmerged_lines,
)
from .tables import MIN_POINTS, columns, numbers, read_table, require, scalar, whole, write_table

CW_FWHM_MHZ = 8.0
PULSED_FWHM_MHZ = 0.7


class OdmrError(ValueError):
    """Invalid ODMR input (bad grid, degenerate spectrum, bad file)."""


@dataclass(frozen=True)
class OdmrSpectrum:
    """Sampled ODMR trace: frequency grid (MHz), normalized PL, uncertainty."""

    freqs: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    mode: str = "cw"

    def __post_init__(self):
        numbers(OdmrError, "frequency grid", self.freqs)  # named as its finite check names it
        freqs, signal, sigma = columns(self, OdmrError, "freqs", "signal", "sigma")
        if len(freqs) < MIN_POINTS:
            raise OdmrError(f"spectrum needs at least {MIN_POINTS} points")
        require(OdmrError, "frequency grid", freqs)
        if not (freqs[1:] > freqs[:-1]).all():
            raise OdmrError("frequency grid must be strictly increasing")
        require(OdmrError, "signal", signal)
        require(OdmrError, "sigma", sigma, "finite and nonnegative")
        if self.mode not in ("cw", "pulsed"):
            raise OdmrError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class LineShapeModel:
    """Multi-dip Lorentzian parameterization of an ODMR spectrum."""

    centers: np.ndarray
    contrasts: np.ndarray
    fwhms: np.ndarray
    baseline: float = 1.0

    def __post_init__(self):
        centers, contrasts, fwhms = columns(self, OdmrError, "centers", "contrasts", "fwhms")
        require(OdmrError, "centers", centers)
        require(OdmrError, "contrasts", contrasts)
        require(OdmrError, "fwhms", fwhms, "finite and positive")
        scalar(OdmrError, "baseline", self.baseline)
        if (contrasts < 0).any() or (contrasts >= 1).any():
            raise OdmrError("contrasts must lie in [0, 1)")

    def evaluate(self, freqs: np.ndarray) -> np.ndarray:
        """The modelled signal at ``freqs`` (MHz, any shape, all finite)."""
        return _dip_model(_pack(self), require(OdmrError, "freqs", freqs))


@dataclass
class OdmrFitResult:
    """Fitted line shape plus resonance shift/splitting in both conventions.

    delta_fit follows the two-line convention (quarter of the outer dip
    separation); delta_half_separation is the same separation divided by
    two, for comparison with half-splitting reports. report.params holds
    the baseline, then each dip's (center, contrast, FWHM) in the order of
    ``model.centers``.
    """

    model: LineShapeModel
    d_fit: float
    xi_fit: float
    delta_fit: float
    delta_half_separation: float
    report: FitResult | None = None


def orientation_lines(system: SpinSystem, env: FieldEnvironment, ensemble: bool = False):
    """Unmerged ``(freqs, strengths)`` of ``system``, one pair per orientation.

    With ensemble=True these are the four NV orientations of
    :data:`spin_model.NV_ORIENTATIONS` in the fixed order, otherwise
    ``system`` alone; see :func:`spin_model.unmerged_lines`. The Hamiltonian
    sees an orientation only through its field projection, so orientations
    with the same projection (compared bit for bit) share one eigensolve and
    the same arrays: at zero field all four do. Each group is solved as
    ``system`` turned to the group's first orientation.
    """
    if not ensemble:
        return [unmerged_lines(system, env)]
    solved, lines = {}, []
    for orientation, projection in zip(NV_ORIENTATIONS, np.array(project_field(env.b_lab))):
        key = projection.tobytes()  # exact bits, so 0.0 and -0.0 stay apart
        if key not in solved:
            solved[key] = unmerged_lines(replace(system, orientation=orientation), env)
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
    eigensolve (see :func:`orientation_lines`). branch_weights, exactly two
    values, scales dips below/above the mean line position to mimic the
    contrast asymmetry of strain-mixed sublevels; both must be finite and
    nonnegative. ``unmerged`` is ``orientation_lines(system, env, ensemble)``,
    for a caller that needs those lines too; it is computed here when None.
    Its length must match ``ensemble``: four orientations, or one.

    Orientations whose unmerged arrays are equal byte for byte are merged
    once, and each distinct merged line is one dip of the shared dip model,
    all evaluated in one call, with its weight times the share of
    orientations that hold it. Against subtracting every orientation's dips
    one by one, this moves the signal only by rounding: for unit baseline
    and contrast up to 0.1, by at most one unit in the last place of 1.0 per
    dip so subtracted, which is under 2e-15 for the eight dips of a
    bare-spin ensemble at zero field.
    """
    grid = require(OdmrError, "frequency grid", grid)
    if mode not in ("cw", "pulsed"):
        raise OdmrError(f"unknown mode {mode!r}; expected 'cw' or 'pulsed'")
    scalar(OdmrError, "contrast", contrast, "finite and nonnegative")
    scalar(OdmrError, "baseline", baseline)
    require(OdmrError, "branch_weights", branch_weights, "finite and nonnegative")
    width = fwhm if fwhm is not None else (CW_FWHM_MHZ if mode == "cw" else PULSED_FWHM_MHZ)
    scalar(OdmrError, "fwhm", width, "finite and positive")

    if unmerged is None:
        unmerged = orientation_lines(system, env, ensemble)
    elif len(unmerged) != (n := 4 if ensemble else 1):
        raise OdmrError(f"unmerged holds {len(unmerged)} orientations; "
                        f"ensemble={ensemble} needs {n}")
    if np.shape(branch_weights) != (2,):
        raise OdmrError(f"branch_weights must hold 2 values, got shape {np.shape(branch_weights)}")

    groups: dict[tuple, list] = {}  # exact bytes -> [freqs, strengths, orientations]
    for freqs, strengths in unmerged:
        group = groups.setdefault((freqs.tobytes(), strengths.tobytes()), [freqs, strengths, 0])
        group[2] += 1
    lines: list[tuple[float, float]] = []
    for freqs, strengths, count in groups.values():
        share = count / len(unmerged)
        for freq, weight in merge_lines(freqs, strengths):
            lines.append((freq, weight * share))

    mean_freq = sum(f * w for f, w in lines) / sum(w for f, w in lines) if lines else 0.0
    rows = np.array([(freq, weight, width) for freq, weight in lines]).reshape(-1, 3)
    rows[:, 1] *= contrast * np.where(rows[:, 0] < mean_freq, *branch_weights)
    signal = _dip_model(np.append(baseline, rows), grid)

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

    The baseline seed is the smoothed signal's value of rank round(0.9 (n - 1)),
    which is ``np.percentile(smooth, 90)`` whenever 0.9 (n - 1) is whole.
    Once a minimum is picked, candidates inside its half-depth extent are
    excluded so noise wiggles within one dip cannot claim two seeds.
    """
    freqs, signal = spectrum.freqs, spectrum.signal
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(signal, kernel, mode="same")
    rank = round(0.9 * (len(smooth) - 1))
    baseline = float(np.partition(smooth, rank)[rank])

    inner = smooth[1:-1]
    minima = 1 + np.flatnonzero((inner <= smooth[:-2]) & (inner < smooth[2:]))
    # deepest first; ties broken toward lower frequency
    minima = minima[np.lexsort((freqs[minima], smooth[minima]))]
    extents: dict[int, tuple[int, int]] = {}  # half-depth extent of each pick
    blocked = np.zeros(len(smooth), dtype=bool)
    for i in minima:
        if len(extents) == n_dips:
            break
        if blocked[i]:
            continue
        left, right = extents[i] = _half_depth_extent(smooth, baseline, i)
        pad = max(right - left, 2)
        blocked[max(left - pad, 0):min(right + pad + 1, len(smooth))] = True
    picks = list(extents)
    while len(picks) < n_dips:
        # degenerate fallback: spread the remaining seeds over the grid
        k = len(picks)
        i = int((k + 1) * (len(freqs) - 1) / (n_dips + 1))
        picks.append(i)
        extents[i] = _half_depth_extent(smooth, baseline, i)
    picks = np.sort(picks)
    left, right = np.array([extents[i] for i in picks]).T
    depths = np.maximum(baseline - smooth[picks], 1e-4)
    widths = np.maximum(freqs[right] - freqs[left], (freqs[-1] - freqs[0]) / len(freqs))
    return LineShapeModel(freqs[picks], np.minimum(depths, 0.999), widths, baseline=baseline)


def _pack(model: LineShapeModel) -> np.ndarray:
    return np.concatenate([[model.baseline],
                           np.column_stack([model.centers, model.contrasts,
                                            model.fwhms]).ravel()])


def _dip_terms(params, freqs):
    """Per-dip terms of the packed multi-dip model, each row one dip.

    With h = w/2 for each dip's FWHM w, returns (c, h, u, D, L): the
    contrasts and half widths as ``(n_dips, 1, ...)`` columns, with one
    axis of length 1 per axis of ``freqs``, and u = f - f0, D = u^2 + h^2
    and the unit-peak Lorentzian L = h^2/D as ``(n_dips, *freqs.shape)``
    arrays.
    """
    f0, c, w = params[1:].reshape(-1, 3).T.reshape((3, -1) + (1,) * np.ndim(freqs))
    h = 0.5 * w
    u = freqs - f0
    h2 = h * h
    d = u * u + h2
    return c, h, u, d, h2 / d


def _dip_model(params, freqs, terms=None):
    """The packed dips subtracted from the baseline in row order, at ``freqs``;
    ``terms`` is ``_dip_terms(params, freqs)``, computed here when None."""
    c, _, _, _, shape = _dip_terms(params, freqs) if terms is None else terms
    return np.subtract.reduce(c * shape, axis=0, initial=params[0])


def _dip_residuals(params, freqs, signal, weights, terms=None):
    """Weighted residual of :func:`_dip_model` against ``signal``; ``terms`` as there."""
    return (_dip_model(params, freqs, terms) - signal) * weights


def _dip_jacobian(params, freqs, weights, terms=None):
    """Closed-form Jacobian of :func:`_dip_residuals` in the packed parameters.

    With the terms of :func:`_dip_terms` (computed here when ``terms`` is
    None), each dip adds -c*L to the model, and dL/df0 = 2 u h^2 / D^2,
    dL/dw = h u^2 / D^2.
    """
    c, h, u, d, shape = _dip_terms(params, freqs) if terms is None else terms
    shape = shape * weights
    jac = np.empty((params.size, freqs.size))  # filled by rows, returned C-ordered
    jac[0] = weights
    jac[1::3] = -2.0 * c * u / d * shape
    jac[2::3] = -shape
    jac[3::3] = -c * u * u / (h * d) * shape
    return jac.T.copy()


def fit_spectrum(
    spectrum: OdmrSpectrum,
    n_dips: int,
    init: LineShapeModel | None = None,
    d_reference: float = D_ZFS_MHZ,
) -> OdmrFitResult:
    """Weighted multi-Lorentzian dip fit.

    Residuals are weighted by 1/sigma; a point with sigma = 0 gets weight 1.
    The solver gets the closed-form Jacobian of the weighted residual in the
    baseline and each dip's center, contrast and FWHM; ``report.stderr``
    comes from the same Jacobian at the solution. The residual and the
    Jacobian share the per-dip terms of :func:`_dip_terms`: the Jacobian
    reuses those of the last residual call when it is asked for the same
    point object, which is how the solver calls it. The shift/splitting
    summary is :func:`invert_shift_splitting` of the outermost fitted
    centers and ``d_reference``, which must be finite. ``n_dips`` must be a whole
    number from 1 to (points - 1) / 3: no more parameters than points. A fit
    that ends with a dip's contrast on its bound, 0 or 0.999999, raises
    :class:`~nvkit.fitting.FitError` naming the dip (numbered by center).
    """
    scalar(OdmrError, "d_reference", d_reference)
    most = (len(spectrum.freqs) - 1) // 3  # 3 parameters per dip and a baseline
    n_dips = whole(OdmrError, "n_dips", n_dips, 1, most)
    if np.ptp(spectrum.signal) <= 0:
        raise OdmrError("spectrum is constant; nothing to fit")
    model0 = init if init is not None else _initial_model(spectrum, n_dips)
    if len(model0.centers) != n_dips:
        raise OdmrError(f"init holds {len(model0.centers)} dips, but n_dips is {n_dips}")

    freqs, signal = spectrum.freqs, spectrum.signal
    weights = sigma_weights(spectrum.sigma)
    span = freqs[-1] - freqs[0]
    x0 = _pack(model0)

    last = [None, None]  # the point of the last residual call and its terms

    def residuals(params):
        last[:] = params, _dip_terms(params, freqs)
        return _dip_residuals(params, freqs, signal, weights, last[1])

    def jacobian(params):
        terms = last[1] if params is last[0] else None
        return _dip_jacobian(params, freqs, weights, terms)

    bounds = [(-np.inf, np.inf)] + [
        (freqs[0] - span, freqs[-1] + span),
        (0.0, 0.999999),
        (span / (10.0 * len(freqs)), 2.0 * span),
    ] * n_dips

    fit = levenberg_marquardt(residuals, x0, bounds=bounds, jac=jacobian)
    dips = 1 + 3 * np.argsort(fit.params[1:].reshape(-1, 3)[:, 0])
    order = np.concatenate([[0], (dips[:, None] + np.arange(3)).ravel()])
    report = replace(fit, params=fit.params[order], stderr=fit.stderr[order])
    p = report.params
    names = [f"dip {k + 1} contrast" for k in range(n_dips)]
    if on_bound := pinned(p[2::3], bounds[2::3], names):
        raise FitError(f"ODMR fit ended with a dip on its contrast bound: {on_bound}")
    model = LineShapeModel(p[1::3], p[2::3], p[3::3], baseline=p[0])
    xi, delta = invert_shift_splitting(model.centers[0], model.centers[-1], d_reference)
    return OdmrFitResult(model=model, d_fit=d_reference, xi_fit=xi, delta_fit=delta,
                         delta_half_separation=2 * delta, report=report)


def invert_shift_splitting(v_minus: float, v_plus: float, d: float):
    """Shift/splitting scalars from the two resonance frequencies."""
    for name, value in (("v_minus", v_minus), ("v_plus", v_plus), ("d", d)):
        scalar(OdmrError, name, value)
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
