"""Pulse-sequence propagation and coherence-decay analysis.

Sequences run in the frame rotating at the microwave drive frequency; the
counter-rotating terms are dropped (valid for drive strengths far below the
2.87 GHz transition scale, in practice rabi_freq <= 20 MHz). Propagation
uses exact matrix exponentials of each piecewise-constant Hamiltonian, so
there is no step-size error. Free evolution is diagonal in the rotating
frame's basis and needs no eigensolve.

Frames are cached per process by ``functools.lru_cache``: the 128 most recently used,
keyed by the exact bits of the nuclear dimensions, Hamiltonian coefficients and drive
frequency (one ulp, or -0.0 for 0.0, is another key), each with its 8 most recently used
pulse eigensystems, keyed by (rabi_freq, phase). A d18 frame takes 23 KB and a pulse 6 KB,
so 9 MB in all at most. A miss does a cold call's work, so no result depends on the cache.

Decoherence is phenomenological: envelopes multiply coherences. The
closed-form trace models (FID, Hahn echo, relaxometry) carry stretched
exponents. The sequence propagator and the Rabi sweep share one rule: in the
eigenbasis of each segment, coherences decay with plain exponentials
(t_rho_rabi while driven, t2_star while free) and populations relax towards
the mixed state with t1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fitting import FitError, FitResult, levenberg_marquardt, median, pinned, sigma_weights
from .noise import NoiseSpec, apply_noise
from .spin_model import (FieldEnvironment, SpinSystem, _coefficients, eigenbasis, eigenlevels,
                         transition_lines)
from .tables import MIN_POINTS, columns, frozen, read_table, require, scalar, whole, write_table

READOUT_CONTRAST_SINGLE = 0.2


class DynamicsError(ValueError):
    """Invalid sequence or curve input."""


# ---------------------------------------------------------------------------
# sequence elements

def _check_fields(obj, rule="finite") -> None:
    """Check each field of ``obj`` by name against ``rule`` (durations and windows: >= 0)."""
    kind = type(obj).__name__
    for f in fields(obj):
        field_rule = "finite and nonnegative" if f.name in ("duration", "window") else rule
        scalar(DynamicsError, f"{kind} {f.name}", getattr(obj, f.name), field_rule)


class _Element:
    """Sequence element: each field is checked by name on construction."""

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class LaserInit(_Element):
    """Optical pumping into ms=0 (ideal polarization)."""

    duration: float = 1.0  # us


@dataclass(frozen=True)
class MwPulse(_Element):
    """Resonant-frame microwave drive segment.

    rabi_freq is the population oscillation frequency of an isolated
    two-level transition driven on resonance (MHz); phase in rad.
    """

    freq: float
    rabi_freq: float
    phase: float = 0.0
    duration: float = 0.0  # us


@dataclass(frozen=True)
class Wait(_Element):
    """Free evolution."""

    duration: float  # us


@dataclass(frozen=True)
class Readout(_Element):
    """PL readout window mapping ms=0 population to signal."""

    window: float = 0.5  # us


@dataclass(frozen=True)
class PulseSequence:
    """Ordered protocol: starts with LaserInit, ends with the one Readout.

    All MwPulse elements must share one drive frequency; it defines the
    rotating frame for the whole sequence.
    """

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        for k, e in enumerate(elements):
            if not isinstance(e, _Element):
                raise DynamicsError(f"sequence element {k} must be LaserInit, MwPulse, Wait "
                                    f"or Readout, got {type(e).__name__}")
        if not elements or not isinstance(elements[0], LaserInit):
            raise DynamicsError("sequence must start with LaserInit")
        readouts = [e for e in elements if isinstance(e, Readout)]
        if len(readouts) != 1 or not isinstance(elements[-1], Readout):
            raise DynamicsError("sequence must end with exactly one Readout")
        scalar(DynamicsError, "readout window", readouts[0].window, "finite and positive")
        freqs = {e.freq for e in elements if isinstance(e, MwPulse)}
        if len(freqs) > 1:
            raise DynamicsError("all MwPulse elements must share one frequency")
        object.__setattr__(self, "elements", elements)

    @property
    def drive_freq(self) -> float:
        return next((e.freq for e in self.elements if isinstance(e, MwPulse)), 0.0)


@dataclass(frozen=True)
class CoherenceParams:
    """Measured coherence times: t1 in ms, the rest in us."""

    t1: float
    t2: float
    t2_star: float
    t_rho_rabi: float

    def __post_init__(self):
        _check_fields(self, "finite and positive")
        if not (self.t2_star <= self.t2 <= 2.0 * self.t1 * 1000.0):
            raise DynamicsError("expected t2_star <= t2 <= 2*t1")


@dataclass(frozen=True)
class DecayCurve:
    """Time-domain trace: times (us, increasing), signal, uncertainty."""

    times: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    kind: str = "fid"

    def __post_init__(self):
        times, signal, sigma = columns(self, DynamicsError, "times", "signal", "sigma")
        if len(times) < MIN_POINTS:
            raise DynamicsError(f"decay curve needs at least {MIN_POINTS} points")
        require(DynamicsError, "times", times)
        if not (times[1:] > times[:-1]).all():
            raise DynamicsError("times must be strictly increasing")
        require(DynamicsError, "signal", signal)
        require(DynamicsError, "sigma", sigma, "finite and nonnegative")
        if self.kind not in ("rabi", "fid", "hahn", "t1"):
            raise DynamicsError(f"unknown curve kind {self.kind!r}")


class DecayModel(Enum):
    STRETCHED = "stretched"
    SINGLE_EXP = "single_exp"
    STRETCHED_TIMES_OSC = "stretched_osc"


@dataclass
class EnvelopeFit:
    """Stretched-exponential envelope parameters extracted from a curve.

    report.params holds (baseline, amplitude, t_coh, n_stretch); SINGLE_EXP
    fixes n_stretch = 1 and fits only the first three. STRETCHED_TIMES_OSC
    fixes amplitude = 1, as its quadratures carry the beat amplitudes, and
    report.params holds (baseline, t_coh, n_stretch) and then (f, cos, sin)
    per beat, with each f in ``frequencies``.
    """

    t_coh: float
    n_stretch: float
    amplitude: float
    baseline: float
    frequencies: tuple = ()
    report: FitResult | None = None

    def __post_init__(self):
        scalar(DynamicsError, "t_coh", self.t_coh, "finite and positive")
        if not (0.3 < scalar(DynamicsError, "n_stretch", self.n_stretch) < 4.0):
            raise DynamicsError(f"n_stretch must lie in (0.3, 4), got {self.n_stretch!r}")


@dataclass
class SequenceResult:
    population: float
    signal: float


# ---------------------------------------------------------------------------
# propagation

@dataclass(frozen=True)
class _FrameKey:
    """A frame's cache key, equal and hashed by ``bits`` alone; the rest builds a miss."""

    bits: tuple
    system: SpinSystem = field(compare=False)
    env: FieldEnvironment = field(compare=False)
    drive_freq: float = field(compare=False)


class _RotatingFrame:
    """Rotating-wave frame built on the exact eigenstates of the static
    Hamiltonian, with the operators of :func:`~nvkit.spin_model.eigenbasis`.

    Eigenstates are classified by their dominant ms sector (the Sz^2
    expectation value, 0 for ms=0-like and 1 for ms=+-1-like states). In the
    frame rotating at the drive frequency the sector energies are offset by
    -f per excitation; drive matrix elements within one sector and all
    static cross-sector couplings oscillate at the drive frequency and are
    dropped. The frame keeps the cross-sector parts of Sx and Sy, scaled by
    the rotating-wave amplitude 1/sqrt(2). Its arrays are shared, so read-only.
    ``eigensystem(rabi_freq, phase)`` is cached per frame, on a partial that holds no frame.
    """

    def __init__(self, key: _FrameKey):
        evals, (sz2, sx, sy, p0) = eigenbasis(key.system, key.env)
        sectors = np.clip(np.round(np.diag(sz2).real), 0.0, 1.0)
        self.frame_energies = frozen(evals - key.drive_freq * sectors)
        cross = np.abs(sectors[:, None] - sectors[None, :]) > 0.5
        self.drive_x, self.drive_y = frozen(
            np.where(cross, np.array((sx, sy)) / np.sqrt(2.0), 0.0), complex)
        self.p0 = frozen(p0, complex)  # a copy, so the rotated Sz^2, Sx and Sy are freed
        self.rho0 = frozen(p0 / np.trace(p0).real, complex)  # the state after LaserInit
        self.eigensystem = lru_cache(maxsize=_PULSES_PER_FRAME)(partial(
            _pulse_eigensystem, self.frame_energies, self.drive_x, self.drive_y))


def _pulse_eigensystem(frame_energies, drive_x, drive_y, rabi_freq, phase):
    """Read-only ``(evals, evecs)`` of a frame's pulse of ``rabi_freq`` and ``phase``."""
    h = (np.diag(frame_energies) + rabi_freq * np.cos(phase) * drive_x
         + rabi_freq * np.sin(phase) * drive_y)
    return tuple(frozen(a, a.dtype) for a in eigenlevels(h))


_PULSES_PER_FRAME, _FRAMES = 8, lru_cache(maxsize=128)(_RotatingFrame)


def _frame(system: SpinSystem, env: FieldEnvironment, drive_freq: float) -> _RotatingFrame:
    """The cached frame, built on a miss by the one eigensolve of :func:`eigenbasis`."""
    bits = (tuple(nuc.dimension for nuc in system.nuclei),
            np.append(_coefficients(system, env), drive_freq).tobytes())
    return _FRAMES(_FrameKey(bits, system, env, drive_freq))


def _segment_factors(eigensystem, duration, t_coh, t1_us):
    """What :func:`_evolve` applies for one segment of ``duration``.

    ``eigensystem`` is the segment Hamiltonian's ``(evals, evecs)``; ``evecs``
    None means it is diagonal in the frame basis, as for free evolution.
    Coherences between eigenstates pick up their phases and decay with
    ``t_coh``; populations relax towards the mixed state with ``t1_us``.
    """
    evals, evecs = eigensystem
    phases = np.exp(-2j * np.pi * evals * duration)
    coherence = phases[:, None] * phases.conj() * np.exp(-duration / t_coh)
    np.fill_diagonal(coherence, 1.0)
    relax = np.exp(-duration / t1_us) if np.isfinite(t1_us) else None
    return evecs, None if evecs is None else evecs.conj().T, coherence, relax


def _evolve(rho, factors):
    """Evolve ``rho`` through one segment, given its :func:`_segment_factors`."""
    evecs, evecs_h, coherence, relax = factors
    rho_e = (rho if evecs is None else evecs_h @ rho @ evecs) * coherence
    if relax is not None:
        mixed = 1.0 / len(rho_e)
        np.fill_diagonal(rho_e, mixed + (rho_e.diagonal().real - mixed) * relax)
    return rho_e if evecs is None else evecs @ rho_e @ evecs_h


def propagate_sequence(
    system: SpinSystem,
    env: FieldEnvironment,
    seq: PulseSequence,
    coh: CoherenceParams | None = None,
    readout_contrast: float = READOUT_CONTRAST_SINGLE,
    return_state: bool = False,
):
    """Run a pulse sequence and return the ms=0 population at readout.

    The readout signal is 1 - contrast*(1 - population). Without coh the
    evolution is purely unitary. The frame and its pulse eigensystems come from
    the frame cache (see the module docstring).
    """
    scalar(DynamicsError, "readout_contrast", readout_contrast)
    frame = _frame(system, env, seq.drive_freq)
    # (rabi_freq, phase) fixes a pulse; free evolution is diagonal in the frame basis
    segments, free = {}, (frame.frame_energies, None)
    if coh is None:
        t_rabi = t_free = t1_us = np.inf
    else:
        t_rabi, t_free, t1_us = coh.t_rho_rabi, coh.t2_star, coh.t1 * 1000.0

    for element in seq.elements:  # LaserInit comes first and Readout last
        if isinstance(element, LaserInit):
            rho = frame.rho0.copy()
        elif isinstance(element, (MwPulse, Wait)):
            drive = (element.rabi_freq, element.phase) if isinstance(element, MwPulse) else None
            key = (drive, element.duration)
            if key not in segments:
                t_coh = t_free if drive is None else t_rabi
                segments[key] = _segment_factors(frame.eigensystem(*drive) if drive else free,
                                                 element.duration, t_coh, t1_us)
            rho = _evolve(rho, segments[key])
        else:  # Readout
            population = float(np.trace(rho @ frame.p0).real)
            signal = 1.0 - readout_contrast * (1.0 - population)
            result = SequenceResult(population=population, signal=signal)
    if return_state:
        return result, rho
    return result


def simulate_rabi(
    system: SpinSystem,
    env: FieldEnvironment,
    coh: CoherenceParams | None,
    drive_freq: float,
    rabi_freq: float,
    durations: np.ndarray,
    readout_contrast: float = READOUT_CONTRAST_SINGLE,
    noise: NoiseSpec | None = None,
) -> DecayCurve:
    """ms=0 readout signal versus resonant drive duration.

    Takes the frame and drive eigensystem from the frame cache (see the module
    docstring) and contracts all durations at once. ``durations`` must be a
    strictly increasing 1-D grid of at least ``MIN_POINTS`` values. With
    ``coh``, each point decays as one pulse of :func:`propagate_sequence`
    does, so it does not depend on the other durations of the grid.
    """
    for name, value in (("drive_freq", drive_freq), ("rabi_freq", rabi_freq),
                        ("readout_contrast", readout_contrast)):
        scalar(DynamicsError, name, value)
    durations = require(DynamicsError, "durations", durations, "finite and nonnegative")
    if np.ndim(durations) != 1:
        raise DynamicsError(f"durations must be 1-D, got shape {np.shape(durations)}")
    if len(durations) < MIN_POINTS:
        raise DynamicsError(f"durations must hold at least {MIN_POINTS} points")
    if not (durations[1:] > durations[:-1]).all():
        raise DynamicsError("durations must be strictly increasing")
    frame = _frame(system, env, drive_freq)
    evals, evecs = frame.eigensystem(float(rabi_freq), 0.0)  # a 0-d array is no cache key
    rho_e, p0_e = evecs.conj().T @ np.array((frame.rho0, frame.p0)) @ evecs

    # trace(rho(t) p0) with rho(t)_ij = e^{-2 pi i (E_i - E_j) t} rho_ij
    phases = np.exp(-2j * np.pi * np.outer(durations, evals))
    pops = ((phases @ (rho_e * p0_e.T)) * phases.conj()).sum(1).real

    if coh is not None:
        # as in propagate_sequence: the coherences' share pops - s decays with t_rho_rabi,
        # and the populations' share s relaxes with T1 to that of the mixed state, m
        s = (rho_e.diagonal() * p0_e.diagonal()).sum().real
        m = np.trace(p0_e).real / len(evals)
        pops = ((pops - s) * np.exp(-durations / coh.t_rho_rabi) + m
                + (s - m) * np.exp(-durations / (coh.t1 * 1000.0)))
    signal, sigma = apply_noise(1.0 - readout_contrast * (1.0 - pops), noise)
    return DecayCurve(times=durations, signal=signal, sigma=sigma, kind="rabi")


# ---------------------------------------------------------------------------
# closed-form traces

def fid_detunings(system: SpinSystem, env: FieldEnvironment, detuning: float):
    """Hyperfine-split FID beat frequencies and weights.

    The drive sits at the weighted centroid of the lower transition branch
    plus ``detuning``; returned detunings are line frequencies minus drive.
    """
    lines = transition_lines(system, env, merge_tol=1e-3)
    if not lines:
        return [(detuning, 1.0)]
    freqs, weights = map(np.array, zip(*lines))
    centroid = float(freqs @ weights / weights.sum())
    lower = freqs <= centroid + 1e-9
    if lower.any() and (~lower).any() and freqs[~lower].min() - freqs[lower].max() > 50.0:
        freqs, weights = freqs[lower], weights[lower]
        centroid = float(freqs @ weights / weights.sum())
    drive = centroid + detuning
    w = weights / weights.sum()
    return [(f - drive, wk) for f, wk in zip(freqs, w)]


def _closed_form_trace(kind, t_coh, times, baseline, amplitude, stretch, noise,
                       shape=lambda t: 1.0):
    """The ``kind`` curve baseline + amplitude*exp(-(t/t_coh)^stretch)*shape(t), with ``noise``;
    ``shape`` runs only after baseline, amplitude, stretch and times pass their checks."""
    scalar(DynamicsError, "baseline", baseline)
    scalar(DynamicsError, "amplitude", amplitude)
    scalar(DynamicsError, "stretch", stretch, "finite and positive")
    times = require(DynamicsError, "times", times, "finite and nonnegative")
    clean = baseline + amplitude * np.exp(-np.power(times / t_coh, stretch)) * shape(times)
    return DecayCurve(times, *apply_noise(clean, noise), kind)


def simulate_fid(
    system: SpinSystem,
    env: FieldEnvironment,
    coh: CoherenceParams,
    detuning: float,
    times: np.ndarray,
    baseline: float = 0.5,
    amplitude: float = 0.5,
    stretch: float = 1.0,
    noise: NoiseSpec | None = None,
) -> DecayCurve:
    """Free-induction decay: damped beats at the hyperfine detunings."""
    scalar(DynamicsError, "detuning", detuning)

    def beat(t):  # summed one component after another, in fid_detunings' order
        deltas, weights = np.array(fid_detunings(system, env, detuning)).T[:, :, None]
        return np.add.reduce(weights * np.cos(2.0 * np.pi * deltas * t), axis=0, initial=0.0)

    return _closed_form_trace("fid", coh.t2_star, times, baseline, amplitude, stretch,
                              noise, beat)


def simulate_hahn(
    system: SpinSystem,
    env: FieldEnvironment,
    coh: CoherenceParams,
    larmor_freq: float,
    times: np.ndarray,
    baseline: float = 0.5,
    amplitude: float = 0.5,
    stretch: float = 1.5,
    mod_depth: float = 0.8,
    noise: NoiseSpec | None = None,
) -> DecayCurve:
    """Hahn-echo amplitude with nuclear-bath collapse/revival modulation.

    Revivals recur each Larmor period: the echo is multiplied by
    1 - mod_depth*sin^4(pi*f_L*t), which returns to 1 at t = k/f_L.
    ``system`` and ``env`` are not read; they keep the signature of simulate_fid.
    """
    scalar(DynamicsError, "larmor_freq", larmor_freq, "finite and nonnegative")
    scalar(DynamicsError, "mod_depth", mod_depth)
    return _closed_form_trace(
        "hahn", coh.t2, times, baseline, amplitude, stretch, noise,
        lambda t: 1.0 - mod_depth * np.sin(np.pi * larmor_freq * t) ** 4)


def simulate_relaxometry(
    coh: CoherenceParams,
    times: np.ndarray,
    baseline: float = 0.5,
    amplitude: float = 0.5,
    noise: NoiseSpec | None = None,
) -> DecayCurve:
    """Longitudinal relaxation: single exponential with time constant t1."""
    return _closed_form_trace("t1", coh.t1 * 1000.0, times, baseline, amplitude, 1.0, noise)


# ---------------------------------------------------------------------------
# fitting and spectral analysis

def _envelope(t, t_coh, n):
    return np.exp(-np.power(np.clip(t / t_coh, 0.0, 50.0), n))


def fit_decay_envelope(curve: DecayCurve, model: DecayModel) -> EnvelopeFit:
    """Fit a stretched/single-exponential envelope, optionally with beats.

    STRETCHED_TIMES_OSC is the one beat fit, which :func:`extract_frequencies`
    reads too: the trace sets the beat count, and each beat's frequency and
    quadratures are fitted under the shared stretched envelope. A trace with
    no beat, or a fit whose t_coh or n_stretch ends on a bound, raises FitError.
    A ``model`` that is not a DecayModel member raises DynamicsError.
    """
    if not isinstance(model, DecayModel):
        raise DynamicsError(f"unknown decay model {model!r}")
    if np.ptp(curve.signal) <= 0:
        raise FitError("signal is constant; nothing to fit")
    if model is DecayModel.STRETCHED_TIMES_OSC:
        if (beats := _beat_fit(curve)) is None:
            raise FitError("no oscillation found to fit with stretched_osc")
        fit, bounds = beats
        (b, t_coh, n_fit), a = fit.params[:3], 1.0
        names, freqs = ("baseline", "t_coh", "n_stretch"), tuple(map(float, fit.params[3::3]))
    else:  # (baseline, amplitude, t_coh, n_stretch); SINGLE_EXP holds n_stretch at 1
        times, signal, weights = curve.times, curve.signal, sigma_weights(curve.sigma)
        t_scale = times[-1] - times[0]
        baseline0 = float(signal[-max(len(signal) // 8, 1):].mean())
        amp0 = float(signal[0] - baseline0)
        amp0 = amp0 if abs(amp0) >= 1e-12 else float(np.ptp(signal))
        k = 4 if model is DecayModel.STRETCHED else 3

        def residuals(p):
            n = p[3] if k == 4 else 1.0
            return (p[0] + p[1] * _envelope(times, p[2], n) - signal) * weights
        x0 = [baseline0, amp0, max(t_scale / 3.0, times[1] - times[0]), 1.5][:k]
        bounds = [(-np.inf, np.inf), (-np.inf, np.inf),
                  (1e-9 * t_scale, 1e6 * t_scale), (0.5, 3.0)][:k]
        fit = levenberg_marquardt(residuals, x0, bounds=bounds)
        b, a, t_coh = fit.params[:3]
        n_fit = 1.0 if model is DecayModel.SINGLE_EXP else fit.params[3]
        names, freqs = ("baseline", "amplitude", "t_coh", "n_stretch"), ()
    if on_bound := pinned(fit.params, bounds, names):
        raise FitError(f"decay envelope fit ended on a bound: {on_bound}")

    return EnvelopeFit(t_coh=float(t_coh), n_stretch=float(n_fit), amplitude=float(a),
                       baseline=float(b), frequencies=freqs, report=fit)


def extract_frequencies(curve: DecayCurve, max_components: int):
    """The ``max_components`` strongest beats of a trace as (freq_MHz, amplitude).

    They come from the beat fit of STRETCHED_TIMES_OSC (:func:`fit_decay_envelope`),
    strongest first; a trace with no pencil beat, a constant one included, yields [].
    """
    max_components = whole(DynamicsError, "max_components", max_components, 1)
    if len(curve.times) < 2 * max_components:
        raise DynamicsError("too few points for the requested component count")
    if (beats := _beat_fit(curve)) is None:
        return []
    f, amps = beats[0].params[3::3], np.hypot(*beats[0].params[3:].reshape(-1, 3).T[1:])
    strongest = np.argsort(-amps, kind="stable")[:max_components]
    return list(zip(f[strongest].tolist(), amps[strongest].tolist()))


def _pencil(times, signal):
    """Ascending beat frequencies and an envelope time seeded by one matrix pencil.

    The trace, resampled on n uniform points, fills a Hankel matrix of n//3 + 1
    columns. The order is the minimum description length of its Gram eigenvalues
    (Wax & Kailath 1985), floored at 1e-12 of the largest, as a noiseless trace's
    round-off tail is not flat. The poles are the eigenvalues of pinv(V[:-1]) @ V[1:]
    for the order's leading eigenvectors V (Hua & Sarkar 1990). A pole above the real
    axis is a beat, real ones are the envelope and offset; beats within 1/(n dt) merge.
    """
    n, dt = len(times), (times[-1] - times[0]) / (len(times) - 1)
    y = np.interp(np.linspace(times[0], times[-1], n), times, signal)
    if np.abs(y - y.mean()).max() <= 1e-12 * max(abs(y.mean()), 1.0):  # constant: no beat
        return np.array([]), 0.0
    hankel = sliding_window_view(y, n // 3 + 1)
    lam, vecs = np.linalg.eigh(hankel.T @ hankel)
    lam, vecs, rows = np.maximum(lam[::-1], 1e-12 * lam[-1]), vecs[:, ::-1], len(hankel)
    # MDL(k) over the tails lam[k:]: the log of their arithmetic over geometric mean
    tail, k = np.arange(len(lam), 0, -1), np.arange(len(lam))
    mean, log_mean = (np.cumsum(x[::-1])[::-1] / tail for x in (lam, np.log(lam)))
    order = np.argmin(rows * tail * (np.log(mean) - log_mean)
                      + 0.5 * k * (2 * len(lam) - k) * np.log(rows))
    v = vecs[:, :max(order, 1)]
    poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    beats = poles[poles.imag > 0]
    tau = 1.0 / max(1.0 / ((n - 1) * dt), median(-np.log(np.abs(beats)) / dt))
    return _merged(np.angle(beats) / (2 * np.pi * dt), 1.0 / (n * dt)), tau


def _merged(freqs, resolution):
    """``freqs`` sorted, each run of neighbours closer than ``resolution`` replaced by its mean."""
    freqs = np.sort(freqs)
    group = np.cumsum(np.diff(freqs, prepend=-np.inf) >= resolution) - 1
    return np.bincount(group, freqs) / np.bincount(group)


def _beat_fit(curve: DecayCurve):
    """The beat fit of a trace and its bounds, or None when the pencil finds no beat.

    Its params are (baseline, t_coh, n_stretch, then f, cos and sin per beat) of
    baseline + exp(-(t/t_coh)^n_stretch) * sum(cos*cos(2 pi f t) + sin*sin(2 pi f t)),
    fitted on the curve's own times with weights 1/sigma, each f within four bins
    1/(n dt) of its seed. Beats the fit brings within one bin are merged and refitted;
    within two bins, only if that lowers the Bayesian information criterion.
    """
    times, signal, weights = curve.times, curve.signal, sigma_weights(curve.sigma)
    freqs, tau = _pencil(times, signal)
    if not freqs.size:
        return None
    n, span = len(times), times[-1] - times[0]
    df = (n - 1) / (n * span)  # the resolution 1/(n dt)

    def residuals(p):
        f, c, s = p[3:].reshape(-1, 3).T[:, :, None]
        phase = 2 * np.pi * f * times
        # summed one beat after another
        osc = np.add.reduce(c * np.cos(phase) + s * np.sin(phase), axis=0, initial=0.0)
        return (p[0] + _envelope(times, p[1], p[2]) * osc - signal) * weights

    def fit_from(freqs):
        # the baseline and quadratures seeded by linear least squares under the seed envelope
        phase = 2 * np.pi * freqs * times[:, None]
        basis = np.column_stack((np.ones(n), *(_envelope(times, tau, 1.0)[:, None]
                                               * (np.cos(phase), np.sin(phase)))))
        seed = np.linalg.lstsq(basis * weights[:, None], signal * weights, rcond=None)[0]
        x0 = np.r_[seed[0], tau, 1.0, np.column_stack((freqs, *seed[1:].reshape(2, -1))).ravel()]
        bounds = [(-np.inf, np.inf), (1e-9 * span, 1e6 * span), (0.5, 3.0)]
        for f in freqs:
            bounds += [(max(f - 4 * df, 0.0), f + 4 * df), (-np.inf, np.inf), (-np.inf, np.inf)]
        fit = levenberg_marquardt(residuals, x0, bounds=bounds)
        return n * np.log(max(fit.residual_norm ** 2, 1e-300)) + fit.params.size * np.log(n), \
            fit, bounds

    best = fit_from(freqs)
    for bins in (1, 2):  # merged within one bin, then within two bins if the criterion prefers it
        fitted = np.sort(best[1].params[3::3])
        if (np.diff(fitted) < bins * df).any():
            merged = fit_from(_merged(fitted, bins * df))
            best = merged if bins == 1 else min(best, merged, key=lambda b: b[0])
    return best[1:]


# ---------------------------------------------------------------------------
# file format

def save_curve(path, curve: DecayCurve) -> None:
    """Write `# decay v1 kind=<rabi|fid|hahn|t1>` plus time/signal/sigma rows."""
    write_table(path, [f"# decay v1 kind={curve.kind}"],
                np.column_stack((curve.times, curve.signal, curve.sigma)))


def load_curve(path) -> DecayCurve:
    """Read the decay-curve format written by :func:`save_curve`."""
    (kind,), data = read_table(path, "decay", ("kind",), 3, DynamicsError)
    return DecayCurve(times=data[:, 0], signal=data[:, 1], sigma=data[:, 2], kind=kind)
