"""Pulse-sequence propagation and coherence-decay analysis.

Sequences run in the frame rotating at the microwave drive frequency; the
counter-rotating terms are dropped (valid for drive strengths far below the
2.87 GHz transition scale, in practice rabi_freq <= 20 MHz). Propagation
uses exact matrix exponentials of each piecewise-constant Hamiltonian, so
there is no step-size error. Free evolution is diagonal in the rotating
frame's basis and needs no eigensolve; each distinct pulse Hamiltonian of a
sequence takes one LAPACK Hermitian eigensolve, shared by every pulse that
has its Rabi frequency and phase.

Decoherence is phenomenological: envelopes multiply coherences. The
closed-form trace models (FID, Hahn echo, relaxometry) carry stretched
exponents; the sequence propagator damps coherences segment by segment with
plain exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .fitting import FitError, levenberg_marquardt, median
from .noise import NoiseSpec, apply_noise
from .spin_model import (
    FieldEnvironment,
    SpinSystem,
    build_hamiltonian,
    eigenlevels,
    transition_lines,
    _operators,
)
from .tables import read_table, write_table

READOUT_CONTRAST_SINGLE = 0.2
READOUT_CONTRAST_ENSEMBLE = 0.033


class DynamicsError(ValueError):
    """Invalid sequence or curve input."""


# ---------------------------------------------------------------------------
# sequence elements

def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise DynamicsError(f"{name} must be finite, got {value!r}")


def _check_fields(obj) -> None:
    """Reject a non-finite field, or a negative duration or window, by name."""
    kind = type(obj).__name__
    for f in fields(obj):
        value = getattr(obj, f.name)
        _require_finite(f"{kind} {f.name}", value)
        if f.name in ("duration", "window") and value < 0:
            raise DynamicsError(f"{kind} {f.name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class LaserInit:
    """Optical pumping into ms=0 (ideal polarization)."""

    duration: float = 1.0  # us

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class MwPulse:
    """Resonant-frame microwave drive segment.

    rabi_freq is the population oscillation frequency of an isolated
    two-level transition driven on resonance (MHz); phase in rad.
    """

    freq: float
    rabi_freq: float
    phase: float = 0.0
    duration: float = 0.0  # us

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Wait:
    """Free evolution."""

    duration: float  # us

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Readout:
    """PL readout window mapping ms=0 population to signal."""

    window: float = 0.5  # us

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered protocol: starts with LaserInit, ends with the one Readout.

    All MwPulse elements must share one drive frequency; it defines the
    rotating frame for the whole sequence.
    """

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements or not isinstance(elements[0], LaserInit):
            raise DynamicsError("sequence must start with LaserInit")
        readouts = [e for e in elements if isinstance(e, Readout)]
        if len(readouts) != 1 or not isinstance(elements[-1], Readout):
            raise DynamicsError("sequence must end with exactly one Readout")
        if readouts[0].window <= 0:
            raise DynamicsError("readout window must be positive")
        freqs = {e.freq for e in elements if isinstance(e, MwPulse)}
        if len(freqs) > 1:
            raise DynamicsError("all MwPulse elements must share one frequency")
        object.__setattr__(self, "elements", elements)

    @property
    def drive_freq(self) -> float:
        for e in self.elements:
            if isinstance(e, MwPulse):
                return e.freq
        return 0.0


@dataclass(frozen=True)
class CoherenceParams:
    """Measured coherence times: t1 in ms, the rest in us."""

    t1: float
    t2: float
    t2_star: float
    t_rho_rabi: float

    def __post_init__(self):
        _check_fields(self)
        if min(self.t1, self.t2, self.t2_star, self.t_rho_rabi) <= 0:
            raise DynamicsError("coherence times must be positive")
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
        times = np.asarray(self.times, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (len(times) == len(signal) == len(sigma)):
            raise DynamicsError("times, signal and sigma must have equal length")
        if len(times) < 8:
            raise DynamicsError("decay curve needs at least 8 points")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise DynamicsError("times must be finite and strictly increasing")
        if not (np.all(np.isfinite(signal)) and np.all(np.isfinite(sigma))):
            raise DynamicsError("signal and sigma must be finite")
        if self.kind not in ("rabi", "fid", "hahn", "t1"):
            raise DynamicsError(f"unknown curve kind {self.kind!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "sigma", sigma)


class DecayModel(Enum):
    STRETCHED = "stretched"
    SINGLE_EXP = "single_exp"
    STRETCHED_TIMES_OSC = "stretched_osc"


@dataclass
class EnvelopeFit:
    """Stretched-exponential envelope parameters extracted from a curve."""

    t_coh: float
    n_stretch: float
    amplitude: float
    baseline: float
    errors: np.ndarray
    converged: bool
    frequencies: tuple = ()

    def __post_init__(self):
        if self.t_coh <= 0:
            raise DynamicsError("t_coh must be positive")
        if not (0.3 < self.n_stretch < 4.0):
            raise DynamicsError("stretch exponent outside (0.3, 4)")


@dataclass
class SequenceResult:
    population: float
    signal: float
    trajectory: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# propagation

class _RotatingFrame:
    """Rotating-wave frame built on the exact eigenstates of the static
    Hamiltonian.

    Eigenstates are classified by their dominant ms sector (the Sz^2
    expectation value, 0 for ms=0-like and 1 for ms=+-1-like states). In the
    frame rotating at the drive frequency the sector energies are offset by
    -f per excitation; drive matrix elements within one sector and all
    static cross-sector couplings oscillate at the drive frequency and are
    dropped.
    """

    def __init__(self, system: SpinSystem, env: FieldEnvironment, drive_freq: float):
        ops = _operators(system)
        self.evals, self.evecs = eigenlevels(build_hamiltonian(system, env))
        sectors = np.round(np.diag(self.evecs.conj().T @ ops.sz2 @ self.evecs).real)
        self.sectors = np.clip(sectors, 0.0, 1.0)
        self.frame_energies = self.evals - drive_freq * self.sectors
        self.sx = self.evecs.conj().T @ ops.sx @ self.evecs
        self.sy = self.evecs.conj().T @ ops.sy @ self.evecs
        self.cross = np.abs(self.sectors[:, None] - self.sectors[None, :]) > 0.5
        self.p0 = self.evecs.conj().T @ ops.p0 @ self.evecs

    def initial_state(self) -> np.ndarray:
        return self.p0.astype(complex) / np.trace(self.p0).real

    def hamiltonian(self, rabi_freq: float, phase: float) -> np.ndarray:
        h = np.diag(self.frame_energies).astype(complex)
        if rabi_freq:
            amp = rabi_freq / np.sqrt(2.0)
            drive = amp * (np.cos(phase) * self.sx + np.sin(phase) * self.sy)
            h = h + np.where(self.cross, drive, 0.0)
        return h

    def ms0_population(self, rho: np.ndarray) -> float:
        return float(np.trace(rho @ self.p0).real)


def _evolve(rho, eigensystem, duration, t_coh, t1_us):
    """Evolve ``rho`` for ``duration`` in the eigenbasis of the segment Hamiltonian.

    ``eigensystem`` is its ``(evals, evecs)``; ``evecs`` None means the
    Hamiltonian is diagonal in the frame basis, as for free evolution.
    Coherences between eigenstates pick up their phases and decay with
    ``t_coh``; populations relax towards the mixed state with ``t1_us``.
    """
    evals, evecs = eigensystem
    phases = np.exp(-2j * np.pi * evals * duration)
    n = len(evals)
    damp = np.full((n, n), np.exp(-duration / t_coh))
    np.fill_diagonal(damp, 1.0)
    rho_e = rho if evecs is None else evecs.conj().T @ rho @ evecs
    rho_e = rho_e * np.outer(phases, phases.conj()) * damp
    if np.isfinite(t1_us):
        mixed, relax = 1.0 / n, np.exp(-duration / t1_us)
        np.fill_diagonal(rho_e, mixed + (np.diag(rho_e).real - mixed) * relax)
    return rho_e if evecs is None else evecs @ rho_e @ evecs.conj().T


def propagate_sequence(
    system: SpinSystem,
    env: FieldEnvironment,
    seq: PulseSequence,
    coh: CoherenceParams | None = None,
    readout_contrast: float = READOUT_CONTRAST_SINGLE,
    return_trajectory: bool = False,
    return_state: bool = False,
):
    """Run a pulse sequence and return the ms=0 population at readout.

    The readout signal is 1 - contrast*(1 - population). Without coh the
    evolution is purely unitary.
    """
    _require_finite("readout_contrast", readout_contrast)
    frame = _RotatingFrame(system, env, seq.drive_freq)
    # frame.hamiltonian(0, 0) is diag(frame_energies); the sequence has one
    # drive frequency, so (rabi_freq, phase) fixes each pulse Hamiltonian
    free = (frame.frame_energies, None)
    pulses = {}
    if coh is None:
        t_rabi = t_free = t1_us = np.inf
    else:
        t_rabi, t_free, t1_us = coh.t_rho_rabi, coh.t2_star, coh.t1 * 1000.0

    rho = None
    t_elapsed = 0.0
    trajectory = []
    result = None
    for element in seq.elements:
        if isinstance(element, LaserInit):
            rho = frame.initial_state()
            t_elapsed += element.duration
        elif isinstance(element, MwPulse):
            key = (element.rabi_freq, element.phase)
            if key not in pulses:
                pulses[key] = eigenlevels(frame.hamiltonian(*key))
            rho = _evolve(rho, pulses[key], element.duration, t_rabi, t1_us)
            t_elapsed += element.duration
        elif isinstance(element, Wait):
            rho = _evolve(rho, free, element.duration, t_free, t1_us)
            t_elapsed += element.duration
        else:  # Readout
            population = frame.ms0_population(rho)
            signal = 1.0 - readout_contrast * (1.0 - population)
            result = SequenceResult(population=population, signal=signal)
        if return_trajectory and rho is not None:
            trajectory.append((t_elapsed, frame.ms0_population(rho)))
    if return_trajectory:
        result.trajectory = trajectory
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
) -> DecayCurve:
    """ms=0 readout signal versus resonant drive duration.

    Shares one eigendecomposition across all durations for speed; the
    optional Rabi dephasing envelope multiplies the oscillating part.
    """
    for name, value in (("drive_freq", drive_freq), ("rabi_freq", rabi_freq),
                        ("readout_contrast", readout_contrast)):
        _require_finite(name, value)
    durations = np.asarray(durations, dtype=float)
    if durations.size == 0:
        raise DynamicsError("empty duration grid")
    frame = _RotatingFrame(system, env, drive_freq)
    rho0 = frame.initial_state()
    evals, evecs = eigenlevels(frame.hamiltonian(rabi_freq, 0.0))
    rho_e = evecs.conj().T @ rho0 @ evecs
    p0_e = evecs.conj().T @ frame.p0 @ evecs

    # trace(rho(t) p0) with rho(t)_ij = e^{-2 pi i (E_i - E_j) t} rho_ij
    phases = np.exp(-2j * np.pi * np.outer(durations, evals))
    pops = np.einsum("ti,ij,tj->t", phases, rho_e * p0_e.T, phases.conj()).real

    if coh is not None:
        mean = np.mean(pops)
        envelope = np.exp(-durations / coh.t_rho_rabi)
        pops = mean + (pops - mean) * envelope
    signal = 1.0 - readout_contrast * (1.0 - pops)
    return DecayCurve(times=durations, signal=signal,
                      sigma=np.ones_like(durations), kind="rabi")


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
    freqs = np.array([f for f, _ in lines])
    weights = np.array([w for _, w in lines])
    centroid = float(freqs @ weights / weights.sum())
    lower = freqs <= centroid + 1e-9
    if lower.any() and (~lower).any() and freqs[~lower].min() - freqs[lower].max() > 50.0:
        freqs, weights = freqs[lower], weights[lower]
        centroid = float(freqs @ weights / weights.sum())
    drive = centroid + detuning
    w = weights / weights.sum()
    return [(f - drive, wk) for f, wk in zip(freqs, w)]


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
    for name, value in (("detuning", detuning), ("baseline", baseline),
                        ("amplitude", amplitude), ("stretch", stretch)):
        _require_finite(name, value)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise DynamicsError("empty time grid")
    comps = fid_detunings(system, env, detuning)
    beat = np.zeros_like(times)
    for delta, weight in comps:
        beat = beat + weight * np.cos(2.0 * np.pi * delta * times)
    envelope = np.exp(-np.power(times / coh.t2_star, stretch))
    clean = baseline + amplitude * envelope * beat
    signal, sigma = apply_noise(clean, noise)
    return DecayCurve(times=times, signal=signal, sigma=sigma, kind="fid")


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
    """
    for name, value in (("larmor_freq", larmor_freq), ("baseline", baseline),
                        ("amplitude", amplitude), ("stretch", stretch),
                        ("mod_depth", mod_depth)):
        _require_finite(name, value)
    if larmor_freq < 0:
        raise DynamicsError("larmor_freq must be nonnegative")
    times = np.asarray(times, dtype=float)
    envelope = np.exp(-np.power(times / coh.t2, stretch))
    if larmor_freq > 0:
        modulation = 1.0 - mod_depth * np.sin(np.pi * larmor_freq * times) ** 4
    else:
        modulation = np.ones_like(times)
    clean = baseline + amplitude * envelope * modulation
    signal, sigma = apply_noise(clean, noise)
    return DecayCurve(times=times, signal=signal, sigma=sigma, kind="hahn")


def simulate_relaxometry(
    coh: CoherenceParams,
    times: np.ndarray,
    baseline: float = 0.5,
    amplitude: float = 0.5,
    noise: NoiseSpec | None = None,
) -> DecayCurve:
    """Longitudinal relaxation: single exponential with time constant t1."""
    for name, value in (("baseline", baseline), ("amplitude", amplitude)):
        _require_finite(name, value)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise DynamicsError("empty time grid")
    clean = baseline + amplitude * np.exp(-times / (coh.t1 * 1000.0))
    signal, sigma = apply_noise(clean, noise)
    return DecayCurve(times=times, signal=signal, sigma=sigma, kind="t1")


# ---------------------------------------------------------------------------
# fitting and spectral analysis

def fit_decay_envelope(curve: DecayCurve, model: DecayModel,
                       max_components: int = 3) -> EnvelopeFit:
    """Fit a stretched/single-exponential envelope, optionally with beats.

    STRETCHED_TIMES_OSC seeds oscillation frequencies from
    :func:`extract_frequencies` and fits quadrature amplitudes per
    component under a shared envelope.
    """
    if np.ptp(curve.signal) <= 0:
        raise FitError("signal is constant; nothing to fit")
    times, signal = curve.times, curve.signal
    weights = 1.0 / np.where(curve.sigma > 0, curve.sigma, 1.0)
    t_scale = times[-1] - times[0]

    baseline0 = float(signal[-max(len(signal) // 8, 1):].mean())
    amp0 = float(signal[0] - baseline0)
    if abs(amp0) < 1e-12:
        amp0 = float(np.ptp(signal))
    t0 = max(t_scale / 3.0, times[1] - times[0])

    freqs: tuple = ()
    if model is DecayModel.STRETCHED_TIMES_OSC:
        freqs = tuple(f for f, _ in extract_frequencies(curve, max_components))

    def envelope(t, t_coh, n):
        return np.exp(-np.power(np.clip(t / t_coh, 0.0, 50.0), n))

    if model is DecayModel.SINGLE_EXP:
        def residuals(p):
            b, a, t_coh = p
            return (b + a * envelope(times, t_coh, 1.0) - signal) * weights
        x0 = [baseline0, amp0, t0]
        bounds = [(-np.inf, np.inf), (-np.inf, np.inf), (1e-9 * t_scale, 1e6 * t_scale)]
        fit = levenberg_marquardt(residuals, x0, bounds=bounds)
        b, a, t_coh = fit.params
        n_fit, err = 1.0, fit.stderr
    elif model is DecayModel.STRETCHED:
        def residuals(p):
            b, a, t_coh, n = p
            return (b + a * envelope(times, t_coh, n) - signal) * weights
        x0 = [baseline0, amp0, t0, 1.5]
        bounds = [(-np.inf, np.inf), (-np.inf, np.inf),
                  (1e-9 * t_scale, 1e6 * t_scale), (0.5, 3.0)]
        fit = levenberg_marquardt(residuals, x0, bounds=bounds)
        b, a, t_coh, n_fit = fit.params
        err = fit.stderr
    else:
        k = max(len(freqs), 1)
        f_arr = np.array(freqs) if freqs else np.array([0.0])

        def residuals(p):
            b, a, t_coh, n = p[:4]
            quads = p[4:].reshape(-1, 2)
            osc = np.zeros_like(times)
            for (ck, sk), fk in zip(quads, f_arr):
                osc = osc + ck * np.cos(2 * np.pi * fk * times) \
                          + sk * np.sin(2 * np.pi * fk * times)
            return (b + a * envelope(times, t_coh, n) * osc - signal) * weights

        x0 = np.concatenate([[baseline0, 1.0, t0, 1.5],
                             np.tile([amp0, 0.0], k)])
        bounds = [(-np.inf, np.inf), (-np.inf, np.inf),
                  (1e-9 * t_scale, 1e6 * t_scale), (0.5, 3.0)]
        bounds += [(-np.inf, np.inf)] * (2 * k)
        fit = levenberg_marquardt(residuals, x0, bounds=bounds)
        b, a, t_coh, n_fit = fit.params[:4]
        err = fit.stderr

    return EnvelopeFit(
        t_coh=float(t_coh),
        n_stretch=float(n_fit),
        amplitude=float(a),
        baseline=float(b),
        errors=err,
        converged=fit.converged,
        frequencies=freqs,
    )


def extract_frequencies(curve: DecayCurve, max_components: int):
    """Dominant oscillation frequencies of a trace as (freq_MHz, amplitude).

    DFT magnitude peaks above a noise-adaptive threshold seed a least-squares
    refinement of damped cosines in the time domain. Components are returned
    sorted by descending amplitude. A constant trace yields an empty list.
    """
    if len(curve.times) < 2 * max_components:
        raise DynamicsError("too few points for the requested component count")
    times, signal = curve.times, curve.signal
    steps = np.diff(times)
    if np.ptp(steps) > 1e-9 * steps.mean():
        uniform = np.linspace(times[0], times[-1], len(times))
        signal = np.interp(uniform, times, signal)
        times = uniform

    y = signal - signal.mean()
    scale = np.max(np.abs(y))
    if scale <= 1e-12 * max(abs(signal.mean()), 1.0) or scale == 0.0:
        return []

    dt = times[1] - times[0]
    mags = np.abs(np.fft.rfft(y * np.hanning(len(y))))
    freqs = np.fft.rfftfreq(len(y), dt)
    # ignore the DC/envelope leakage below two grid bins
    lo_cut = 2
    noise_floor = median(mags[lo_cut:])
    mad = median(np.abs(mags[lo_cut:] - noise_floor))
    threshold = noise_floor + 8.0 * max(mad, 1e-12 * mags.max())

    peaks = [i for i in range(max(lo_cut, 1), len(mags) - 1)
             if mags[i] > threshold and mags[i] >= mags[i - 1] and mags[i] > mags[i + 1]]
    peaks.sort(key=lambda i: -mags[i])
    peaks = peaks[:max_components]
    if not peaks:
        return []
    f_seed = np.sort(freqs[peaks])

    k = len(f_seed)
    t_span = times[-1] - times[0]

    # envelope time-constant seed: where the block-maximum of |y| falls to 1/e
    block = max(int(round(1.0 / (max(f_seed[0], 1e-9) * dt))), 4)
    tau_seed = t_span
    for start in range(0, len(y), block):
        if np.max(np.abs(y[start:start + block])) < scale / np.e:
            tau_seed = max(times[start] - times[0], 3.0 * dt)
            break

    def residuals(p):
        tau_env = p[0]
        env = np.exp(-np.clip((times - times[0]) / tau_env, 0.0, 50.0))
        out = np.full_like(times, p[1])
        for j in range(k):
            fj, cj, sj = p[2 + 3 * j: 5 + 3 * j]
            out = out + env * (cj * np.cos(2 * np.pi * fj * times)
                               + sj * np.sin(2 * np.pi * fj * times))
        return out - signal

    x0 = [tau_seed, signal.mean()]
    bounds = [(2.0 * dt, 1e6 * t_span), (-np.inf, np.inf)]
    df = freqs[1] - freqs[0]
    for fj in f_seed:
        x0 += [fj, scale, 0.0]
        bounds += [(max(fj - 4 * df, 0.0), fj + 4 * df),
                   (-4 * scale, 4 * scale), (-4 * scale, 4 * scale)]
    fit = levenberg_marquardt(residuals, x0, bounds=bounds)

    comps = []
    for j in range(k):
        fj, cj, sj = fit.params[2 + 3 * j: 5 + 3 * j]
        comps.append((float(fj), float(np.hypot(cj, sj))))
    comps.sort(key=lambda fc: -fc[1])
    return comps


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
