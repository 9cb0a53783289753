"""Pulse-sequence propagation and decay-curve analysis."""

import numpy as np
import pytest

from nvkit import dynamics
from nvkit.constants import GAMMA_C13_MHZ_PER_MT
from nvkit.dynamics import (
    CoherenceParams,
    DecayCurve,
    DecayModel,
    DynamicsError,
    LaserInit,
    MwPulse,
    PulseSequence,
    Readout,
    Wait,
    extract_frequencies,
    fit_decay_envelope,
    load_curve,
    propagate_sequence,
    save_curve,
    simulate_fid,
    simulate_hahn,
    simulate_rabi,
    simulate_relaxometry,
)
from nvkit.spin_model import (
    FieldEnvironment,
    HyperfineCoupling,
    SpinSystem,
    eigenlevels,
    transition_lines,
)

AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
COH = CoherenceParams(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0)


def isolated_two_level():
    """Electron-only system with a large axial field isolating one transition."""
    system = SpinSystem()
    env = FieldEnvironment(b_lab=100.0 * AXIS_111)
    f_low = transition_lines(system, env)[0][0]
    return system, env, f_low


# ---------------------------------------------------------------------------
# sequence validation

def test_sequence_must_start_with_laser_init():
    with pytest.raises(DynamicsError):
        PulseSequence((Wait(1.0), Readout(0.5)))


def test_sequence_needs_exactly_one_final_readout():
    with pytest.raises(DynamicsError):
        PulseSequence((LaserInit(1.0), Wait(1.0)))
    with pytest.raises(DynamicsError):
        PulseSequence((LaserInit(1.0), Readout(0.5), Readout(0.5)))


def test_zero_readout_window_rejected():
    with pytest.raises(DynamicsError):
        PulseSequence((LaserInit(1.0), Readout(0.0)))


def test_mixed_drive_frequencies_rejected():
    with pytest.raises(DynamicsError):
        PulseSequence((LaserInit(1.0), MwPulse(2870.0, 1.0, 0.0, 0.1),
                       MwPulse(2860.0, 1.0, 0.0, 0.1), Readout(0.5)))


def test_negative_coherence_times_rejected():
    with pytest.raises(DynamicsError):
        CoherenceParams(t1=-1.0, t2=1.0, t2_star=0.5, t_rho_rabi=1.0)
    with pytest.raises(DynamicsError):
        CoherenceParams(t1=1.0, t2=0.5, t2_star=1.0, t_rho_rabi=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_coherence_params_name_nonfinite_field(value):
    times = dict(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0)
    for name in times:
        with pytest.raises(DynamicsError, match=f"CoherenceParams {name} must be finite"):
            CoherenceParams(**{**times, name: value})


@pytest.mark.parametrize("make, name", [
    (lambda v: LaserInit(v), "duration"),
    (lambda v: MwPulse(v, 1.0, 0.0, 0.1), "freq"),
    (lambda v: MwPulse(2870.0, v, 0.0, 0.1), "rabi_freq"),
    (lambda v: MwPulse(2870.0, 1.0, v, 0.1), "phase"),
    (lambda v: MwPulse(2870.0, 1.0, 0.0, v), "duration"),
    (lambda v: Wait(v), "duration"),
    (lambda v: Readout(v), "window"),
])
def test_sequence_elements_reject_bad_fields_by_name(make, name):
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DynamicsError, match=f" {name} must be finite"):
            make(value)
    if name in ("duration", "window"):
        with pytest.raises(DynamicsError, match=f" {name} must be nonnegative"):
            make(-1.0)
        make(0.0)
    else:
        make(-1.0)  # negative frequencies and phases are allowed


def test_decay_curve_rejects_infinite_time():
    times = np.r_[np.arange(7.0), np.inf]
    with pytest.raises(DynamicsError, match="times must be finite"):
        DecayCurve(times, np.ones(8), np.full(8, 0.1))


# ---------------------------------------------------------------------------
# propagation

def test_resonant_rabi_matches_cosine_squared():
    system, env, f_low = isolated_two_level()
    times = np.linspace(0.0, 3.0, 181)
    curve = simulate_rabi(system, env, None, f_low, 1.0, times,
                          readout_contrast=1.0)
    assert np.max(np.abs(curve.signal - np.cos(np.pi * times) ** 2)) < 1e-6


def test_zero_duration_pulse_is_identity():
    system, env, f_low = isolated_two_level()
    seq = PulseSequence((LaserInit(1.0), MwPulse(f_low, 5.0, 0.0, 0.0),
                         Readout(0.5)))
    assert propagate_sequence(system, env, seq).population == pytest.approx(1.0)


def test_pi_pulse_inverts_population():
    system, env, f_low = isolated_two_level()
    rabi = 2.0
    seq = PulseSequence((LaserInit(1.0),
                         MwPulse(f_low, rabi, 0.0, 1.0 / (2.0 * rabi)),
                         Readout(0.5)))
    result = propagate_sequence(system, env, seq)
    assert 1.0 - result.population >= 0.999


def test_readout_contrast_mapping():
    system, env, f_low = isolated_two_level()
    rabi = 2.0
    seq = PulseSequence((LaserInit(1.0),
                         MwPulse(f_low, rabi, 0.0, 1.0 / (2.0 * rabi)),
                         Readout(0.5)))
    result = propagate_sequence(system, env, seq, readout_contrast=0.2)
    assert result.signal == pytest.approx(1.0 - 0.2 * (1.0 - result.population))


def beat_modulation_depth(rabi_freq, n_periods=12, pts=64):
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    lines = transition_lines(system, env, merge_tol=0.05)
    center = [f for f, _ in lines if f < 2870.0][1]
    period = 1.0 / rabi_freq
    times = np.linspace(0.0, n_periods * period, n_periods * pts, endpoint=False)
    curve = simulate_rabi(system, env, None, center, rabi_freq, times,
                          readout_contrast=1.0)
    tops = np.array([curve.signal[k * pts:(k + 1) * pts].max()
                     for k in range(n_periods)])
    return tops.max() - tops.min()


def test_strong_drive_beats_weak_drive_does_not():
    assert beat_modulation_depth(5.7) > 0.20
    assert beat_modulation_depth(0.9) < 0.05


def test_unitarity_through_random_sequence():
    rng = np.random.default_rng(3)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    f_drive = transition_lines(system, env)[0][0]
    elements = [LaserInit(1.0)]
    for _ in range(60):
        if rng.random() < 0.5:
            elements.append(MwPulse(f_drive, rng.uniform(0.1, 20.0),
                                    rng.uniform(0, 2 * np.pi),
                                    rng.uniform(0, 2.0)))
        else:
            elements.append(Wait(rng.uniform(0, 2.0)))
    elements.append(Readout(0.5))
    result, rho = propagate_sequence(system, env, PulseSequence(tuple(elements)),
                                     return_state=True)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    purity0 = 1.0 / 3.0  # ms=0 projector over three nuclear projections
    assert np.trace(rho @ rho).real == pytest.approx(purity0, abs=1e-9)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
    assert 0.0 <= result.population <= 1.0 + 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["drive_freq", "rabi_freq", "readout_contrast"])
def test_simulate_rabi_rejects_nonfinite_input_before_eigensolve(monkeypatch, name, value):
    def no_eigensolve(h):
        raise AssertionError("eigensolve ran before the input check")

    monkeypatch.setattr(dynamics, "eigenlevels", no_eigensolve)
    system, env, f_low = isolated_two_level()
    kwargs = dict(drive_freq=f_low, rabi_freq=2.0, readout_contrast=0.2)
    kwargs[name] = value
    with pytest.raises(DynamicsError, match=f"{name} must be finite"):
        simulate_rabi(system, env, None, durations=np.linspace(0.0, 1.0, 8), **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_propagate_sequence_rejects_nonfinite_contrast_before_eigensolve(monkeypatch, value):
    def no_eigensolve(h):
        raise AssertionError("eigensolve ran before the input check")

    monkeypatch.setattr(dynamics, "eigenlevels", no_eigensolve)
    system, env, f_low = isolated_two_level()
    seq = PulseSequence((LaserInit(1.0), MwPulse(f_low, 2.0, 0.0, 0.25), Readout(0.5)))
    with pytest.raises(DynamicsError, match="readout_contrast must be finite"):
        propagate_sequence(system, env, seq, readout_contrast=value)


def test_rabi_dephasing_envelope():
    system, env, f_low = isolated_two_level()
    times = np.linspace(0.0, 12.0, 481)
    curve = simulate_rabi(system, env, COH, f_low, 1.0, times,
                          readout_contrast=1.0)
    late = curve.signal[times > 10.0 * COH.t_rho_rabi / 4.0]
    assert np.all(np.abs(late - late.mean()) < 0.2)


def test_rabi_sweep_matches_single_pulse_sequences():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    f_drive = transition_lines(system, env)[0][0]
    times = np.array([0.0, 0.13, 0.5, 0.9, 1.7, 2.2, 3.1, 4.0])
    curve = simulate_rabi(system, env, None, f_drive, 3.0, times, readout_contrast=1.0)
    for t, signal in zip(times, curve.signal):
        seq = PulseSequence((LaserInit(1.0), MwPulse(f_drive, 3.0, 0.0, t), Readout(0.5)))
        assert signal == pytest.approx(propagate_sequence(system, env, seq).population,
                                       abs=1e-12)


def ramsey(f_drive, tau, rabi=5.0):
    half_pi = MwPulse(f_drive, rabi, 0.0, 1.0 / (4.0 * rabi))
    return PulseSequence((LaserInit(1.0), half_pi, Wait(tau), half_pi, Readout(0.5)))


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.76, 4.0])
def test_ramsey_population_decays_with_t2_star(tau):
    system, env, f_low = isolated_two_level()
    coh = CoherenceParams(t1=1e7, t2=1e6, t2_star=1.76, t_rho_rabi=1e9)
    population = propagate_sequence(system, env, ramsey(f_low, tau), coh).population
    assert population == pytest.approx(0.5 * (1.0 - np.exp(-tau / 1.76)), abs=1e-5)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.76, 4.0, 25.0])
def test_wait_relaxes_population_with_t1(tau):
    system, env, _ = isolated_two_level()
    coh = CoherenceParams(t1=0.01, t2=10.0, t2_star=1.76, t_rho_rabi=4.0)
    seq = PulseSequence((LaserInit(1.0), Wait(tau), Readout(0.5)))
    population = propagate_sequence(system, env, seq, coh).population
    assert population == pytest.approx(1.0 / 3.0 + 2.0 / 3.0 * np.exp(-tau / 10.0),
                                       abs=1e-12)


def count_eigensolves(monkeypatch):
    calls = []

    def counting_eigenlevels(h):
        calls.append(h)
        return eigenlevels(h)

    monkeypatch.setattr(dynamics, "eigenlevels", counting_eigenlevels)
    return calls


def test_decoherent_sequence_diagonalizes_each_distinct_hamiltonian_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    system, env, f_low = isolated_two_level()
    propagate_sequence(system, env, ramsey(f_low, 1.0), COH)
    assert len(calls) == 2  # the rotating frame, then the one pulse Hamiltonian


# ---------------------------------------------------------------------------
# exactness against the per-segment propagator

def spin_case(dim):
    """(system, field, lower-line drive frequency) for dimension 3, 9 or 18.

    Dimension 3 is the bare spin at zero field, where the frame is degenerate.
    """
    nuclei = {3: (), 9: (HyperfineCoupling.nitrogen14(),),
              18: (HyperfineCoupling.nitrogen14(), HyperfineCoupling.carbon13())}[dim]
    b_mt = {3: 0.0, 9: 5.2, 18: 8.3333333333}[dim]
    system = SpinSystem(nuclei=nuclei)
    drive = system.d_zfs - system.gamma_e * b_mt
    return system, FieldEnvironment(b_lab=b_mt * AXIS_111), drive


def sequence(kind, drive, tau, rabi=8.0):
    half_pi = 1.0 / (4.0 * rabi)

    def pulse(duration, phase=0.0):
        return MwPulse(drive, rabi, phase, duration)
    if kind == "ramsey":
        body = [pulse(half_pi), Wait(tau), pulse(half_pi)]
    elif kind == "hahn":
        body = [pulse(half_pi), Wait(tau), pulse(2 * half_pi), Wait(tau), pulse(half_pi)]
    else:  # xy8
        body = [pulse(half_pi), Wait(tau / 2)]
        for phase in (0, 1, 0, 1, 1, 0, 1, 0):
            body += [pulse(2 * half_pi, phase * np.pi / 2), Wait(tau)]
        body[-1] = Wait(tau / 2)
        body.append(pulse(half_pi))
    return PulseSequence((LaserInit(1.0), *body, Readout(0.5)))


def per_segment_propagate(system, env, seq, coh):
    """Reference: one eigh of every segment Hamiltonian, waits included."""
    frame = dynamics._RotatingFrame(system, env, seq.drive_freq)
    if coh is None:
        t_rabi = t_free = t1_us = np.inf
    else:
        t_rabi, t_free, t1_us = coh.t_rho_rabi, coh.t2_star, coh.t1 * 1000.0
    rho = frame.initial_state()
    for e in seq.elements[1:-1]:
        if isinstance(e, MwPulse):
            h, t_coh = frame.hamiltonian(e.rabi_freq, e.phase), t_rabi
        else:
            h, t_coh = frame.hamiltonian(0.0, 0.0), t_free
        evals, evecs = np.linalg.eigh(h)
        phases = np.exp(-2j * np.pi * evals * e.duration)
        n = len(evals)
        damp = np.full((n, n), np.exp(-e.duration / t_coh))
        np.fill_diagonal(damp, 1.0)
        rho_e = (evecs.conj().T @ rho @ evecs) * np.outer(phases, phases.conj()) * damp
        if np.isfinite(t1_us):
            relax = np.exp(-e.duration / t1_us)
            np.fill_diagonal(rho_e, 1.0 / n + (np.diag(rho_e).real - 1.0 / n) * relax)
        rho = evecs @ rho_e @ evecs.conj().T
    return frame.ms0_population(rho), rho


@pytest.mark.parametrize("coh", [None, COH], ids=["unitary", "decoherent"])
@pytest.mark.parametrize("dim", [3, 9, 18])
@pytest.mark.parametrize("kind", ["ramsey", "hahn", "xy8"])
def test_propagate_sequence_matches_per_segment_reference(kind, dim, coh):
    system, env, drive = spin_case(dim)
    seq = sequence(kind, drive, 0.73)
    result, rho = propagate_sequence(system, env, seq, coh, return_state=True)
    population, rho_ref = per_segment_propagate(system, env, seq, coh)
    assert abs(result.population - population) < 1e-12
    assert np.max(np.abs(rho - rho_ref)) < 1e-12


def test_xy8_d18_diagonalizes_frame_and_two_pulse_phases(monkeypatch):
    system, env, drive = spin_case(18)
    seq = sequence("xy8", drive, 0.6)
    calls = count_eigensolves(monkeypatch)
    propagate_sequence(system, env, seq, COH)
    assert len(calls) == 3  # the rotating frame, then one per pulse phase


# ---------------------------------------------------------------------------
# closed-form traces

def test_fid_dominant_n14_oscillation():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    times = np.arange(0.0, 8.0, 0.02)
    curve = simulate_fid(system, FieldEnvironment(), COH, 0.0, times)
    comps = extract_frequencies(curve, 3)
    assert comps[0][0] == pytest.approx(2.16, abs=0.02)


def test_fid_wginv_b_three_frequencies():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),
                                HyperfineCoupling.carbon13()))
    times = np.arange(0.0, 8.0, 0.02)
    curve = simulate_fid(system, FieldEnvironment(), COH, 0.0, times)
    found = sorted(f for f, _ in extract_frequencies(curve, 3))
    for target, got in zip([1.07, 3.23, 5.4], found):
        assert got == pytest.approx(target, abs=0.05)


def test_fid_constant_when_undamped_on_resonance():
    system = SpinSystem()  # single line, zero detuning
    coh = CoherenceParams(t1=1e7, t2=1e9, t2_star=1e9, t_rho_rabi=4.0)
    times = np.linspace(0.0, 5.0, 64)
    curve = simulate_fid(system, FieldEnvironment(), coh, 0.0, times)
    assert np.ptp(curve.signal) < 1e-6


def test_hahn_revival_spacing():
    times = np.arange(0.0, 90.0, 0.25)
    curve = simulate_hahn(SpinSystem(), FieldEnvironment(), COH, 0.05, times)
    sig = curve.signal
    maxima = [i for i in range(6, len(sig) - 6)
              if sig[i] == np.max(sig[i - 6:i + 7]) and sig[i] > sig[i - 6]]
    revival_times = times[maxima]
    spacings = np.diff(revival_times)
    assert np.allclose(spacings, 20.0, atol=0.25)


def test_hahn_without_modulation_is_stretched_exponential():
    times = np.linspace(0.0, 900.0, 200)
    curve = simulate_hahn(SpinSystem(), FieldEnvironment(), COH, 0.0, times,
                          baseline=0.0, amplitude=1.0, stretch=1.5)
    expected = np.exp(-np.power(times / 494.0, 1.5))
    assert np.allclose(curve.signal, expected, atol=1e-12)


def test_larmor_frequency_from_field():
    larmor_khz = GAMMA_C13_MHZ_PER_MT * 4.6 * 1e3
    assert larmor_khz == pytest.approx(49.26, abs=0.01)
    assert abs(larmor_khz - 50.0) / 50.0 < 0.02


def test_relaxometry_single_exponential():
    times = np.linspace(0.0, 9000.0, 301)
    curve = simulate_relaxometry(COH, times, baseline=0.0, amplitude=1.0)
    at_t1 = np.interp(4500.0, times, curve.signal)
    assert at_t1 == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert curve.signal[0] == pytest.approx(1.0)


def test_relaxometry_flat_for_long_t1():
    coh = CoherenceParams(t1=1e6, t2=1.53, t2_star=0.1, t_rho_rabi=0.81)
    times = np.linspace(0.0, 1000.0, 101)
    curve = simulate_relaxometry(coh, times, baseline=0.0, amplitude=1.0)
    assert 1.0 - curve.signal[-1] < 1e-3


def _fid(detuning=0.0, **kwargs):
    return simulate_fid(SpinSystem(), FieldEnvironment(), COH, detuning,
                        np.linspace(0.0, 4.0, 8), **kwargs)


def _hahn(larmor_freq=0.05, **kwargs):
    return simulate_hahn(SpinSystem(), FieldEnvironment(), COH, larmor_freq,
                         np.linspace(0.0, 80.0, 8), **kwargs)


def _relaxometry(**kwargs):
    return simulate_relaxometry(COH, np.linspace(0.0, 1000.0, 8), **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("simulate, name", [
    (_fid, "detuning"), (_fid, "baseline"), (_fid, "amplitude"), (_fid, "stretch"),
    (_hahn, "larmor_freq"), (_hahn, "baseline"), (_hahn, "amplitude"), (_hahn, "stretch"),
    (_hahn, "mod_depth"), (_relaxometry, "baseline"), (_relaxometry, "amplitude"),
])
def test_closed_form_traces_reject_nonfinite_scalars_by_name(monkeypatch, simulate, name, value):
    def no_lines(*args, **kwargs):
        raise AssertionError("line computation ran before the input check")

    monkeypatch.setattr(dynamics, "transition_lines", no_lines)
    with pytest.raises(DynamicsError, match=f"^{name} must be finite"):
        simulate(**{name: value})


# ---------------------------------------------------------------------------
# envelope fitting

def test_stretched_fit_recovers_t2():
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 1500.0, 300)
    clean = 0.4 + 0.5 * np.exp(-np.power(times / 494.0, 1.5))
    noisy = clean + rng.normal(0.0, 0.005, times.size)
    curve = DecayCurve(times, noisy, np.full(times.size, 0.005), kind="hahn")
    fit = fit_decay_envelope(curve, DecayModel.STRETCHED)
    assert fit.t_coh == pytest.approx(494.0, rel=0.05)
    assert fit.converged


def test_pure_exponential_exact_recovery():
    times = np.linspace(0.0, 20.0, 100)
    clean = 0.2 + 0.7 * np.exp(-times / 3.5)
    curve = DecayCurve(times, clean, np.ones(times.size), kind="t1")
    fit = fit_decay_envelope(curve, DecayModel.SINGLE_EXP)
    assert fit.t_coh == pytest.approx(3.5, rel=1e-6)
    assert fit.n_stretch == 1.0


def test_rabi_envelope_time_recovery():
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 3.0, 400)
    clean = 0.5 + 0.5 * np.exp(-np.power(times / 0.81, 1.5)) \
        * np.cos(2 * np.pi * 2.9 * times)
    noisy = clean + rng.normal(0.0, 0.005, times.size)
    curve = DecayCurve(times, noisy, np.full(times.size, 0.005), kind="rabi")
    fit = fit_decay_envelope(curve, DecayModel.STRETCHED_TIMES_OSC)
    assert fit.t_coh == pytest.approx(0.81, rel=0.05)
    assert fit.frequencies[0] == pytest.approx(2.9, abs=0.05)


def test_envelope_fit_unit_rescaling_invariance():
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 10.0, 200)
    noisy = 0.3 + 0.6 * np.exp(-np.power(times / 1.76, 1.2)) \
        + rng.normal(0.0, 0.003, times.size)
    sigma = np.full(times.size, 0.003)
    fit_us = fit_decay_envelope(DecayCurve(times, noisy, sigma), DecayModel.STRETCHED)
    fit_ns = fit_decay_envelope(DecayCurve(times * 1e3, noisy, sigma),
                                DecayModel.STRETCHED)
    assert fit_ns.t_coh / 1e3 == pytest.approx(fit_us.t_coh, rel=1e-6)
    assert fit_ns.n_stretch == pytest.approx(fit_us.n_stretch, rel=1e-6)


def test_constant_signal_rejected():
    times = np.linspace(0.0, 5.0, 32)
    curve = DecayCurve(times, np.full(times.size, 0.5), np.ones(times.size))
    with pytest.raises(ValueError):
        fit_decay_envelope(curve, DecayModel.STRETCHED)


# ---------------------------------------------------------------------------
# frequency extraction

def test_extract_single_tone():
    times = np.arange(0.0, 10.0, 0.05)
    curve = DecayCurve(times, 0.5 + 0.4 * np.cos(2 * np.pi * 2.16 * times),
                       np.ones(times.size))
    comps = extract_frequencies(curve, 3)
    assert len(comps) == 1
    assert comps[0][0] == pytest.approx(2.16, abs=0.02)


def test_extract_three_tones():
    times = np.arange(0.0, 10.0, 0.05)
    signal = sum(0.2 * np.cos(2 * np.pi * f * times) for f in (1.07, 3.23, 5.4))
    curve = DecayCurve(times, 0.5 + signal, np.ones(times.size))
    found = sorted(f for f, _ in extract_frequencies(curve, 3))
    assert np.allclose(found, [1.07, 3.23, 5.4], atol=0.05)


def test_extract_constant_returns_empty():
    times = np.linspace(0.0, 10.0, 64)
    curve = DecayCurve(times, np.full(times.size, 0.7), np.ones(times.size))
    assert extract_frequencies(curve, 3) == []


def test_extract_requires_enough_points():
    times = np.linspace(0.0, 1.0, 8)
    curve = DecayCurve(times, np.cos(times), np.ones(times.size))
    with pytest.raises(DynamicsError):
        extract_frequencies(curve, 5)


def test_extract_resamples_nonuniform_grid():
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0.0, 10.0, 400))
    times[0], times[-1] = 0.0, 10.0
    curve = DecayCurve(times, 0.5 + 0.4 * np.cos(2 * np.pi * 1.5 * times),
                       np.ones(times.size))
    comps = extract_frequencies(curve, 2)
    assert comps[0][0] == pytest.approx(1.5, abs=0.05)


# ---------------------------------------------------------------------------
# file format

def test_curve_file_roundtrip(tmp_path):
    times = np.linspace(0.0, 5.0, 40)
    curve = simulate_relaxometry(COH, times)
    path = tmp_path / "t1.txt"
    save_curve(path, curve)
    back = load_curve(path)
    assert back.kind == "t1"
    assert np.array_equal(back.times, curve.times)
    assert np.array_equal(back.signal, curve.signal)

    golden = ("# decay v1 kind=hahn\n"
              "0.0 1.0 0.02\n0.25 0.8 0.02\n0.5 0.6 0.02\n0.75 0.45 0.02\n"
              "1.0 0.3 0.02\n1.25 0.2 0.02\n1.5 0.1 0.02\n1.75 -0.05 0.02\n")
    save_curve(path, DecayCurve(0.25 * np.arange(8),
                                [1.0, 0.8, 0.6, 0.45, 0.3, 0.2, 0.1, -0.05],
                                np.full(8, 0.02), kind="hahn"))
    assert path.read_text() == golden
    assert load_curve(path).signal[-1] == -0.05


def test_curve_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# decay v2 kind=t1\n")
    with pytest.raises(DynamicsError, match=":1:"):
        load_curve(bad)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("# decay v1 kind=fid\n" +
                      "".join(f"{i * 0.1} 1.0 0.1\n" for i in range(8)) +
                      "0.9 1.0\n")
    with pytest.raises(DynamicsError, match=":10:"):
        load_curve(ragged)
