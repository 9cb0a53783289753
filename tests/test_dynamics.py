"""Pulse-sequence propagation and decay-curve analysis."""

import gc
import sys
import threading
import weakref
from functools import lru_cache

import numpy as np
import pytest

from nvkit import dynamics, spin_model
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
from nvkit.fitting import FitError, sigma_weights
from nvkit.noise import NoiseSpec, apply_noise
from nvkit.spin_model import (
    FieldEnvironment,
    HyperfineCoupling,
    SpinSystem,
    _operators,
    build_hamiltonian,
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


@pytest.mark.parametrize("elements, message", [
    ((LaserInit(1.0), 3.0, Readout(0.5)), "sequence element 1 must be LaserInit, MwPulse, "
                                          "Wait or Readout, got float"),
    ((LaserInit(1.0), Wait(1.0), "x", Readout(0.5)), "sequence element 2 .* got str"),
])
def test_sequence_rejects_elements_that_are_not_sequence_elements(elements, message):
    with pytest.raises(DynamicsError, match=message):
        PulseSequence(elements)


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


def test_decay_curve_rejects_negative_sigma():
    sigma = np.full(8, 0.1)
    sigma[3] = -0.1
    with pytest.raises(DynamicsError, match="sigma must be finite and nonnegative"):
        DecayCurve(np.arange(8.0), np.ones(8), sigma)
    with pytest.raises(DynamicsError, match="sigma"):
        DecayCurve(np.arange(8.0), np.ones(8), -np.ones(8))
    sigma[3] = 0.0  # zero sigma is accepted; fit_decay_envelope gives it weight 1
    assert DecayCurve(np.arange(8.0), np.ones(8), sigma).sigma[3] == 0.0


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

    system, env, f_low = isolated_two_level()
    for module in (spin_model, dynamics):  # the frame's eigensolve runs in spin_model
        monkeypatch.setattr(module, "eigenlevels", no_eigensolve)
    kwargs = dict(drive_freq=f_low, rabi_freq=2.0, readout_contrast=0.2)
    kwargs[name] = value
    with pytest.raises(DynamicsError, match=f"{name} must be finite"):
        simulate_rabi(system, env, None, durations=np.linspace(0.0, 1.0, 8), **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_propagate_sequence_rejects_nonfinite_contrast_before_eigensolve(monkeypatch, value):
    def no_eigensolve(h):
        raise AssertionError("eigensolve ran before the input check")

    system, env, f_low = isolated_two_level()
    for module in (spin_model, dynamics):  # the frame's eigensolve runs in spin_model
        monkeypatch.setattr(module, "eigenlevels", no_eigensolve)
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


def test_rabi_noise_draws_what_apply_noise_draws_on_the_clean_trace():
    system, env, f_low = isolated_two_level()
    times = np.linspace(0.0, 3.0, 61)
    spec = NoiseSpec("gaussian", sigma=0.01, seed=4)
    clean = simulate_rabi(system, env, COH, f_low, 1.0, times)
    noisy = simulate_rabi(system, env, COH, f_low, 1.0, times, noise=spec)
    signal, sigma = apply_noise(clean.signal, spec)
    np.testing.assert_array_equal(noisy.signal, signal)
    np.testing.assert_array_equal(noisy.sigma, sigma)
    np.testing.assert_array_equal(clean.sigma, np.ones(times.size))


@pytest.mark.parametrize("coh", [None, COH], ids=["unitary", "decoherent"])
def test_rabi_sweep_matches_single_pulse_sequences(coh):
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    f_drive = transition_lines(system, env)[0][0]
    times = np.array([0.0, 0.13, 0.5, 0.9, 1.7, 2.2, 3.1, 4.0])
    curve = simulate_rabi(system, env, coh, f_drive, 3.0, times, readout_contrast=1.0)
    for t, signal in zip(times, curve.signal):
        seq = PulseSequence((LaserInit(1.0), MwPulse(f_drive, 3.0, 0.0, t), Readout(0.5)))
        assert signal == pytest.approx(propagate_sequence(system, env, seq, coh).population,
                                       abs=1e-12)


def test_rabi_sample_does_not_depend_on_the_grid():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    f_drive = transition_lines(system, env)[0][0]
    samples = [simulate_rabi(system, env, COH, f_drive, 5.7, grid).signal[index]
               for grid, index in ((np.linspace(0.0, 2.0, 201), 200),
                                   (np.linspace(0.0, 10.0, 1001), 200),
                                   (np.linspace(0.0, 2.0, 9), 8))]
    assert np.ptp(samples) < 1e-15


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
    """The list of eigensolves made from now on, from a cold frame cache."""
    dynamics._FRAMES.cache_clear()
    calls = []

    def counting_eigenlevels(h):
        calls.append(h)
        return eigenlevels(h)

    # the frame's eigensolve runs in spin_model.eigenbasis, the pulses' in dynamics
    for module in (spin_model, dynamics):
        monkeypatch.setattr(module, "eigenlevels", counting_eigenlevels)
    return calls


def test_decoherent_sequence_diagonalizes_each_distinct_hamiltonian_once(monkeypatch):
    system, env, f_low = isolated_two_level()
    calls = count_eigensolves(monkeypatch)
    propagate_sequence(system, env, ramsey(f_low, 1.0), COH)
    assert len(calls) == 2  # the rotating frame, then the one pulse Hamiltonian
    propagate_sequence(system, env, ramsey(f_low, 2.0), COH)
    assert len(calls) == 2  # both come from the cache


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


def reference_frame(system, env, drive):
    """The rotating frame built here, as the propagator defines it: the
    ms=0 projector in the static eigenbasis and the Hamiltonian of a pulse.

    Eigenstates are sorted into ms sectors by their Sz^2 expectation; a pulse
    adds the cross-sector part of (rabi_freq / sqrt 2)(cos(phase) Sx +
    sin(phase) Sy), and rabi_freq 0 gives free evolution.
    """
    evals, evecs = np.linalg.eigh(build_hamiltonian(system, env).entries)
    sz2, sx, sy, p0 = (evecs.conj().T @ op @ evecs for op in _operators(system).observables)
    sectors = np.clip(np.round(np.diag(sz2).real), 0.0, 1.0)
    cross = np.abs(sectors[:, None] - sectors[None, :]) > 0.5

    def hamiltonian(rabi_freq, phase):
        h = np.diag(evals - drive * sectors).astype(complex)
        if rabi_freq:
            amp = rabi_freq / np.sqrt(2.0)
            h = h + np.where(cross, amp * (np.cos(phase) * sx + np.sin(phase) * sy), 0.0)
        return h
    return p0, hamiltonian


def per_segment_propagate(system, env, seq, coh):
    """Reference: one eigh of every segment Hamiltonian, waits included."""
    p0, hamiltonian = reference_frame(system, env, seq.drive_freq)
    if coh is None:
        t_rabi = t_free = t1_us = np.inf
    else:
        t_rabi, t_free, t1_us = coh.t_rho_rabi, coh.t2_star, coh.t1 * 1000.0
    rho = p0 / np.trace(p0).real
    for e in seq.elements[1:-1]:
        if isinstance(e, MwPulse):
            h, t_coh = hamiltonian(e.rabi_freq, e.phase), t_rabi
        else:
            h, t_coh = hamiltonian(0.0, 0.0), t_free
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
    return np.trace(rho @ p0).real, rho


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
    propagate_sequence(system, env, seq, COH)
    assert len(calls) == 3


@pytest.mark.parametrize("coh", [None, COH], ids=["unitary", "decoherent"])
def test_xy8_builds_each_distinct_segment_once_and_matches_reference(monkeypatch, coh):
    # 19 segments: half-pi pulses and tau/2 waits twice each, pi pulses at
    # phases 0 and pi/2 four times each, tau waits seven times
    system, env, drive = spin_case(18)
    seq = sequence("xy8", drive, 0.41)
    segment_factors, builds = dynamics._segment_factors, []

    def counting_factors(*args):
        builds.append(args)
        return segment_factors(*args)

    monkeypatch.setattr(dynamics, "_segment_factors", counting_factors)
    result, rho = propagate_sequence(system, env, seq, coh, return_state=True)
    assert len(seq.elements) - 2 == 19
    assert len(builds) == 5  # three pulses (two phases of pi), two waits
    population, rho_ref = per_segment_propagate(system, env, seq, coh)
    assert abs(result.population - population) < 1e-12
    assert np.max(np.abs(rho - rho_ref)) < 1e-12


@pytest.mark.parametrize("coh", [None, COH], ids=["unitary", "decoherent"])
@pytest.mark.parametrize("dim", [3, 9, 18])
def test_rabi_sweep_matches_per_segment_reference(dim, coh):
    system, env, drive = spin_case(dim)
    times = np.array([0.0, 0.013, 0.05, 0.11, 0.29, 0.6, 1.37, 2.2])
    curve = simulate_rabi(system, env, coh, drive, 8.0, times, readout_contrast=1.0)
    for t, signal in zip(times, curve.signal):
        seq = PulseSequence((LaserInit(1.0), MwPulse(drive, 8.0, 0.0, t), Readout(0.5)))
        assert abs(signal - per_segment_propagate(system, env, seq, coh)[0]) < 1e-12


def test_rabi_sweep_diagonalizes_frame_then_drive(monkeypatch):
    system, env, drive = spin_case(18)
    calls = count_eigensolves(monkeypatch)
    simulate_rabi(system, env, COH, drive, 8.0, np.linspace(0.0, 1.0, 101))
    assert len(calls) == 2  # the rotating frame, then the drive Hamiltonian
    simulate_rabi(system, env, COH, drive, 8.0, np.linspace(0.0, 1.0, 101))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the frame cache

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_case(kind, dim, coh):
    """The bits a sequence (or a Rabi sweep) of ``kind`` hands back at dimension ``dim``."""
    system, env, drive = spin_case(dim)
    if kind == "rabi":
        return (simulate_rabi(system, env, coh, drive, 8.0, np.linspace(0.0, 1.3, 57)).signal,)
    result, rho = propagate_sequence(system, env, sequence(kind, drive, 0.73), coh,
                                     return_state=True)
    return result.population, result.signal, rho


@pytest.mark.parametrize("coh", [None, COH], ids=["unitary", "decoherent"])
@pytest.mark.parametrize("dim", [3, 9, 18])
def test_warm_cache_results_equal_cold_cache_results_bit_for_bit(dim, coh):
    kinds, cold = ("ramsey", "hahn", "xy8", "rabi"), {}
    for kind in kinds:
        dynamics._FRAMES.cache_clear()
        cold[kind] = run_case(kind, dim, coh)
    # one frame and its pulses serve every kind, filled by the other kinds' calls too
    for kind in kinds[::-1] + kinds:
        assert all(same_bits(a, b) for a, b in zip(cold[kind], run_case(kind, dim, coh))), kind


def test_ramsey_sweep_from_a_cold_cache_makes_two_eigensolves(monkeypatch):
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    f_drive = transition_lines(system, env)[0][0]
    calls = count_eigensolves(monkeypatch)
    trace = [propagate_sequence(system, env, ramsey(f_drive, tau, rabi=8.0), COH).population
             for tau in np.linspace(0.0, 4.0, 201)]
    assert len(calls) == 2  # the frame and the one pulse, shared by all 201 points
    assert np.ptp(trace) > 0.1


def test_frame_cache_drops_its_least_recently_used_frame(monkeypatch):
    system, bound = SpinSystem(), dynamics._FRAMES.cache_info().maxsize
    fields = [FieldEnvironment(b_lab=(0.0, 0.0, 0.01 * k)) for k in range(bound + 1)]
    seq = PulseSequence((LaserInit(1.0), Wait(0.3), Readout(0.5)))  # frame only
    calls = count_eigensolves(monkeypatch)
    for env in fields:
        propagate_sequence(system, env, seq)
    assert len(calls) == bound + 1
    assert dynamics._FRAMES.cache_info().currsize == bound
    propagate_sequence(system, fields[-1], seq)
    assert len(calls) == bound + 1  # the newest frame is kept
    propagate_sequence(system, fields[0], seq)
    assert len(calls) == bound + 2  # the oldest is gone, and built again
    assert dynamics._FRAMES.cache_info().currsize == bound


def test_pulse_memo_stays_bounded_under_a_rabi_frequency_sweep(monkeypatch):
    system, env, drive = spin_case(9)
    times, size = np.linspace(0.0, 1.0, 21), dynamics._PULSES_PER_FRAME
    calls = count_eigensolves(monkeypatch)
    for rabi in 1.0 + np.arange(size + 4):
        simulate_rabi(system, env, None, drive, rabi, times)
    assert len(calls) == 1 + size + 4
    pulses = dynamics._frame(system, env, drive).eigensystem.cache_info
    assert pulses().currsize == size
    simulate_rabi(system, env, None, drive, float(size + 4), times)
    assert len(calls) == 1 + size + 4  # the newest pulse is kept
    simulate_rabi(system, env, None, drive, 1.0, times)
    assert len(calls) == 1 + size + 5  # the oldest is gone
    assert pulses().currsize == size


@pytest.mark.parametrize("near", [
    lambda env, drive: (FieldEnvironment(b_lab=np.nextafter(env.b_lab, np.inf)), drive),
    lambda env, drive: (FieldEnvironment(b_lab=env.b_lab, splitting_delta=-0.0), drive),
    lambda env, drive: (env, np.nextafter(drive, np.inf)),
], ids=["field_one_ulp_away", "negative_zero_splitting", "drive_one_ulp_away"])
def test_a_frame_that_differs_in_its_bits_is_built_on_its_own(monkeypatch, near):
    system, env, drive = spin_case(9)
    other_env, other_drive = near(env, drive)
    calls = count_eigensolves(monkeypatch)
    propagate_sequence(system, env, sequence("ramsey", drive, 0.5), COH)
    propagate_sequence(system, other_env, sequence("ramsey", other_drive, 0.5), COH)
    assert len(calls) == 4  # a frame and a pulse each
    assert dynamics._FRAMES.cache_info().currsize == 2


def test_cached_arrays_are_read_only_and_the_returned_state_is_fresh():
    system, env, drive = spin_case(9)
    dynamics._FRAMES.cache_clear()
    for seq in (sequence("hahn", drive, 0.4), PulseSequence((LaserInit(1.0), Readout(0.5)))):
        first, rho = propagate_sequence(system, env, seq, COH, return_state=True)
        assert rho.flags.writeable
        rho[:] = 0.0
        second, rho_again = propagate_sequence(system, env, seq, COH, return_state=True)
        assert second == first
        assert np.trace(rho_again).real == pytest.approx(1.0, abs=1e-12)
    frame = dynamics._frame(system, env, drive)
    evals, evecs = frame.eigensystem(8.0, 0.0)
    for a in (frame.frame_energies, frame.drive_x, frame.drive_y, frame.p0, frame.rho0,
              evals, evecs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def run_threads(work, count=8):
    """Run ``work(index)`` on ``count`` threads with a short switch interval; return
    what they raised."""
    errors = []

    def guarded(index):
        try:
            work(index)
        except Exception as exc:  # reported by the calling thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_threads_sharing_the_cache_get_the_serial_results(monkeypatch):
    # a bound well below the field count, so that threads evict each other's frames
    builder, built = dynamics._FRAMES.__wrapped__, []

    def build(key):  # every frame built, kept here to count its pulses at the end
        built.append(frame := builder(key))
        return frame

    monkeypatch.setattr(dynamics, "_FRAMES", lru_cache(5)(build))
    monkeypatch.setattr(dynamics, "_PULSES_PER_FRAME", 2)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    jobs = []
    for k in range(12):
        env = FieldEnvironment(b_lab=(0.1 * k, 0.0, 3.0 + 0.25 * k))
        drive = system.d_zfs - system.gamma_e * (3.0 + 0.25 * k)
        jobs += [(env, sequence("xy8", drive, 0.3, rabi=rabi)) for rabi in (6.0, 8.0, 10.0)]

    def run(job):
        result, rho = propagate_sequence(system, *job, COH, return_state=True)
        return result.population, rho

    serial = [run(job) for job in jobs]
    results = [None] * 8

    def work(index):
        order = np.random.default_rng(index).permutation(len(jobs))
        got = {int(k): run(jobs[k]) for k in order}
        results[index] = [got[k] for k in range(len(jobs))]

    assert run_threads(work) == []
    for got in results:
        assert all(p == q and same_bits(r, s) for (p, r), (q, s) in zip(got, serial))
    assert dynamics._FRAMES.cache_info().currsize == 5
    assert all(frame.eigensystem.cache_info().currsize <= 2 for frame in built)


def test_an_evicted_frame_is_freed_without_the_cycle_collector(monkeypatch):
    monkeypatch.setattr(dynamics, "_FRAMES", lru_cache(2)(dynamics._FRAMES.__wrapped__))
    system, env, drive = spin_case(9)
    seq = PulseSequence((LaserInit(1.0), Wait(0.3), Readout(0.5)))  # frame only
    enabled = gc.isenabled()
    gc.disable()
    try:
        propagate_sequence(system, env, sequence("xy8", drive, 0.4), COH)  # two pulses
        frame = weakref.ref(dynamics._frame(system, env, drive))
        assert frame() is not None and frame().eigensystem.cache_info().currsize == 2
        propagate_sequence(system, FieldEnvironment(b_lab=(0.0, 0.0, 1.0)), seq)
        assert frame() is not None  # still within the bound
        propagate_sequence(system, FieldEnvironment(b_lab=(0.0, 0.0, 2.0)), seq)
        assert frame() is None
    finally:
        if enabled:
            gc.enable()


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
    assert np.array_equal(curve.signal, expected)


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


def test_relaxometry_equals_the_plain_exponential_bit_for_bit():
    times = np.linspace(0.0, 9000.0, 301)
    for baseline, amplitude in ((0.5, 0.5), (0.1, -0.3), (-2.0, 7.25)):
        curve = simulate_relaxometry(COH, times, baseline=baseline, amplitude=amplitude)
        assert np.array_equal(curve.signal,
                              baseline + amplitude * np.exp(-times / (COH.t1 * 1000)))


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
    assert fit.report.converged


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


@pytest.mark.parametrize("model", ["stretched", "stretched_osc", "unknown", None, 0],
                         ids=["stretched", "stretched_osc", "unknown", "None", "int"])
def test_a_model_that_is_not_a_decay_model_is_refused_before_any_fit(monkeypatch, model):
    # a DecayModel value is not a member: the string "stretched" is refused too
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the model check")

    monkeypatch.setattr(dynamics, "levenberg_marquardt", no_fit)
    monkeypatch.setattr(dynamics, "_pencil", no_fit)
    times = np.linspace(0.0, 5.0, 32)
    curve = DecayCurve(times, 0.5 + 0.4 * np.exp(-times / 1.5), np.full(times.size, 0.01))
    with pytest.raises(DynamicsError, match=f"unknown decay model {model!r}"):
        fit_decay_envelope(curve, model)


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


@pytest.mark.parametrize("max_components", [0, -1])
def test_extract_rejects_fewer_than_one_component(max_components):
    times = np.linspace(0.0, 10.0, 400)
    signal = 0.5 + 0.3 * np.cos(2 * np.pi * 1.0 * times) + 0.2 * np.cos(2 * np.pi * 2.5 * times)
    curve = DecayCurve(times, signal, np.ones(times.size))
    assert len(extract_frequencies(curve, 2)) == 2
    with pytest.raises(DynamicsError, match="max_components must be at least 1"):
        extract_frequencies(curve, max_components)


@pytest.mark.parametrize("max_components", [np.nan, np.inf, 2.5])
def test_extract_rejects_a_fractional_or_nonfinite_component_count(max_components):
    times = np.linspace(0.0, 10.0, 400)
    curve = DecayCurve(times, 0.5 + 0.3 * np.cos(2 * np.pi * times), np.ones(times.size))
    with pytest.raises(DynamicsError, match="max_components must be at least 1 and whole"):
        extract_frequencies(curve, max_components)


def test_extract_takes_a_whole_float_component_count():
    times = np.linspace(0.0, 10.0, 400)
    signal = 0.5 + np.exp(-(times / 4.0) ** 1.5) * (0.3 * np.cos(2 * np.pi * 1.0 * times)
                                                    + 0.2 * np.cos(2 * np.pi * 2.5 * times))
    curve = DecayCurve(times, signal, np.full(times.size, 0.01))
    assert len(extract_frequencies(curve, 2)) == 2
    assert extract_frequencies(curve, 2.0) == extract_frequencies(curve, 2)


def test_fit_ending_on_a_bound_of_t_coh_or_n_stretch_raises():
    # exp(-(t/2)^4): the stretch exponent lies above the fit's (0.5, 3) range
    t = np.linspace(0.05, 6.0, 300)
    signal = np.exp(-(t / 2) ** 4) + np.random.default_rng(0).normal(0.0, 0.005, t.size)
    curve = DecayCurve(t, signal, np.full(t.size, 0.005), kind="hahn")
    with pytest.raises(FitError, match="ended on a bound: n_stretch=3"):
        fit_decay_envelope(curve, DecayModel.STRETCHED)


def test_beat_fit_without_an_oscillation_raises():
    t = np.linspace(0.0, 5.0, 200)
    curve = DecayCurve(t, 0.5 + 0.5 * np.exp(-t / 1.5), np.full(t.size, 0.01))
    assert extract_frequencies(curve, 3) == []
    with pytest.raises(FitError, match="no oscillation"):
        fit_decay_envelope(curve, DecayModel.STRETCHED_TIMES_OSC)


def test_extract_resamples_nonuniform_grid():
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0.0, 10.0, 400))
    times[0], times[-1] = 0.0, 10.0
    curve = DecayCurve(times, 0.5 + 0.4 * np.cos(2 * np.pi * 1.5 * times),
                       np.ones(times.size))
    comps = extract_frequencies(curve, 2)
    assert comps[0][0] == pytest.approx(1.5, abs=0.05)


def _ci_fid(seed=4, stretch=1.0):
    """CI's 14N FID, `seq-sim --kind fid --nuclei n14 --b 0,0,4.6 --points 401 --tmax 8
    --noise-sigma 0.002 --seed 4`: beats at 0.20, 1.96, 2.16 and 2.36 MHz under T2* 1.76 us."""
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=np.array([0.0, 0.0, 4.6]))
    return simulate_fid(system, env, COH, 0.0, np.linspace(0.0, 8.0, 401), stretch=stretch,
                        noise=NoiseSpec("gaussian", sigma=0.002, seed=seed))


def test_extract_finds_every_beat_of_cis_fid_once():
    # the DFT seed lost the 0.20 MHz beat below its DC cut and returned 2.2335 MHz twice
    curve = _ci_fid()
    found = sorted(f for f, _ in extract_frequencies(curve, 8))
    assert np.diff(found).min() > 1.0 / (curve.times[-1] - curve.times[0])
    # fid_detunings gives each beat as a +- pair, 3 kHz apart at most
    beats = np.array([0.20, 1.96, 2.16, 2.36])
    detunings = np.abs(np.array(dynamics.fid_detunings(
        SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),)),
        FieldEnvironment(b_lab=np.array([0.0, 0.0, 4.6])), 0.0))[:, 0])
    assert np.abs(detunings[:, None] - beats).min(axis=1).max() < 0.005
    assert len(found) == 4 and np.allclose(found, beats, atol=0.02)


def test_beat_fit_recovers_t2_star_and_stretch_on_every_seed_of_cis_fid():
    # the parent's DFT seed recovered none of these 20 seeds
    for seed in range(20):
        fit = fit_decay_envelope(_ci_fid(seed), DecayModel.STRETCHED_TIMES_OSC)
        assert fit.t_coh == pytest.approx(1.76, rel=0.05), seed
        assert fit.n_stretch == pytest.approx(1.0, rel=0.05), seed
        assert fit.report.converged, seed


@pytest.mark.parametrize("seed", range(5))
def test_extract_on_a_nonuniform_grid_recovers_the_beats(seed):
    # the fit runs on the curve's own times, so a noiseless trace gives back its truth;
    # over 20 such grids the largest error was 1.5e-10 MHz and 1.5e-9 in amplitude
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 8.0, 300))
    times[0], times[-1] = 0.0, 8.0
    signal = 0.5 + np.exp(-times / 3.0) * (0.3 * np.cos(2 * np.pi * 1.2 * times)
                                           + 0.15 * np.sin(2 * np.pi * 2.9 * times))
    comps = sorted(extract_frequencies(DecayCurve(times, signal, np.ones(300)), 2))
    assert np.array(comps) == pytest.approx(np.array([(1.2, 0.3), (2.9, 0.15)]), abs=1e-8)


def test_beat_residuals_equal_the_per_component_loops_bit_for_bit(monkeypatch):
    solved = []  # (residuals, fitted params) of each solve of the beat fit
    solve = dynamics.levenberg_marquardt

    def spy(residuals, x0, **kwargs):
        fit = solve(residuals, x0, **kwargs)
        solved.append((residuals, fit.params))
        return fit
    monkeypatch.setattr(dynamics, "levenberg_marquardt", spy)
    times = np.linspace(0.0, 10.0, 400)
    signal = 0.5 + np.exp(-(times / 4.0) ** 1.5) * (0.3 * np.cos(2 * np.pi * 1.0 * times)
                                                    + 0.2 * np.sin(2 * np.pi * 2.5 * times))
    curve = DecayCurve(times, signal, np.full(times.size, 0.01))
    fit = fit_decay_envelope(curve, DecayModel.STRETCHED_TIMES_OSC)
    assert np.array_equal(solved[-1][1], fit.report.params)

    for residuals, p in solved:
        osc = np.zeros_like(times)
        for fk, ck, sk in p[3:].reshape(-1, 3):
            osc = osc + (ck * np.cos(2 * np.pi * fk * times) + sk * np.sin(2 * np.pi * fk * times))
        env = np.exp(-np.power(np.clip(times / p[1], 0.0, 50.0), p[2]))
        assert np.array_equal(residuals(p), (p[0] + env * osc - signal) * sigma_weights(curve.sigma))


def test_off_axis_fid_holds_no_weightless_far_beat():
    # 14N at `--b 0,0,4.6`: the ms=-1 <-> +1 pairs near -2650 MHz carried 3e-8 weight
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=np.array([0.0, 0.0, 4.6]))
    beats = dynamics.fid_detunings(system, env, 0.0)
    assert max(abs(delta) for delta, _ in beats) < 100.0
    assert min(weight for _, weight in beats) > 1e-3


def test_fid_beats_equal_the_per_component_loop_bit_for_bit():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(), HyperfineCoupling.carbon13()))
    env = FieldEnvironment(b_lab=np.array([0.5, 0.2, 3.0]))
    times = np.linspace(0.0, 6.0, 301)
    beat = np.zeros_like(times)
    for delta, weight in dynamics.fid_detunings(system, env, 0.4):
        beat = beat + weight * np.cos(2.0 * np.pi * delta * times)
    clean = 0.5 + 0.5 * np.exp(-np.power(times / COH.t2_star, 1.0)) * beat
    assert np.array_equal(simulate_fid(system, env, COH, 0.4, times).signal, clean)


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
