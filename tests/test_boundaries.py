"""Boundary checks: every public input rejects nan, +-inf and out-of-range values by name.

Each case names one field of a public dataclass, or one scalar or array
argument of a public entry point, with a valid value and the values it must
reject. Hypothesis draws a bad value (and, for an array, the element it
replaces); the call must raise its module's own error naming the field. The
same call with the valid value must succeed and return only finite numbers.
A whole argument that is no real number (complex, None, a string, a bool or
a ragged list) must raise that error too.
"""

import dataclasses
import inspect
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvkit
from nvkit import dynamics
from nvkit.confocal import (
    ConfocalError, DensityEstimate, DensityMethod, GaussianSliceFit, PLMap, PsfModel,
    enhancement_ratio, estimate_density, fit_gaussian_slice, gaussian_profile,
)
from nvkit.dynamics import (
    CoherenceParams, DecayCurve, DynamicsError, EnvelopeFit, LaserInit, MwPulse, PulseSequence,
    Readout, Wait, extract_frequencies, propagate_sequence, simulate_fid, simulate_hahn,
    simulate_rabi, simulate_relaxometry,
)
from nvkit.fitting import FitError, levenberg_marquardt
from nvkit.magnetometry import MagnetometryError, SensorParams, sensitivity_si
from nvkit.noise import NoiseError, NoiseSpec, apply_noise
from nvkit.odmr import (
    LineShapeModel, OdmrError, OdmrSpectrum, fit_spectrum, invert_shift_splitting,
    synthesize_spectrum,
)
from nvkit.photon_stats import (
    G2Curve, PhotonStatsError, SaturationFit, fit_g2, fit_saturation, g2_model,
    saturation_model, synthesize_g2,
)
from nvkit.spin_model import (
    FieldEnvironment, HamiltonianMatrix, HyperfineCoupling, NvOrientation, SpinModelError,
    SpinSystem, eigenlevels, project_field, resonance_frequencies_approx, spin_operators,
    transition_lines,
)

NONFINITE = st.sampled_from([np.nan, np.inf, -np.inf])
NEGATIVE = NONFINITE | st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False)
NONPOSITIVE = NONFINITE | st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
FRACTIONAL = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x % 1 != 0)

SYSTEM = SpinSystem()
ENV = FieldEnvironment()
COH = CoherenceParams(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0)
TIMES = np.linspace(0.0, 5.0, 16)
GRID = np.linspace(2850.0, 2890.0, 41)
TAUS = np.linspace(-50.0, 50.0, 32)
G2_PARAMS = np.array([0.0, 0.8, 10.0, 0.3, 100.0, 0.2, 300.0])
POWERS = np.array([0.5, 1.0, 2.0, 4.0])
COUNTS = 1e3 * POWERS / (POWERS + 1.0)
X_AXIS, Y_AXIS = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0, 5)
PSF = PsfModel(0.45, 0.45, 2.0)
# two dips at 2854 and 2886 MHz on the 41-point grid, which admits at most 13
SPECTRUM = synthesize_spectrum(SYSTEM, FieldEnvironment(b_lab=np.array([0.0, 0.0, 1.0])),
                               "cw", GRID)
G2 = synthesize_g2(TAUS, G2_PARAMS)
# a Gaussian row along x, (amplitude, center, fwhm, baseline) = SLICE_PARAMS, at each y
SLICE_X = np.linspace(0.0, 1.1, 12)
SLICE_PARAMS = np.array([1.0, 0.5, 0.4, 0.1])
SLICE_MAP = PLMap((SLICE_X, Y_AXIS),
                  np.repeat(gaussian_profile(SLICE_X, *SLICE_PARAMS)[:, None], Y_AXIS.size, 1),
                  0.3)
OSC_TIMES = np.linspace(0.0, 5.0, 64)
BEATING = DecayCurve(OSC_TIMES, 0.5 + 0.4 * np.exp(-(OSC_TIMES / 2.0) ** 1.5)
                     * np.cos(2 * np.pi * 1.5 * OSC_TIMES), np.full(64, 0.01))
SENSOR = dict(count_rate=30e3, contrast=0.2, readout_window=0.5, t2_star=1.76, t2=494.0)
SENSOR_SI = dict(count_rate_hz=30e3, contrast=0.2, readout_s=0.5e-6, t2_star_s=1.76e-6,
                 t2_s=494e-6)
SEQUENCE = PulseSequence((LaserInit(), MwPulse(2870.0, 5.0, 0.0, 0.05), Readout()))


class Case(NamedTuple):
    target: Callable       # the dataclass or function under test
    arg: str               # the field or argument driven, named in the error
    error: type
    valid: Any             # a scalar, or an array whose elements are replaced
    bad: st.SearchStrategy
    call: Callable         # builds or calls ``target`` with the value for ``arg``
    label: str = None      # how the error names ``arg``, when not by ``arg`` itself
    spread: bool = False   # ``call`` spreads the value over several fields or values


def fields_of(cls, error, valid, bad, make=None, labels=None):
    """One case per field of ``cls``; ``valid`` holds every field's valid value."""
    make = make or (lambda **kw: cls(**kw))
    return [Case(cls, name, error, value, bad.get(name, NONFINITE),
                 lambda v, name=name: make(**{**valid, name: v}), (labels or {}).get(name))
            for name, value in valid.items()]


def arguments_of(fn, error, valid, bad, *args, **fixed):
    """One case per keyword of ``fn`` in ``valid``; ``args`` and ``fixed`` go to every call."""
    return [Case(fn, name, error, value, bad.get(name, NONFINITE),
                 lambda v, name=name: fn(*args, **fixed, **{**valid, name: v}))
            for name, value in valid.items()]


CASES = [
    # fitting
    Case(levenberg_marquardt, "x0", FitError, np.array([0.5, 2.0]), NONFINITE,
         lambda x: levenberg_marquardt(lambda p: p - 1.0, x)),
    # noise
    *fields_of(NoiseSpec, NoiseError, dict(sigma=0.01, seed=3),
               dict(sigma=NEGATIVE,
                    seed=st.floats() | st.integers(max_value=-1) | st.booleans())),
    *fields_of(NoiseSpec, NoiseError, dict(counts=100.0), dict(counts=NEGATIVE),
               lambda **kw: NoiseSpec("poisson", **kw)),
    Case(apply_noise, "signal", NoiseError, np.linspace(0.0, 1.0, 8), NONFINITE,
         lambda s: apply_noise(s, NoiseSpec(sigma=0.01, seed=1))),
    # spin_model
    *fields_of(HyperfineCoupling, SpinModelError, dict(a_parallel=-2.16, a_perp=-2.7), {},
               lambda **kw: HyperfineCoupling.nitrogen14(**kw)),
    *fields_of(NvOrientation, SpinModelError, dict(axis=np.ones(3)), {}),
    *fields_of(FieldEnvironment, SpinModelError,
               dict(b_lab=np.array([0.1, 0.2, 0.3]), shift_xi=1.0, splitting_delta=0.5), {}),
    *fields_of(SpinSystem, SpinModelError, dict(d_zfs=2870.0, gamma_e=28.0),
               dict(d_zfs=NONPOSITIVE)),
    *fields_of(HamiltonianMatrix, SpinModelError,
               dict(entries=np.diag([1.0, 2.0, 3.0]).astype(complex)), {},
               lambda entries: HamiltonianMatrix(entries, 3)),
    Case(eigenlevels, "entries", SpinModelError, np.diag([1.0, 2.0, 3.0]).astype(complex),
         NONFINITE, eigenlevels),
    Case(project_field, "b_lab", SpinModelError, np.array([0.1, 0.2, 0.3]), NONFINITE,
         project_field),
    *arguments_of(resonance_frequencies_approx, SpinModelError,
                  dict(d=2870.0, xi=1.0, delta=0.5), {}),
    Case(spin_operators, "dimension", SpinModelError, 2,
         NONFINITE | st.integers().filter(lambda n: n not in (2, 3)), spin_operators),
    *arguments_of(transition_lines, SpinModelError, dict(merge_tol=1e-3), {}, SYSTEM, ENV),
    # odmr
    *fields_of(OdmrSpectrum, OdmrError,
               dict(freqs=GRID, signal=np.ones(GRID.size), sigma=np.full(GRID.size, 0.01)),
               dict(sigma=NEGATIVE), labels=dict(freqs="frequency grid")),
    *fields_of(LineShapeModel, OdmrError,
               dict(centers=np.array([2865.0, 2875.0]), contrasts=np.array([0.1, 0.1]),
                    fwhms=np.array([5.0, 5.0]), baseline=1.0),
               dict(contrasts=NEGATIVE | st.floats(min_value=1.0, allow_infinity=False),
                    fwhms=NONPOSITIVE)),
    Case(LineShapeModel.evaluate, "freqs", OdmrError, GRID, NONFINITE,
         LineShapeModel([2865.0, 2875.0], [0.1, 0.1], [5.0, 5.0]).evaluate),
    *arguments_of(synthesize_spectrum, OdmrError,
                  dict(grid=GRID, contrast=0.1, baseline=1.0, fwhm=8.0,
                       branch_weights=np.array([1.0, 1.0])),
                  dict(contrast=NEGATIVE, fwhm=NONPOSITIVE, branch_weights=NEGATIVE),
                  SYSTEM, ENV, "cw"),
    Case(fit_spectrum, "n_dips", OdmrError, 2,
         NONFINITE | FRACTIONAL | st.integers(max_value=0) | st.integers(min_value=14),
         lambda n: fit_spectrum(SPECTRUM, n)),
    Case(fit_spectrum, "init", OdmrError, np.array([2854.0, 2886.0]), NONFINITE,
         lambda c: fit_spectrum(SPECTRUM, 2, init=LineShapeModel(c, [0.1, 0.1], [8.0, 8.0])),
         "centers"),
    *arguments_of(invert_shift_splitting, OdmrError,
                  dict(v_minus=2860.0, v_plus=2880.0, d=2870.0), {}),
    # dynamics
    *fields_of(LaserInit, DynamicsError, dict(duration=1.0), dict(duration=NEGATIVE)),
    *fields_of(MwPulse, DynamicsError, dict(freq=2870.0, rabi_freq=5.0, phase=0.0,
                                            duration=0.1), dict(duration=NEGATIVE)),
    *fields_of(Wait, DynamicsError, dict(duration=1.0), dict(duration=NEGATIVE)),
    *fields_of(Readout, DynamicsError, dict(window=0.5), dict(window=NEGATIVE)),
    *fields_of(PulseSequence, DynamicsError, dict(window=0.5), dict(window=NONPOSITIVE),
               lambda window: PulseSequence((LaserInit(), Readout(window)))),
    *fields_of(CoherenceParams, DynamicsError,
               dict(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0),
               dict(t1=NONPOSITIVE, t2=NONPOSITIVE, t2_star=NONPOSITIVE,
                    t_rho_rabi=NONPOSITIVE)),
    *fields_of(DecayCurve, DynamicsError,
               dict(times=TIMES, signal=np.ones(TIMES.size), sigma=np.full(TIMES.size, 0.1)),
               dict(sigma=NEGATIVE)),
    *fields_of(EnvelopeFit, DynamicsError, dict(t_coh=2.0, n_stretch=1.5),
               dict(t_coh=NONPOSITIVE,
                    n_stretch=NONFINITE | st.floats(max_value=0.3) | st.floats(min_value=4.0)),
               lambda **kw: EnvelopeFit(amplitude=0.5, baseline=0.5, **kw)),
    *arguments_of(simulate_fid, DynamicsError,
                  dict(detuning=0.5, times=TIMES, baseline=0.5, amplitude=0.5, stretch=1.0),
                  dict(times=NEGATIVE, stretch=NONPOSITIVE), SYSTEM, ENV, COH),
    *arguments_of(simulate_hahn, DynamicsError,
                  dict(larmor_freq=0.05, times=TIMES, baseline=0.5, amplitude=0.5,
                       stretch=1.5, mod_depth=0.8),
                  dict(larmor_freq=NEGATIVE, times=NEGATIVE, stretch=NONPOSITIVE),
                  SYSTEM, ENV, COH),
    *arguments_of(simulate_relaxometry, DynamicsError,
                  dict(times=TIMES, baseline=0.5, amplitude=0.5), dict(times=NEGATIVE), COH),
    *arguments_of(propagate_sequence, DynamicsError, dict(readout_contrast=0.2), {},
                  SYSTEM, ENV, SEQUENCE),
    *arguments_of(simulate_rabi, DynamicsError,
                  dict(drive_freq=2870.0, rabi_freq=5.0, durations=TIMES, readout_contrast=0.2),
                  dict(durations=NEGATIVE), SYSTEM, ENV, None),
    Case(extract_frequencies, "max_components", DynamicsError, 3,
         NONFINITE | FRACTIONAL | st.integers(max_value=0),
         lambda k: extract_frequencies(BEATING, k)),
    # photon_stats
    *fields_of(G2Curve, PhotonStatsError,
               dict(taus=TAUS, g2=np.ones(TAUS.size), sigma=np.full(TAUS.size, 0.02)),
               dict(sigma=NEGATIVE)),
    *fields_of(SaturationFit, PhotonStatsError, dict(c_sat=1e5, p_sat=1.1),
               dict(c_sat=NONPOSITIVE, p_sat=NONPOSITIVE)),
    *arguments_of(synthesize_g2, PhotonStatsError, dict(taus=TAUS, params=G2_PARAMS), {}),
    Case(synthesize_g2, "params", PhotonStatsError, G2_PARAMS[2::2], NONPOSITIVE,
         lambda t: synthesize_g2(TAUS, np.insert(G2_PARAMS[[0, 1, 3, 5]], [2, 3, 4], t)),
         spread=True),
    *arguments_of(g2_model, PhotonStatsError, dict(tau=TAUS, params=G2_PARAMS), {}),
    Case(fit_g2, "init", PhotonStatsError, G2_PARAMS, NONFINITE,
         lambda p: fit_g2(G2, init=p)),
    Case(saturation_model, "powers", PhotonStatsError, POWERS, NEGATIVE,
         lambda p: saturation_model(p, SaturationFit(c_sat=1e3, p_sat=1.0))),
    *arguments_of(fit_saturation, PhotonStatsError, dict(powers=POWERS, counts=COUNTS),
                  dict(powers=NONPOSITIVE)),
    # confocal
    Case(PLMap, "axes", ConfocalError, X_AXIS, NONFINITE,
         lambda x: PLMap((x, Y_AXIS), np.ones((4, 5)), 0.3), "axis x"),
    *fields_of(PLMap, ConfocalError, dict(counts=np.ones((4, 5)), power=0.3),
               dict(counts=NEGATIVE, power=NONPOSITIVE),
               lambda **kw: PLMap(axes=(X_AXIS, Y_AXIS), **kw)),
    *fields_of(GaussianSliceFit, ConfocalError,
               dict(amplitude=1.0, center=0.5, fwhm=0.4, baseline=0.1),
               dict(amplitude=NEGATIVE, fwhm=NONPOSITIVE)),
    Case(fit_gaussian_slice, "init", ConfocalError, SLICE_PARAMS, NONFINITE,
         lambda p: fit_gaussian_slice(SLICE_MAP, 0, [1], init=GaussianSliceFit(*p)),
         "amplitude|center|fwhm|baseline", spread=True),
    Case(fit_gaussian_slice, "axis", ConfocalError, 0,
         NONFINITE | FRACTIONAL | st.integers(max_value=-1) | st.integers(min_value=2),
         lambda a: fit_gaussian_slice(SLICE_MAP, a, [1])),
    Case(fit_gaussian_slice, "index", ConfocalError, np.array([1.0]),
         NONFINITE | FRACTIONAL | st.integers(max_value=-1) | st.integers(min_value=5),
         lambda i: fit_gaussian_slice(SLICE_MAP, 0, i)),
    *fields_of(PsfModel, ConfocalError, dict(w_x=0.45, w_y=0.45, w_z=2.0),
               dict(w_x=NONPOSITIVE, w_y=NONPOSITIVE, w_z=NONPOSITIVE)),
    *fields_of(DensityEstimate, ConfocalError, dict(number_density=1.0, ppb=5.7),
               dict(number_density=NEGATIVE, ppb=NEGATIVE),
               lambda **kw: DensityEstimate(method=DensityMethod.GAUSSIAN, **kw)),
    *arguments_of(estimate_density, ConfocalError, dict(c_ensemble=9.28e6, c_single=7.7e3),
                  dict(c_ensemble=NEGATIVE, c_single=NONPOSITIVE), psf=PSF),
    *arguments_of(enhancement_ratio, ConfocalError, dict(region_a=900.0, region_b=1.0),
                  dict(region_a=NEGATIVE, region_b=NONPOSITIVE)),
    # magnetometry
    *fields_of(SensorParams, MagnetometryError, SENSOR,
               {**{name: NONPOSITIVE for name in SENSOR},
                "contrast": NONPOSITIVE | st.floats(min_value=1.0, allow_infinity=False)}),
    *arguments_of(sensitivity_si, MagnetometryError, SENSOR_SI,
                  {name: NONPOSITIVE for name in SENSOR_SI}),
]
IDS = [f"{case.target.__name__}-{case.arg}" for case in CASES]

# result records that hold computed values and carry no invariant to check
RECORDS = {"FitResult", "G2FitResult", "OdmrFitResult", "SensitivityReport", "SpinOperators"}
# exported functions that take no numeric argument: records, a path, or nothing
NO_NUMBERS = {"build_hamiltonian", "fit_decay_envelope", "gaussian_uniform_ratio", "load_curve",
              "load_g2", "load_map", "load_saturation", "load_spectrum", "nv_orientations",
              "save_curve", "save_g2", "save_map", "save_spectrum", "sensitivity"}


def test_every_public_dataclass_is_driven():
    """Every public dataclass and every exported function with a numeric argument has a case."""
    driven = {case.target.__name__ for case in CASES}
    public = {name for name in nvkit.__all__ if dataclasses.is_dataclass(getattr(nvkit, name))}
    assert public - RECORDS <= driven
    assert RECORDS <= public
    functions = {name for name in nvkit.__all__ if inspect.isfunction(getattr(nvkit, name))}
    assert functions - NO_NUMBERS <= driven
    assert NO_NUMBERS <= functions


@pytest.mark.parametrize("case", CASES, ids=IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_input_raises_typed_error_naming_it(case, data):
    value = data.draw(case.bad, label="bad value")
    if isinstance(case.valid, np.ndarray):
        arg = case.valid.copy()
        arg.flat[data.draw(st.integers(0, arg.size - 1), label="index")] = value
    else:
        arg = value
    with pytest.raises(case.error, match=case.label or case.arg):
        case.call(arg)


NON_REAL = ("complex", "None", "str", "bool", "ragged")
# non-real values that mean something: None asks for a default, and a Hamiltonian is complex
MEANINGFUL = {("fit_g2", "init", "None"), ("synthesize_spectrum", "fwhm", "None"),
              ("HamiltonianMatrix", "entries", "complex"), ("eigenlevels", "entries", "complex")}
WHOLE = [(case, kind) for case in CASES if not case.spread for kind in NON_REAL
         if (case.target.__name__, case.arg, kind) not in MEANINGFUL]


def _non_real(valid, kind):
    """A whole argument of ``kind`` in place of ``valid``; complex is ``valid + 1j``."""
    if kind == "ragged":
        return [valid.tolist() if isinstance(valid, np.ndarray) else valid, [[1.0]]]
    return {"complex": lambda: valid + 1j, "None": lambda: None, "str": lambda: "a string",
            "bool": lambda: True}[kind]()


@pytest.mark.parametrize("case, kind", WHOLE,
                         ids=[f"{case.target.__name__}-{case.arg}-{kind}" for case, kind in WHOLE])
def test_non_real_argument_raises_typed_error_naming_it(case, kind):
    with pytest.raises(case.error, match=case.label or case.arg):
        case.call(_non_real(case.valid, kind))


# a scalar field or argument given as a sequence of two values, or of one
SCALARS = [(case, size) for case in CASES if not case.spread
           and not isinstance(case.valid, np.ndarray) for size in (2, 1)]


@pytest.mark.parametrize("case, size", SCALARS,
                         ids=[f"{case.target.__name__}-{case.arg}-{size}" for case, size in SCALARS])
def test_sequence_in_place_of_a_scalar_raises_typed_error_naming_it(case, size):
    with pytest.raises(case.error, match=case.label or case.arg):
        case.call([case.valid] * size)


# the solver's start and box in a shape other than one value and one (lo, hi) pair per parameter
MISSHAPEN = [("x0", dict(x0=0.5)), ("x0", dict(x0=[[0.5, 2.0]])), ("x0", dict(x0=[])),
             ("bounds", dict(bounds=[(0.0, 1.0)])), ("bounds", dict(bounds=[(0.0, 1.0)] * 3)),
             ("bounds", dict(bounds=[0.0, 1.0, 0.0, 1.0])),
             ("bounds", dict(bounds=[(0.0, 1.0, 2.0)] * 2))]


@pytest.mark.parametrize("arg, kwargs", MISSHAPEN,
                         ids=[f"{arg}-{k}" for k, (arg, _) in enumerate(MISSHAPEN)])
def test_misshapen_solver_argument_raises_fit_error_naming_it(arg, kwargs):
    with pytest.raises(FitError, match=arg):
        levenberg_marquardt(lambda p: p - 1.0, **{"x0": np.array([0.5, 2.0]), **kwargs})


# a Rabi duration grid of the wrong shape, order or length, refused before its frame is built
MISSHAPEN_DURATIONS = [(np.full((2, 2), 0.5), r"durations must be 1-D, got shape \(2, 2\)"),
                       (TIMES[::-1], "durations must be strictly increasing"),
                       (TIMES[:7], "durations must hold at least 8 points")]


@pytest.mark.parametrize("durations, message", MISSHAPEN_DURATIONS,
                         ids=["2-D", "decreasing", "seven-points"])
def test_misshapen_durations_are_refused_before_the_frame_is_built(durations, message):
    dynamics._FRAMES.cache_clear()
    with pytest.raises(DynamicsError, match=message):
        simulate_rabi(SYSTEM, ENV, None, 2870.0, 5.0, durations)
    assert dynamics._FRAMES.cache_info().misses == 0


def _assert_finite(result):
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        for item in result:
            _assert_finite(item)
    elif isinstance(result, (float, int, np.ndarray, np.number)):
        assert np.isfinite(result).all()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_valid_input_gives_finite_output(case):
    _assert_finite(case.call(case.valid))
