"""ODMR spectrum synthesis and multi-Lorentzian fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvkit.noise import NoiseSpec
from nvkit.odmr import (
    LineShapeModel,
    OdmrError,
    OdmrSpectrum,
    fit_spectrum,
    invert_shift_splitting,
    load_spectrum,
    lorentzian,
    save_spectrum,
    synthesize_spectrum,
)
from nvkit.spin_model import (
    FieldEnvironment,
    HyperfineCoupling,
    SpinSystem,
    nv_orientations,
    resonance_frequencies_approx,
)

AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
GRID = np.linspace(2840.0, 2900.0, 481)


def test_synthesis_dips_at_strained_resonances():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = synthesize_spectrum(SpinSystem(), env, "cw", GRID)
    minima = GRID[np.argsort(spec.signal)[:40]]
    assert np.min(np.abs(minima - 2864.3)) < 0.2
    assert np.min(np.abs(minima - 2880.7)) < 0.2


def test_pulsed_resolves_n14_triplet_at_field():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    grid = np.linspace(2734.0, 2748.0, 701)
    spec = synthesize_spectrum(system, env, "pulsed", grid)
    fit = fit_spectrum(spec, 3)
    spacings = np.diff(fit.model.centers)
    assert np.allclose(spacings, 2.16, atol=0.05)


def test_zero_contrast_means_flat_baseline():
    spec = synthesize_spectrum(SpinSystem(), FieldEnvironment(), "cw", GRID,
                               contrast=0.0, baseline=1.0)
    assert np.allclose(spec.signal, 1.0)


def test_invalid_mode_and_empty_grid():
    with pytest.raises(OdmrError):
        synthesize_spectrum(SpinSystem(), FieldEnvironment(), "am", GRID)
    with pytest.raises(OdmrError):
        synthesize_spectrum(SpinSystem(), FieldEnvironment(), "cw", np.array([]))
    inf_grid = np.r_[2860.0 + np.arange(7.0), np.inf]
    with pytest.raises(OdmrError, match="grid must be finite"):
        OdmrSpectrum(inf_grid, np.ones(8), np.ones(8))


def test_ensemble_equals_orientation_average():
    # linearity: the four-orientation spectrum is the mean of the singles
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 3.0]), shift_xi=1.0,
                           splitting_delta=0.5)
    ens = synthesize_spectrum(SpinSystem(), env, "cw", GRID, ensemble=True)
    singles = []
    for orient in nv_orientations():
        system = SpinSystem(orientation=orient)
        singles.append(synthesize_spectrum(system, env, "cw", GRID).signal)
    assert np.allclose(ens.signal, np.mean(singles, axis=0), atol=1e-12)


def test_lorentzian_dip_area_linear_in_contrast():
    freqs = np.linspace(-200.0, 200.0, 20001)
    areas = []
    for contrast in (0.05, 0.10, 0.20):
        dip = contrast * lorentzian(freqs, 0.0, 2.0)
        areas.append(np.trapezoid(dip, freqs))
    assert areas[1] / areas[0] == pytest.approx(2.0, rel=1e-6)
    assert areas[2] / areas[0] == pytest.approx(4.0, rel=1e-6)


def test_fit_single_dip_init_at_truth():
    model = LineShapeModel([2870.0], [0.1], [5.0], baseline=1.0)
    spec = OdmrSpectrum(GRID, model.evaluate(GRID), np.ones_like(GRID))
    fit = fit_spectrum(spec, 1, init=model)
    assert fit.converged and fit.iterations <= 5
    assert fit.model.centers[0] == pytest.approx(2870.0, abs=1e-9)
    assert fit.residual_norm < 1e-9


def test_fit_two_dip_roundtrip_with_noise():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    for seed in range(6):
        spec = synthesize_spectrum(
            SpinSystem(), env, "cw", GRID, ensemble=True,
            noise=NoiseSpec("gaussian", sigma=0.001, seed=seed))
        fit = fit_spectrum(spec, 2)
        assert np.abs(fit.model.centers[0] - 2864.3) < 0.05
        assert np.abs(fit.model.centers[1] - 2880.7) < 0.05


def test_fit_reports_both_splitting_conventions():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = synthesize_spectrum(SpinSystem(), env, "cw", GRID)
    fit = fit_spectrum(spec, 2)
    assert fit.delta_half_separation == pytest.approx(2.0 * fit.delta_fit)
    assert fit.xi_fit == pytest.approx(2.5, abs=0.02)
    assert fit.delta_fit == pytest.approx(4.1, abs=0.02)


def test_fit_damping_contract():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = synthesize_spectrum(SpinSystem(), env, "cw", GRID,
                               noise=NoiseSpec("gaussian", sigma=0.005, seed=2))
    fit = fit_spectrum(spec, 2)
    assert fit.converged


def test_constant_spectrum_rejected():
    spec = OdmrSpectrum(GRID, np.ones_like(GRID), np.ones_like(GRID))
    with pytest.raises(OdmrError):
        fit_spectrum(spec, 1)


def test_wginv_b_hyperfine_ladder_fit():
    # one Zeeman branch of a N14 + strongly coupled 13C spin shows six dips
    # whose spacings combine the 2.16 and 6.43 MHz couplings
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),
                                HyperfineCoupling.carbon13()))
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    grid = np.linspace(2733.0, 2749.0, 1101)
    spec = synthesize_spectrum(system, env, "pulsed", grid, contrast=0.12)
    fit = fit_spectrum(spec, 6)
    centers = np.sort(fit.model.centers)
    gaps = np.diff(centers)
    assert np.sum(np.abs(gaps - 2.16) < 0.1) >= 4
    assert centers[-1] - centers[0] == pytest.approx(6.43 + 2 * 2.16, abs=0.1)


# ---------------------------------------------------------------------------
# shift/splitting inversion

def test_invert_shift_splitting_values():
    assert invert_shift_splitting(2864.3, 2880.7, 2870.0) == \
        pytest.approx((2.5, 4.1))
    assert invert_shift_splitting(2870.0, 2870.0, 2870.0) == (0.0, 0.0)
    with pytest.raises(OdmrError):
        invert_shift_splitting(2880.7, 2864.3, 2870.0)


@settings(max_examples=200, deadline=None)
@given(d=st.floats(2000.0, 4000.0), xi=st.floats(-50.0, 50.0),
       delta=st.floats(0.0, 50.0))
def test_invert_is_inverse_of_approx(d, xi, delta):
    v_minus, v_plus = resonance_frequencies_approx(d, xi, delta)
    xi_back, delta_back = invert_shift_splitting(v_minus, v_plus, d)
    assert abs(xi_back - xi) < 1e-9
    assert abs(delta_back - delta) < 1e-9


# ---------------------------------------------------------------------------
# file format

def test_spectrum_file_roundtrip(tmp_path):
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = synthesize_spectrum(SpinSystem(), env, "pulsed", GRID,
                               noise=NoiseSpec("gaussian", sigma=0.01, seed=0))
    path = tmp_path / "spec.txt"
    save_spectrum(path, spec)
    back = load_spectrum(path)
    assert back.mode == "pulsed"
    assert np.array_equal(back.freqs, spec.freqs)
    assert np.array_equal(back.signal, spec.signal)
    assert np.array_equal(back.sigma, spec.sigma)

    golden = ("# odmr v1 mode=cw\n"
              "2870.0 1.0 0.01\n2870.5 0.9 0.01\n2871.0 0.75 0.01\n2871.5 0.5 0.01\n"
              "2872.0 0.5 1e-05\n2872.5 0.75 0.01\n2873.0 0.9 0.01\n2873.5 1.0 0.01\n")
    save_spectrum(path, OdmrSpectrum(2870.0 + 0.5 * np.arange(8),
                                     [1.0, 0.9, 0.75, 0.5, 0.5, 0.75, 0.9, 1.0],
                                     [0.01] * 4 + [1e-5] + [0.01] * 3, "cw"))
    assert path.read_text() == golden
    assert load_spectrum(path).sigma[4] == 1e-5


def test_spectrum_file_errors(tmp_path):
    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("# wrong header\n1 2 3\n")
    with pytest.raises(OdmrError, match=":1:"):
        load_spectrum(bad_header)
    bad_row = tmp_path / "row.txt"
    bad_row.write_text("# odmr v1 mode=cw\n" +
                       "".join(f"{2800 + i} 1.0 0.1\n" for i in range(8)) +
                       "2900 18\n")
    with pytest.raises(OdmrError, match=":10:"):
        load_spectrum(bad_row)
