"""ODMR spectrum synthesis and multi-Lorentzian fitting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvkit import fitting, odmr, spin_model
from nvkit.fitting import numeric_jacobian
from nvkit.noise import NoiseSpec
from nvkit.odmr import (
    LineShapeModel,
    OdmrError,
    OdmrSpectrum,
    fit_spectrum,
    invert_shift_splitting,
    load_spectrum,
    save_spectrum,
    synthesize_spectrum,
)
from nvkit.spin_model import (
    FieldEnvironment,
    HyperfineCoupling,
    SpinSystem,
    merge_lines,
    nv_orientations,
    project_field,
    resonance_frequencies_approx,
    unmerged_lines,
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["centers", "contrasts", "fwhms", "baseline"])
def test_line_shape_model_rejects_nonfinite_field(name, value):
    fields = dict(centers=[2865.0, 2875.0], contrasts=[0.1, 0.1], fwhms=[5.0, 5.0],
                  baseline=1.0)
    fields[name] = value if name == "baseline" else [fields[name][0], value]
    with pytest.raises(OdmrError, match=f"{name} must be finite"):
        LineShapeModel(**fields)


@pytest.mark.parametrize("name, value, message", [
    ("fwhm", np.nan, "fwhm must be finite and positive"),
    ("fwhm", np.inf, "fwhm must be finite and positive"),
    ("fwhm", 0.0, "fwhm must be finite and positive"),
    ("fwhm", -1.0, "fwhm must be finite and positive"),
    ("contrast", np.nan, "contrast must be finite"),
    ("contrast", np.inf, "contrast must be finite"),
    ("contrast", -0.1, "contrast must be nonnegative"),
    ("baseline", np.nan, "baseline must be finite"),
    ("branch_weights", (-1.0, 1.0), "branch_weights must be nonnegative"),
    ("branch_weights", (1.0, -0.5), "branch_weights must be nonnegative"),
    ("branch_weights", (np.nan, 1.0), "branch_weights must be finite"),
    ("branch_weights", (1.0, np.inf), "branch_weights must be finite"),
    ("branch_weights", (1.0,), "branch_weights must hold 2 values"),
    ("branch_weights", (1.0, 1.0, 1.0), "branch_weights must hold 2 values"),
    ("branch_weights", np.ones((2, 2)), "branch_weights must hold 2 values"),
    ("branch_weights", 1.0, "branch_weights must hold 2 values"),
])
def test_synthesis_rejects_bad_line_parameters(name, value, message):
    with pytest.raises(OdmrError, match=message):
        synthesize_spectrum(SpinSystem(), FieldEnvironment(), "cw", GRID, **{name: value})
    if name == "branch_weights":  # also where no dip would read them
        with pytest.raises(OdmrError, match=message):
            synthesize_spectrum(SpinSystem(), FieldEnvironment(), "cw", GRID, contrast=0.0,
                                branch_weights=value)


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


def test_synthesis_from_given_orientation_lines_is_identical():
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 3.0]), shift_xi=1.0,
                           splitting_delta=0.5)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    for ensemble in (False, True):
        unmerged = odmr.orientation_lines(system, env, ensemble)
        assert len(unmerged) == (4 if ensemble else 1)
        plain = synthesize_spectrum(system, env, "pulsed", GRID, ensemble=ensemble)
        given_lines = synthesize_spectrum(system, env, "pulsed", GRID, ensemble=ensemble,
                                          unmerged=unmerged)
        assert np.array_equal(plain.signal, given_lines.signal)


@pytest.mark.parametrize("b_lab, solves", [
    (np.zeros(3), 1),
    (1.5 * AXIS_111, None),  # the other three agree up to rounding: one solve per exact pair
    (np.array([1.0, 2.0, 3.0]), 4),
])
def test_orientations_with_one_field_projection_share_one_eigensolve(monkeypatch, b_lab, solves):
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=b_lab, shift_xi=1.0, splitting_delta=0.5)
    calls = []
    original = odmr.unmerged_lines

    def counted(variant, env):
        calls.append(variant)
        return original(variant, env)
    monkeypatch.setattr(odmr, "unmerged_lines", counted)
    unmerged = odmr.orientation_lines(system, env, ensemble=True)
    assert len(calls) == (solves or len(set(project_field(b_lab))))
    for orient, (freqs, strengths) in zip(nv_orientations(), unmerged):
        own_freqs, own_strengths = original(SpinSystem(nuclei=system.nuclei,
                                                       orientation=orient), env)
        assert freqs.tobytes() == own_freqs.tobytes()
        assert strengths.tobytes() == own_strengths.tobytes()


@pytest.mark.parametrize("b_lab", [np.zeros(3), np.array([1.0, 2.0, 3.0])],
                         ids=["zero", "generic"])
def test_four_orientation_synthesis_builds_one_hamiltonian_per_distinct_projection(
        monkeypatch, b_lab):
    calls = []
    build = spin_model.build_hamiltonian

    def counted(system, env):
        calls.append(system)
        return build(system, env)
    monkeypatch.setattr(spin_model, "build_hamiltonian", counted)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=b_lab, shift_xi=1.0, splitting_delta=0.5)
    synthesize_spectrum(system, env, "pulsed", GRID, ensemble=True)
    assert len(calls) == (4 if b_lab.any() else 1)


def _count_calls(monkeypatch, *names):
    """Wrap each named ``odmr`` function; the returned dict counts its calls."""
    counts = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper
    for name in names:
        monkeypatch.setattr(odmr, name, counted(name, getattr(odmr, name)))
    return counts


@pytest.mark.parametrize("system", [SpinSystem(), SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))],
                         ids=["bare", "N14"])
def test_zero_field_ensemble_merges_and_evaluates_each_line_once(monkeypatch, system):
    counts = _count_calls(monkeypatch, "unmerged_lines", "merge_lines")
    dips = []  # the dip count of each call of the dip model
    model = odmr._dip_model

    def counted(params, *args):
        dips.append((params.size - 1) // 3)
        return model(params, *args)
    monkeypatch.setattr(odmr, "_dip_model", counted)
    env = FieldEnvironment(shift_xi=1.0, splitting_delta=3.0)
    synthesize_spectrum(system, env, "cw", GRID, ensemble=True)
    distinct = len(merge_lines(*unmerged_lines(system, env)))
    assert counts == {"unmerged_lines": 1, "merge_lines": 1}
    assert dips == [distinct]
    assert distinct == 2 or system.nuclei


def _lorentzian(f, center, fwhm):
    """Unit-peak Lorentzian, written out per line, independent of the dip model."""
    half = 0.5 * fwhm
    return half ** 2 / ((f - center) ** 2 + half ** 2)


def _synthesis_reference(unmerged, grid, width, branch_weights, contrast=0.1, baseline=1.0,
                         grouped=False):
    """The signal summed one line at a time. By default each orientation's lines count
    on their own, as before lines were grouped; with grouped=True orientations whose
    arrays are equal byte for byte are merged once, as the synthesis merges them."""
    groups = {}  # exact bytes (or position) -> [freqs, strengths, orientations]
    for k, (freqs, strengths) in enumerate(unmerged):
        key = (freqs.tobytes(), strengths.tobytes()) if grouped else k
        groups.setdefault(key, [freqs, strengths, 0])[2] += 1
    lines = []
    for freqs, strengths, count in groups.values():
        share = count / len(unmerged)
        for freq, weight in merge_lines(freqs, strengths):
            lines.append((freq, weight * share))
    signal = np.full_like(grid, baseline)
    mean_freq = sum(f * w for f, w in lines) / sum(w for f, w in lines)
    lo_w, hi_w = branch_weights
    for freq, weight in lines:
        branch = lo_w if freq < mean_freq else hi_w
        signal = signal - contrast * branch * weight * _lorentzian(grid, freq, width)
    return signal


@pytest.mark.parametrize("b_lab", [np.zeros(3), 1.5 * AXIS_111, np.array([1.0, 2.0, 3.0])],
                         ids=["zero", "axial", "generic"])
@pytest.mark.parametrize("branch_weights", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("nuclei, mode", [((), "cw"), ((HyperfineCoupling.nitrogen14(),), "pulsed")],
                         ids=["bare-cw", "N14-pulsed"])
def test_grouped_synthesis_matches_the_per_orientation_sum(b_lab, branch_weights, nuclei, mode):
    system = SpinSystem(nuclei=nuclei)
    env = FieldEnvironment(b_lab=b_lab, shift_xi=1.0, splitting_delta=0.5)
    width = odmr.CW_FWHM_MHZ if mode == "cw" else odmr.PULSED_FWHM_MHZ
    unmerged = odmr.orientation_lines(system, env, ensemble=True)
    copies = [tuple(a.copy() for a in unmerged[0]) for _ in range(4)]  # equal bytes, other objects
    for lines in (unmerged, copies):
        spec = synthesize_spectrum(system, env, mode, GRID, ensemble=True,
                                   branch_weights=branch_weights, unmerged=lines)
        reference = _synthesis_reference(lines, GRID, width, branch_weights)
        # rounding only: one unit in the last place of 1.0 per dip the reference subtracts
        summed = sum(len(merge_lines(*pair)) for pair in lines)
        assert np.max(np.abs(spec.signal - reference)) <= summed * np.spacing(1.0)
        assert summed > 8 or np.max(np.abs(spec.signal - reference)) <= 2e-15


@pytest.mark.parametrize("b_lab", [np.zeros(3), 1.5 * AXIS_111, np.array([1.0, 2.0, 3.0])],
                         ids=["zero", "axial", "generic"])
@pytest.mark.parametrize("nuclei", [(), (HyperfineCoupling.nitrogen14(),)], ids=["bare", "N14"])
@pytest.mark.parametrize("mode", ["cw", "pulsed"])
def test_synthesis_at_the_default_widths_equals_the_per_line_sum_bit_for_bit(b_lab, nuclei,
                                                                             mode):
    # both default half widths, 4.0 and 0.35, square alike as h**2 and h*h
    system = SpinSystem(nuclei=nuclei)
    env = FieldEnvironment(b_lab=b_lab, shift_xi=1.0, splitting_delta=0.5)
    width = odmr.CW_FWHM_MHZ if mode == "cw" else odmr.PULSED_FWHM_MHZ
    for ensemble in (False, True):
        unmerged = odmr.orientation_lines(system, env, ensemble)
        for branch_weights in ((1.0, 1.0), (0.7, 1.3)):
            spec = synthesize_spectrum(system, env, mode, GRID, ensemble=ensemble,
                                       branch_weights=branch_weights)
            reference = _synthesis_reference(unmerged, GRID, width, branch_weights,
                                             grouped=True)
            assert spec.signal.tobytes() == reference.tobytes()


def test_synthesis_rejects_lines_of_the_other_orientation_count():
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 3.0]))
    system = SpinSystem()
    for ensemble in (False, True):
        unmerged = odmr.orientation_lines(system, env, not ensemble)
        with pytest.raises(OdmrError, match="orientations"):
            synthesize_spectrum(system, env, "cw", GRID, ensemble=ensemble, unmerged=unmerged)


def test_spectrum_rejects_negative_sigma():
    sigma = np.full(GRID.size, 0.01)
    sigma[3] = -0.01
    with pytest.raises(OdmrError, match="sigma"):
        OdmrSpectrum(GRID, np.ones(GRID.size), sigma)
    OdmrSpectrum(GRID, np.ones(GRID.size), np.zeros(GRID.size))


def test_lorentzian_dip_area_linear_in_contrast():
    freqs = np.linspace(-200.0, 200.0, 20001)
    areas = []
    for contrast in (0.05, 0.10, 0.20):
        dip = 1.0 - LineShapeModel([0.0], [contrast], [2.0]).evaluate(freqs)
        areas.append(np.trapezoid(dip, freqs))
    assert areas[1] / areas[0] == pytest.approx(2.0, rel=1e-6)
    assert areas[2] / areas[0] == pytest.approx(4.0, rel=1e-6)


def test_fit_single_dip_init_at_truth():
    model = LineShapeModel([2870.0], [0.1], [5.0], baseline=1.0)
    spec = OdmrSpectrum(GRID, model.evaluate(GRID), np.ones_like(GRID))
    fit = fit_spectrum(spec, 1, init=model)
    assert fit.report.converged and fit.report.iterations <= 5
    assert fit.model.centers[0] == pytest.approx(2870.0, abs=1e-9)
    assert fit.report.residual_norm < 1e-9


def test_fit_rejects_an_init_of_another_dip_count_naming_init_and_both_counts():
    model = LineShapeModel([2860.0, 2880.0], [0.1, 0.1], [5.0, 5.0])
    spec = OdmrSpectrum(GRID, model.evaluate(GRID), np.ones_like(GRID))
    with pytest.raises(OdmrError, match="^init holds 2 dips, but n_dips is 3$"):
        fit_spectrum(spec, 3, init=model)
    with pytest.raises(OdmrError, match="^init holds 2 dips, but n_dips is 1$"):
        fit_spectrum(spec, 1, init=model)


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
    assert fit.report.converged


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


# analytic Jacobian and seeding

N14_TRIPLET = [(2867.84, 0.03, 0.7), (2870.0, 0.03, 0.7), (2872.16, 0.03, 0.7)]


DIP_CASES = [
    ([(2870.0, 0.1, 8.0)], GRID),
    ([(2864.3, 0.05, 8.0), (2880.7, 0.06, 7.5)], GRID),
    (N14_TRIPLET, np.linspace(2862.0, 2878.0, 801)),
    ([(2735.5 + 2.16 * (k % 3) + 6.43 * (k // 3), 0.02, 0.7) for k in range(6)],
     np.linspace(2733.0, 2749.0, 1101)),
]


@pytest.mark.parametrize("dips, grid", DIP_CASES)
def test_dip_jacobian_matches_numeric_jacobian(dips, grid):
    rng = np.random.default_rng(len(dips))
    params = np.concatenate([[0.98], np.ravel(dips)])
    weights = 1.0 / rng.uniform(0.002, 0.02, grid.size)
    signal = odmr.LineShapeModel(*np.transpose(dips)).evaluate(grid)
    signal = signal + rng.normal(0.0, 0.005, grid.size)
    analytic = odmr._dip_jacobian(params, grid, weights)
    # the default 1e-6 step leaves a truncation error of order (f0*1e-6/fwhm)^2,
    # which exceeds 1e-6 for 0.7 MHz dips near 2.87 GHz
    numeric = numeric_jacobian(lambda p: odmr._dip_residuals(p, grid, signal, weights),
                               params, rel_step=1e-7)
    scale = np.abs(analytic).max(axis=0)  # entries near a sign change compare to their column
    np.testing.assert_allclose(analytic / scale, numeric / scale, rtol=1e-6, atol=1e-6)


def _dip_residuals_reference(params, freqs, signal, weights):
    """The residual as written before the per-dip terms were shared."""
    model = np.full_like(freqs, params[0])
    for f0, c, w in params[1:].reshape(-1, 3):
        model = model - c * _lorentzian(freqs, f0, w)
    return (model - signal) * weights


def _dip_jacobian_reference(params, freqs, weights):
    """The Jacobian as written before the per-dip terms were shared."""
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


@pytest.mark.parametrize("dips, grid", DIP_CASES)
def test_dip_model_matches_the_per_dip_loops(dips, grid):
    rng = np.random.default_rng(len(dips) + 10)
    params = np.concatenate([[0.98], np.ravel(dips)])
    params[1:] += rng.normal(0.0, 0.01, params.size - 1)  # off the grid's symmetry
    weights = 1.0 / rng.uniform(0.002, 0.02, grid.size)
    signal = 0.98 + rng.normal(0.0, 0.005, grid.size)
    for ours, reference in (
            (odmr._dip_residuals(params, grid, signal, weights),
             _dip_residuals_reference(params, grid, signal, weights)),
            (odmr._dip_jacobian(params, grid, weights),
             _dip_jacobian_reference(params, grid, weights))):
        assert ours.shape == reference.shape and ours.flags.c_contiguous
        np.testing.assert_allclose(ours, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())


def _fit_reference(spectrum, n_dips):
    """The dip fit with the per-dip loops, no shared terms and list bounds."""
    freqs, signal = spectrum.freqs, spectrum.signal
    weights = 1.0 / np.where(spectrum.sigma > 0, spectrum.sigma, 1.0)
    span = freqs[-1] - freqs[0]
    bounds = [(-np.inf, np.inf)] + [(freqs[0] - span, freqs[-1] + span), (0.0, 0.999999),
                                    (span / (10.0 * len(freqs)), 2.0 * span)] * n_dips
    return fitting.levenberg_marquardt(
        lambda p: _dip_residuals_reference(p, freqs, signal, weights),
        odmr._pack(odmr._initial_model(spectrum, n_dips)), bounds=bounds,
        jac=lambda p: _dip_jacobian_reference(p, freqs, weights))


def test_fit_matches_the_fit_with_per_dip_loops():
    n14 = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        xi = rng.uniform(-3.0, 3.0)
        if seed % 4:
            system, mode, n_dips, sigma = SpinSystem(), "cw", 2, 0.005
            env = FieldEnvironment(shift_xi=xi, splitting_delta=rng.uniform(3.5, 5.0))
            grid = np.linspace(2835.0, 2905.0, 701)
        else:
            system, mode, n_dips, sigma = n14, "pulsed", 3, 0.002
            env = FieldEnvironment(shift_xi=xi)
            grid = np.linspace(2862.0 + xi, 2878.0 + xi, 801)
        spec = synthesize_spectrum(system, env, mode, grid, ensemble=True,
                                   noise=NoiseSpec("gaussian", sigma=sigma, seed=seed))
        fit = fit_spectrum(spec, n_dips)
        reference = _fit_reference(spec, n_dips)
        assert fit.report.iterations == reference.iterations
        dips = reference.params[1:].reshape(-1, 3)
        dips = dips[np.argsort(dips[:, 0])]  # (center, contrast, FWHM) rows by center
        for ours, theirs in ((fit.model.centers, dips[:, 0]),
                             (fit.model.contrasts, dips[:, 1]),
                             (fit.model.fwhms, dips[:, 2]),
                             (fit.model.baseline, reference.params[0])):
            np.testing.assert_allclose(ours, theirs, rtol=1e-10, atol=0)


def test_fit_jacobian_reuses_the_terms_of_the_last_residual_call(monkeypatch):
    counts = _count_calls(monkeypatch, "_dip_terms", "_dip_residuals", "_dip_jacobian")
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = synthesize_spectrum(SpinSystem(), env, "cw", np.linspace(2835.0, 2905.0, 701),
                               ensemble=True, noise=NoiseSpec("gaussian", sigma=0.005, seed=3))
    fit = fit_spectrum(spec, 2)
    # one Jacobian per iteration plus the one for the errors; only that last
    # one can fall on a point other than the last residual call's
    assert counts["_dip_jacobian"] == fit.report.iterations + 1
    assert counts["_dip_residuals"] <= counts["_dip_terms"] <= counts["_dip_residuals"] + 1


def test_fit_spectrum_makes_no_numeric_jacobian_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fit_spectrum fell back to a numeric Jacobian")

    monkeypatch.setattr(fitting, "numeric_jacobian", forbidden)
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    grid = np.linspace(2835.0, 2905.0, 701)
    for seed in range(20):
        spec = synthesize_spectrum(SpinSystem(), env, "cw", grid, ensemble=True,
                                   noise=NoiseSpec("gaussian", sigma=0.005, seed=seed))
        fit = fit_spectrum(spec, 2)
        assert abs(fit.xi_fit - 2.5) <= 0.2 and abs(fit.delta_fit - 4.1) <= 0.2
        assert np.all(np.isfinite(fit.report.stderr))
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    pulsed = synthesize_spectrum(system, FieldEnvironment(), "pulsed",
                                 np.linspace(2862.0, 2878.0, 801))
    fit3 = fit_spectrum(pulsed, 3)
    assert np.all(np.abs(np.diff(fit3.model.centers) - 2.16) <= 0.05)


def _half_depth_extent_reference(smooth, baseline, i):
    """The half-depth walk as it was written before vectorization."""
    depth = max(baseline - smooth[i], 1e-12)
    half = baseline - 0.5 * depth
    right = i
    while right < len(smooth) - 1 and smooth[right] < half:
        right += 1
    left = i
    while left > 0 and smooth[left] < half:
        left -= 1
    return left, right


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 60))
def test_half_depth_extent_matches_the_walk(data, size):
    # values from a few levels, so that runs, ties and edges at half depth are common
    smooth = np.array(data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.6, 0.75, 1.0]),
                                         min_size=size, max_size=size)))
    baseline = data.draw(st.sampled_from([0.5, 0.8, 1.0, 1.2]))
    i = data.draw(st.integers(0, size - 1))
    assert odmr._half_depth_extent(smooth, baseline, i) == \
        _half_depth_extent_reference(smooth, baseline, i)


def _initial_model_reference(spectrum, n_dips):
    """The seeding as it was written before vectorization, kept for comparison."""
    freqs, signal = spectrum.freqs, spectrum.signal
    smooth = np.convolve(signal, np.ones(5) / 5.0, mode="same")
    baseline = float(np.percentile(smooth, 90))
    minima = [i for i in range(1, len(smooth) - 1)
              if smooth[i] <= smooth[i - 1] and smooth[i] < smooth[i + 1]]
    minima.sort(key=lambda i: (smooth[i], freqs[i]))
    picks = []
    blocked = np.zeros(len(smooth), dtype=bool)
    for i in minima:
        if len(picks) == n_dips:
            break
        if blocked[i]:
            continue
        picks.append(i)
        left, right = _half_depth_extent_reference(smooth, baseline, i)
        pad = max(right - left, 2)
        blocked[max(left - pad, 0):min(right + pad + 1, len(smooth))] = True
    while len(picks) < n_dips:
        k = len(picks)
        picks.append(int((k + 1) * (len(freqs) - 1) / (n_dips + 1)))
    picks.sort()
    centers, contrasts, widths = [], [], []
    span = freqs[-1] - freqs[0]
    for i in picks:
        depth = max(baseline - smooth[i], 1e-4)
        left, right = _half_depth_extent_reference(smooth, baseline, i)
        centers.append(freqs[i])
        contrasts.append(min(depth, 0.999))
        widths.append(max(freqs[right] - freqs[left], span / len(freqs)))
    return np.array(centers), np.array(contrasts), np.array(widths), baseline


def _seeding_spectra():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    n14 = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    for seed in range(8):
        noise = NoiseSpec("gaussian", sigma=0.002 * (seed + 1), seed=seed)
        yield synthesize_spectrum(SpinSystem(), env, "cw", GRID, ensemble=True, noise=noise)
        yield synthesize_spectrum(n14, FieldEnvironment(), "pulsed",
                                  np.linspace(2862.0, 2878.0, 801), noise=noise)
        # coarse quantization gives exact ties and flat stretches
        spec = synthesize_spectrum(SpinSystem(), env, "cw", GRID, noise=noise)
        yield OdmrSpectrum(GRID, np.round(spec.signal * 64.0) / 64.0, spec.sigma)
    # two identical dips on an exactly flat baseline tie in depth
    signal = np.ones(GRID.size)
    for i in (100, 300):
        signal[i - 3:i + 4] = [0.95, 0.9, 0.8, 0.75, 0.8, 0.9, 0.95]
    yield OdmrSpectrum(GRID, signal, np.full(GRID.size, 0.01))
    # a single point dip, so most seeds come from the degenerate fallback
    signal = np.ones(GRID.size)
    signal[240] = 0.5
    yield OdmrSpectrum(GRID, signal, np.full(GRID.size, 0.01))


def test_vectorized_seeding_returns_the_reference_picks():
    tied = False
    for spectrum in _seeding_spectra():
        smooth = np.convolve(spectrum.signal, np.ones(5) / 5.0, mode="same")
        inner = smooth[1:-1]
        minima = inner[(inner <= smooth[:-2]) & (inner < smooth[2:])]
        tied = tied or len(np.unique(minima)) < len(minima)
        for n_dips in (1, 2, 3, 6):
            model = odmr._initial_model(spectrum, n_dips)
            centers, contrasts, widths, baseline = _initial_model_reference(spectrum, n_dips)
            assert np.array_equal(model.centers, centers)
            assert np.array_equal(model.contrasts, contrasts)
            assert np.array_equal(model.fwhms, widths)
            assert model.baseline == baseline
    assert tied


def _noisy_doublet(points):
    """A two-dip ensemble spectrum and its 5-point smoothed signal, on ``points`` points."""
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spectrum = synthesize_spectrum(SpinSystem(), env, "cw", np.linspace(2835.0, 2905.0, points),
                                   ensemble=True,
                                   noise=NoiseSpec("gaussian", sigma=0.005, seed=points))
    return spectrum, np.convolve(spectrum.signal, np.ones(5) / 5.0, mode="same")


@pytest.mark.parametrize("points", [101, 201, 401, 481, 701, 801])
def test_seed_baseline_is_numpys_90th_percentile_where_its_rank_is_whole(points):
    # 0.9 (points - 1) is whole on these grids, the CLI's, README's and bench's among them
    spectrum, smooth = _noisy_doublet(points)
    baseline = odmr._initial_model(spectrum, 2).baseline
    assert np.float64(baseline).tobytes() == np.float64(np.percentile(smooth, 90)).tobytes()


def test_seed_baseline_off_a_whole_rank_is_the_nearest_rank():
    # 0.9 * 332 = 298.8: np.percentile interpolates, the seed takes rank 299
    spectrum, smooth = _noisy_doublet(333)
    baseline = odmr._initial_model(spectrum, 2).baseline
    assert baseline == np.sort(smooth)[299]
    assert baseline != np.percentile(smooth, 90)


# ---------------------------------------------------------------------------
# shift/splitting inversion

def test_invert_shift_splitting_values():
    assert invert_shift_splitting(2864.3, 2880.7, 2870.0) == \
        pytest.approx((2.5, 4.1))
    assert invert_shift_splitting(2870.0, 2870.0, 2870.0) == (0.0, 0.0)
    with pytest.raises(OdmrError):
        invert_shift_splitting(2880.7, 2864.3, 2870.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_reference_and_resonances_are_named(value):
    spec = synthesize_spectrum(SpinSystem(), FieldEnvironment(splitting_delta=4.0), "cw", GRID)
    with pytest.raises(OdmrError, match="d_reference must be finite"):
        fit_spectrum(spec, 2, d_reference=value)
    for k, name in enumerate(("v_minus", "v_plus", "d")):
        args = [2860.0, 2880.0, 2870.0]
        args[k] = value
        with pytest.raises(OdmrError, match=f"{name} must be finite"):
            invert_shift_splitting(*args)


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


# ---------------------------------------------------------------------------
# ensemble symmetry, which a fit of the field from an ensemble spectrum relies on

# the cube's 48 signed permutations of a vector: each maps the four NV axes onto +-themselves
SIGNED_PERMUTATIONS = [(list(perm), np.array(signs)) for perm in itertools.permutations(range(3))
                       for signs in itertools.product((1.0, -1.0), repeat=3)]
SYMMETRY_CASES = {"bare-cw": ((), "cw", np.linspace(2600.0, 3140.0, 1081)),
                  "N14-pulsed": ((HyperfineCoupling.nitrogen14(),), "pulsed",
                                 np.linspace(2600.0, 3140.0, 2161))}
# near zero field, 14N lines split by about merge_lines' 1e-6 MHz merge on one side of a
# symmetry and not on the other (1e-6 mT along [111] moves the spectrum by 3e-7), so |b| >= 0.01
FIELD_MT = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3).map(np.array).filter(
    lambda b: np.linalg.norm(b) >= 0.01)


def _ensemble(system, mode, grid, b_lab):
    """The 4-orientation spectrum at ``b_lab`` and its sorted line positions."""
    env = FieldEnvironment(b_lab=b_lab)
    unmerged = odmr.orientation_lines(system, env, ensemble=True)
    spectrum = synthesize_spectrum(system, env, mode, grid, ensemble=True, unmerged=unmerged)
    return spectrum.signal, np.sort(np.concatenate([freqs for freqs, _ in unmerged]))


@pytest.mark.parametrize("case", SYMMETRY_CASES)
@settings(max_examples=6, deadline=None)
@given(b_lab=FIELD_MT)
def test_ensemble_is_invariant_under_the_cubes_signed_permutations_of_the_field(case, b_lab):
    # measured over 40 random fields: spectra within 6.4e-14, lines within 7.7e-12 MHz
    nuclei, mode, grid = SYMMETRY_CASES[case]
    system = SpinSystem(nuclei=nuclei)
    signal, lines = _ensemble(system, mode, grid, b_lab)
    for perm, signs in SIGNED_PERMUTATIONS:
        moved_signal, moved_lines = _ensemble(system, mode, grid, signs * b_lab[perm])
        assert np.max(np.abs(moved_signal - signal)) < 1e-12
        assert moved_lines.shape == lines.shape
        assert np.max(np.abs(moved_lines - lines), initial=0.0) < 1e-10


@pytest.mark.parametrize("case", SYMMETRY_CASES)
@settings(max_examples=6, deadline=None)
@given(b_lab=FIELD_MT, index=st.integers(0, 3),
       angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4))
def test_one_orientations_lines_are_invariant_under_rotation_about_its_axis(case, b_lab, index,
                                                                             angles):
    # measured over 40 random fields, 6 angles each: within 8.2e-12 MHz
    orientation = nv_orientations()[index]
    system = SpinSystem(nuclei=SYMMETRY_CASES[case][0], orientation=orientation)
    n = orientation.axis
    freqs, _ = unmerged_lines(system, FieldEnvironment(b_lab=b_lab))
    for angle in angles:  # Rodrigues' rotation of b_lab about n
        rotated = (b_lab * np.cos(angle) + np.cross(n, b_lab) * np.sin(angle)
                   + n * (n @ b_lab) * (1.0 - np.cos(angle)))
        moved, _ = unmerged_lines(system, FieldEnvironment(b_lab=rotated))
        assert moved.shape == freqs.shape
        assert np.max(np.abs(moved - freqs), initial=0.0) < 1e-10
