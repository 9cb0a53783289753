"""ODMR spectrum synthesis and multi-Lorentzian fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvkit import fitting, odmr
from nvkit.fitting import numeric_jacobian
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
    project_field,
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
])
def test_synthesis_rejects_bad_line_parameters(name, value, message):
    with pytest.raises(OdmrError, match=message):
        synthesize_spectrum(SpinSystem(), FieldEnvironment(), "cw", GRID, **{name: value})


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


# analytic Jacobian and seeding

N14_TRIPLET = [(2867.84, 0.03, 0.7), (2870.0, 0.03, 0.7), (2872.16, 0.03, 0.7)]


@pytest.mark.parametrize("dips, grid", [
    ([(2870.0, 0.1, 8.0)], GRID),
    ([(2864.3, 0.05, 8.0), (2880.7, 0.06, 7.5)], GRID),
    (N14_TRIPLET, np.linspace(2862.0, 2878.0, 801)),
    ([(2735.5 + 2.16 * (k % 3) + 6.43 * (k // 3), 0.02, 0.7) for k in range(6)],
     np.linspace(2733.0, 2749.0, 1101)),
])
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
        assert np.all(np.isfinite(fit.errors))
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
