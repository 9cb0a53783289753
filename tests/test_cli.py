"""Command-line interface: determinism, exit codes, config handling."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nvkit
from nvkit.dynamics import CoherenceParams
from nvkit.noise import NoiseSpec

G2_PARAMS = [0.275, 1.481, 9.48, 0.365, 114.0, 0.313, 312.0]


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("NVKIT_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "nvkit.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def run_main(args):
    """`cli.main` in this process, with NVKIT_CONFIG unset: (code, stdout, stderr)."""
    from nvkit import cli
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.delenv("NVKIT_CONFIG", raising=False)
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Input files for the fitting subcommands."""
    root = tmp_path_factory.mktemp("cli_data")

    env = nvkit.FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    spec = nvkit.synthesize_spectrum(
        nvkit.SpinSystem(), env, "cw", np.linspace(2840, 2900, 481),
        ensemble=True, noise=NoiseSpec("gaussian", sigma=0.003, seed=5))
    nvkit.save_spectrum(root / "spec.txt", spec)

    coh = CoherenceParams(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0)
    times = np.linspace(0.0, 1500.0, 300)
    hahn = nvkit.simulate_hahn(nvkit.SpinSystem(), nvkit.FieldEnvironment(),
                               coh, 0.0, times,
                               noise=NoiseSpec("gaussian", sigma=0.004, seed=2))
    nvkit.save_curve(root / "hahn.txt", hahn)

    fid_times = np.arange(0.0, 8.0, 0.02)
    fid = nvkit.simulate_fid(
        nvkit.SpinSystem(nuclei=(nvkit.HyperfineCoupling.nitrogen14(),)),
        nvkit.FieldEnvironment(), coh, 0.0, fid_times)
    nvkit.save_curve(root / "fid.txt", fid)

    taus = np.sort(np.concatenate([np.arange(-25, 25.001, 0.05),
                                   np.arange(25.5, 1500, 1.0),
                                   -np.arange(25.5, 1500, 1.0)]))
    g2 = nvkit.synthesize_g2(taus, G2_PARAMS,
                             noise=NoiseSpec("gaussian", sigma=0.02, seed=9))
    nvkit.save_g2(root / "g2.txt", g2)

    powers = np.linspace(0.05, 5.0, 25)
    counts = 35.93e3 * powers / (powers + 1.10)
    with open(root / "sat.txt", "w") as fh:
        for p, c in zip(powers, counts):
            fh.write(f"{float(p)!r} {float(c)!r}\n")

    x = np.linspace(-8.0, 8.0, 81)
    y = np.linspace(-6.0, 6.0, 61)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    counts2d = 50.0 + 1000.0 * np.exp(
        -4 * np.log(2) * (gx ** 2 / 4.53 ** 2 + gy ** 2 / 2.0 ** 2))
    nvkit.save_map(root / "map.txt", nvkit.PLMap((x, y), counts2d, power=0.3))
    return root


def all_subcommand_argvs(data_dir, out_dir):
    return {
        "odmr-sim": ["odmr-sim", "--xi", "2.5", "--delta", "4.1", "--ensemble",
                      "--noise-sigma", "0.005", "--seed", "3",
                      "--out", str(out_dir / "sim_spec.txt")],
        "odmr-fit": ["odmr-fit", "--in", str(data_dir / "spec.txt"),
                      "--n-dips", "2"],
        "seq-sim": ["seq-sim", "--kind", "hahn", "--tmax", "80",
                     "--points", "161", "--larmor-khz", "50"],
        "decay-fit": ["decay-fit", "--in", str(data_dir / "hahn.txt"),
                       "--model", "stretched"],
        "freq-extract": ["freq-extract", "--in", str(data_dir / "fid.txt"),
                          "--max-components", "3"],
        "g2-fit": ["g2-fit", "--in", str(data_dir / "g2.txt")],
        "sat-fit": ["sat-fit", "--in", str(data_dir / "sat.txt")],
        "density": ["density", "--c-ens", "9.28e6", "--c-single", "7.7e3",
                     "--psf", "0.45,0.45,2.0"],
        "enhance": ["enhance", "--region-a", "900", "--region-b", "1"],
        "sensitivity": ["sensitivity", "--count-rate", "30e3", "--contrast",
                         "0.2", "--readout-us", "0.5", "--t2star-us", "1.76",
                         "--t2-us", "494"],
        "map-slice": ["map-slice", "--in", str(data_dir / "map.txt"),
                       "--axis", "x", "--index", "30"],
    }


def test_every_subcommand_deterministic(data_dir, tmp_path):
    for name, argv in all_subcommand_argvs(data_dir, tmp_path).items():
        first = run_cli(argv)
        second = run_cli(argv)
        assert first.returncode == 0, (name, first.stderr)
        assert first.stdout == second.stdout, name
        assert first.stdout.startswith(f"# nvkit v1 {name}\n")


def test_sensitivity_output_value(data_dir):
    result = run_cli(["sensitivity", "--count-rate", "30e3", "--contrast", "0.2",
                      "--readout-us", "0.5", "--t2star-us", "1.76",
                      "--t2-us", "494"])
    assert result.returncode == 0
    record = dict(line.split(" = ") for line in
                  result.stdout.strip().splitlines()[1:])
    assert float(record["eta_dc_nt_per_sqrt_hz"]) == pytest.approx(174.9, rel=0.01)
    assert float(record["eta_ac_nt_per_sqrt_hz"]) == pytest.approx(10.4, rel=0.01)


def test_density_output_value():
    result = run_cli(["density", "--c-ens", "9.28e6", "--c-single", "7.7e3",
                      "--psf", "0.45,0.45,2.0"])
    record = dict(line.split(" = ") for line in
                  result.stdout.strip().splitlines()[1:])
    assert float(record["ppb"]) == pytest.approx(14.0, rel=0.03)


def test_odmr_sim_zero_field_degenerate_lines():
    result = run_cli(["odmr-sim"])
    record = dict(line.split(" = ") for line in
                  result.stdout.strip().splitlines()[1:])
    centers = [float(v) for v in record["line_centers_mhz"].split(",")]
    assert all(c == pytest.approx(2870.0, abs=1e-6) for c in centers)


def test_usage_error_names_missing_flag():
    result = run_cli(["sensitivity", "--contrast", "0.2"])
    assert result.returncode == 2
    assert "--count-rate" in result.stderr


def test_unknown_flag_exits_2():
    result = run_cli(["enhance", "--region-a", "1", "--region-b", "1",
                      "--bogus", "3"])
    assert result.returncode == 2


def test_missing_file_exits_1(tmp_path):
    result = run_cli(["odmr-fit", "--in", str(tmp_path / "nope.txt")])
    assert result.returncode == 1
    assert "nope.txt" in result.stderr


def test_computation_error_exits_1():
    result = run_cli(["enhance", "--region-a", "1", "--region-b", "0"])
    assert result.returncode == 1


@pytest.mark.parametrize("count_rate", ["inf", "nan"])
def test_sensitivity_nonfinite_count_rate_exits_1(count_rate):
    result = run_cli(["sensitivity", "--count-rate", count_rate, "--contrast", "0.2",
                      "--readout-us", "0.5", "--t2star-us", "1.76", "--t2-us", "494"])
    assert result.returncode == 1
    assert "count_rate" in result.stderr
    assert "# nvkit v1" not in result.stdout


@pytest.mark.parametrize("argv", [
    ["density", "--c-ens", "nan", "--c-single", "7.7e3"],
    ["density", "--c-ens", "inf", "--c-single", "7.7e3"],
    ["density", "--c-ens", "9.28e6", "--c-single", "7.7e3", "--psf", "nan,0.45,2.0"],
    ["enhance", "--region-a", "nan", "--region-b", "1"],
])
def test_confocal_nonfinite_input_exits_1(argv):
    result = run_cli(argv)
    assert result.returncode == 1
    assert "must be finite" in result.stderr
    assert "# nvkit v1" not in result.stdout


def test_sat_fit_negative_counts_exits_1(tmp_path):
    path = tmp_path / "sat.txt"
    path.write_text("0.5 -100\n1 -150\n2 -200\n4 -230\n")
    result = run_cli(["sat-fit", "--in", str(path)])
    assert result.returncode == 1
    assert "# nvkit v1" not in result.stdout


def test_help_available_for_all_subcommands(data_dir, tmp_path):
    for name in all_subcommand_argvs(data_dir, tmp_path):
        result = run_cli([name, "--help"])
        assert result.returncode == 0
        assert "--help" in result.stdout or "usage" in result.stdout


def test_plot_out_writes_two_columns(tmp_path):
    plot = tmp_path / "trace.txt"
    result = run_cli(["seq-sim", "--kind", "t1", "--tmax", "9000",
                      "--points", "61", "--plot-out", str(plot)])
    assert result.returncode == 0
    rows = [line.split() for line in plot.read_text().strip().splitlines()]
    assert all(len(r) == 2 for r in rows)
    assert len(rows) == 61


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("# defaults\n[sensitivity]\ncount-rate = 30e3\n"
                   "contrast = 0.2\nt2star_us = 1.76\nt2-us = 494\n")
    result = run_cli(["sensitivity", "--config", str(cfg)])
    assert result.returncode == 0, result.stderr
    assert "174.9" in result.stdout


def test_config_flag_overrides_file(tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("[enhance]\nregion-a = 100\nregion-b = 1\n")
    result = run_cli(["enhance", "--config", str(cfg), "--region-a", "900"])
    assert result.returncode == 0
    assert "ratio = 900" in result.stdout


def test_config_env_var(tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("[enhance]\nregion-a = 42\nregion-b = 2\n")
    result = run_cli(["enhance"], env_extra={"NVKIT_CONFIG": str(cfg)})
    assert result.returncode == 0
    assert "ratio = 21" in result.stdout


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("[enhance]\nregion-a = 1\nregion-b = 1\nbogus = 7\n")
    result = run_cli(["enhance", "--config", str(cfg)])
    assert result.returncode == 2
    assert ":4:" in result.stderr and "bogus" in result.stderr


def test_config_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("[nonsense]\nkey = 1\n")
    result = run_cli(["enhance", "--region-a", "1", "--region-b", "1",
                      "--config", str(cfg)])
    assert result.returncode == 2
    assert ":1:" in result.stderr


SENSITIVITY_FLAGS = ["--count-rate", "30e3", "--t2star-us", "1.76", "--t2-us", "494"]


@pytest.mark.parametrize("contrast", [["--contrast", "0.2"], ["--contrast=0.2"],
                                      ["--contr", "0.2"], ["--contr=0.2"]])
def test_explicit_flag_beats_config_in_every_form(tmp_path, contrast):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text("[sensitivity]\ncontrast = 0.1\n")
    expected = run_main(["sensitivity", *SENSITIVITY_FLAGS, "--contrast", "0.2"])
    assert run_main(["sensitivity", "--config", str(cfg), *SENSITIVITY_FLAGS,
                     *contrast]) == expected
    assert "eta_dc_nt_per_sqrt_hz = 174.9631715\n" in expected[1]


SIMULATORS = ("odmr-sim", "seq-sim")
OUTPUT_FLAGS = ("--noise-sigma", "--seed", "--out", "--plot-out")


def test_output_flags_belong_to_the_simulators_only(data_dir, tmp_path):
    from nvkit import cli
    parsers = {name: entry[0] for name, entry in cli.build_parser()[1].items()}
    for name, parser in parsers.items():
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert "--config" in flags, name
        taken = set(OUTPUT_FLAGS) & flags
        assert taken == (set(OUTPUT_FLAGS) if name in SIMULATORS else set()), name
    for name, argv in all_subcommand_argvs(data_dir, tmp_path).items():
        if name not in SIMULATORS:
            for flags in (["--seed", "5"], ["--plot-out", str(tmp_path / "p.dat")]):
                assert run_main(argv + flags)[0] == 2, (name, flags)
    assert not (tmp_path / "p.dat").exists()


@pytest.mark.parametrize("argv", [["odmr-sim", "--points", "41"],
                                  ["seq-sim", "--kind", "rabi", "--points", "41"]])
def test_simulators_take_all_four_output_flags(tmp_path, argv):
    out, plot = tmp_path / "out.txt", tmp_path / "plot.txt"
    code, stdout, stderr = run_main(argv + ["--noise-sigma", "0.01", "--seed", "3",
                                            "--out", str(out), "--plot-out", str(plot)])
    assert code == 0, stderr
    assert f"seed = 3\nout = {out}\nplot_out = {plot}\n" in stdout
    assert len(plot.read_text().splitlines()) == 41
    assert out.exists()


@pytest.mark.parametrize("section, key", [("g2-fit", "seed"), ("enhance", "plot-out"),
                                          ("sensitivity", "noise_sigma"),
                                          ("map-slice", "out")])
def test_config_key_of_a_flag_the_subcommand_lacks_is_rejected(tmp_path, section, key):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text(f"# output flags\n[{section}]\n{key} = 1\n")
    code, stdout, stderr = run_main([section, "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:3: unknown key {key.replace('-', '_')!r}" in stderr
    assert stdout == ""


def test_config_key_is_the_long_flag_name(data_dir, tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text(f"[sat-fit]\nin = {data_dir / 'sat.txt'}\n")
    expected = run_main(["sat-fit", "--in", str(data_dir / "sat.txt")])
    assert expected[0] == 0
    assert run_main(["sat-fit", "--config", str(cfg)]) == expected


def test_config_key_named_by_the_dest_is_rejected(data_dir, tmp_path):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text(f"[odmr-fit]\nn-dips = 2\ninfile = {data_dir / 'spec.txt'}\n")
    code, stdout, stderr = run_main(["odmr-fit", "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:3: unknown key 'infile' for [odmr-fit]" in stderr
    assert stdout == ""


@pytest.mark.parametrize("value, n_lines", [("yes", 4), ("TRUE", 4), ("1", 4),
                                            ("No", 1), ("false", 1), ("0", 1)])
def test_config_on_off_value_in_any_case(tmp_path, value, n_lines):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text(f"[odmr-sim]\nensemble = {value}\n")
    code, stdout, stderr = run_main(["odmr-sim", "--points", "41", "--config", str(cfg)])
    assert code == 0, stderr
    assert f"n_lines = {n_lines}\n" in stdout
    flag = ["--ensemble"] if n_lines == 4 else []
    assert stdout == run_main(["odmr-sim", "--points", "41", *flag])[1]


@pytest.mark.parametrize("value", ["ture", "on", "2", ""])
def test_config_bad_on_off_value_is_rejected(tmp_path, value):
    cfg = tmp_path / "nvkit.conf"
    cfg.write_text(f"[odmr-sim]\n# on/off\nensemble = {value}\n")
    code, stdout, stderr = run_main(["odmr-sim", "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:3: bad value {value!r} for key 'ensemble'" in stderr
    assert stdout == ""


@pytest.mark.parametrize("n_dips", ["400", "0"])
def test_odmr_fit_with_more_dips_than_the_points_allow_exits_1(data_dir, n_dips):
    # 481 points carry at most 160 dips of three parameters plus a baseline
    result = run_cli(["odmr-fit", "--in", str(data_dir / "spec.txt"), "--n-dips", n_dips],
                     timeout=60)
    assert result.returncode == 1
    assert f"n_dips must be a whole number from 1 to 160, got {n_dips}" in result.stderr
    assert "# nvkit v1" not in result.stdout


def test_decay_fit_on_a_bound_or_without_an_oscillation_exits_1(tmp_path):
    t = np.linspace(0.05, 6.0, 300)
    signal = np.exp(-(t / 2) ** 4) + np.random.default_rng(0).normal(0.0, 0.005, t.size)
    stretched = tmp_path / "stretched.txt"
    nvkit.save_curve(stretched, nvkit.DecayCurve(t, signal, np.full(t.size, 0.005), "hahn"))
    rabi = tmp_path / "rabi.txt"
    # driven about 2.65 GHz from every line, the trace is flat noise
    assert run_main(["seq-sim", "--kind", "rabi", "--nuclei", "n14", "--b", "0,0,4.6",
                     "--drive-freq", "144.485", "--points", "101", "--tmax", "2",
                     "--noise-sigma", "0.01", "--seed", "4", "--out", str(rabi)])[0] == 0
    for path, model, message in ((stretched, "stretched", "ended on a bound: n_stretch=3"),
                                 (rabi, "stretched_osc", "no oscillation found")):
        code, stdout, stderr = run_main(["decay-fit", "--in", str(path), "--model", model])
        assert code == 1, model
        assert message in stderr
        assert stdout == ""


def test_cis_fid_triple_prints_t2_star_within_2_percent(tmp_path):
    # CI's coherence path: a 14N FID with T2* 1.76 us, its beats, and its stretched_osc fit
    fid = str(tmp_path / "fid.txt")
    assert run_main(["seq-sim", "--kind", "fid", "--nuclei", "n14", "--b", "0,0,4.6",
                     "--points", "401", "--tmax", "8", "--noise-sigma", "0.002", "--seed", "4",
                     "--out", fid])[0] == 0
    code, stdout, _ = run_main(["freq-extract", "--in", fid])
    assert code == 0 and "freq_0_mhz = 0.19" in stdout
    code, stdout, _ = run_main(["decay-fit", "--in", fid, "--model", "stretched_osc"])
    assert code == 0
    record = dict(line.split(" = ") for line in stdout.splitlines()[1:])
    assert float(record["t_coh_us"]) == pytest.approx(1.76, rel=0.02)
    assert record["converged"] == "true"
    beats = [float(f) for f in record["frequencies_mhz"].split(",")]
    assert np.allclose(beats, [0.20, 1.96, 2.16, 2.36], atol=0.02)


@pytest.mark.parametrize("index", ["61", "-1", "30.7"])
def test_map_slice_index_outside_its_axis_or_fractional_exits_1(data_dir, index):
    code, stdout, stderr = run_main(["map-slice", "--in", str(data_dir / "map.txt"),
                                     "--axis", "x", "--index", index])
    assert code == 1
    assert "error: index" in stderr
    assert stdout == ""


def test_map_slice_refuses_a_bound_pinned_fit(tmp_path):
    # an inverted dip, 100 - 50 exp(-4 ln2 x^2 / 0.5^2): no peak to fit
    x, y = np.linspace(-2.0, 2.0, 41), np.linspace(0.0, 1.0, 5)
    dip = 100.0 - 50.0 * np.exp(-4.0 * np.log(2.0) * x ** 2 / 0.5 ** 2)
    nvkit.save_map(tmp_path / "dip.txt", nvkit.PLMap((x, y), np.tile(dip[:, None], (1, 5)), 1.0))
    code, stdout, stderr = run_main(["map-slice", "--in", str(tmp_path / "dip.txt"),
                                     "--axis", "x", "--index", "2"])
    assert code == 1
    assert "error: Gaussian slice fit ended on a bound: amplitude=0, center=6, fwhm=4e-06" \
        in stderr
    assert stdout == ""


@pytest.mark.parametrize("nuclei", ["n14:abc", "c13:", "n14:1:2:3"])
def test_malformed_nuclei_is_a_usage_error(nuclei):
    code, stdout, stderr = run_main(["odmr-sim", "--points", "11", "--nuclei", nuclei])
    assert code == 2
    assert "usage error: --nuclei" in stderr
    assert stdout == ""


def test_nuclei_overrides_are_handed_to_the_species_factories(monkeypatch):
    # so that every default of a factory, not only the two couplings, reaches the system
    from nvkit import cli
    coupling = nvkit.HyperfineCoupling
    monkeypatch.setattr(coupling, "nitrogen14", staticmethod(lambda *args: ("n14", args)))
    monkeypatch.setattr(coupling, "carbon13", staticmethod(lambda *args: ("c13", args)))
    assert cli._parse_nuclei("n14,c13:6.43, N14:-2.2:-2.5") == (
        ("n14", ()), ("c13", (6.43,)), ("n14", (-2.2, -2.5)))


def test_density_warns_above_linearity_threshold():
    result = run_cli(["density", "--c-ens", "9.28e6", "--c-single", "7.7e3",
                      "--power-mw", "0.3", "--psat-mw", "1.10"])
    assert result.returncode == 0
    assert "warning" in result.stderr
    assert "ppb" in result.stdout


DENSITY = ["density", "--c-ens", "9.28e6", "--c-single", "7.7e3"]


@pytest.mark.parametrize("power, psat, flag", [
    ("-1", "1", "--power-mw"),  # was "float division by zero"
    ("5", "-2", "--psat-mw"),  # was a "167% below" warning and exit 0
    ("0", "1.1", "--power-mw"),
    ("nan", "1.1", "--power-mw"),
    ("0.3", "inf", "--psat-mw"),
    ("inf", "nan", "--power-mw"),
])
def test_density_rejects_a_power_that_is_not_finite_and_positive(power, psat, flag):
    code, out, err = run_main(DENSITY + ["--power-mw", power, "--psat-mw", psat])
    assert code == 1
    assert f"nvkit density: error: {flag} must be finite and positive" in err
    assert "warning" not in err and out == ""


@pytest.mark.parametrize("given, missing", [("--power-mw", "--psat-mw"),
                                            ("--psat-mw", "--power-mw")])
def test_density_power_flags_go_together(given, missing):
    code, out, err = run_main(DENSITY + [given, "0.3"])
    assert code == 2
    assert f"go together; {missing} is missing" in err and out == ""


@pytest.mark.parametrize("argv", [["odmr-sim", "--points", "-5"],
                                  ["seq-sim", "--kind", "fid", "--points", "-3"],
                                  ["seq-sim", "--kind", "rabi", "--points", "-1"]])
def test_negative_points_exits_1_naming_the_flag(argv):
    code, out, err = run_main(argv)
    assert code == 1
    assert "--points must be finite and nonnegative" in err and out == ""


@pytest.mark.parametrize("argv", [["odmr-sim", "--points", "5"],
                                  ["seq-sim", "--kind", "fid", "--points", "3"],
                                  ["seq-sim", "--kind", "rabi", "--points", "0"]])
def test_too_few_points_exits_1_naming_the_flag(argv):
    code, out, err = run_main(argv)
    assert code == 1
    assert f"--points must be at least 8, got {argv[-1]}" in err and out == ""


def test_odmr_fit_with_a_dip_on_its_contrast_bound_exits_1(tmp_path):
    # one line at 2870 MHz: a second dip has nothing to fit and ends at contrast 0
    spec = str(tmp_path / "spec.txt")
    code, _, _ = run_main(["odmr-sim", "--ensemble", "--noise-sigma", "0.002", "--seed", "3",
                           "--out", spec])
    assert code == 0
    code, out, err = run_main(["odmr-fit", "--in", spec])
    assert code == 1
    assert "dip on its contrast bound: dip 1 contrast=0" in err and out == ""
    code, out, _ = run_main(["odmr-fit", "--in", spec, "--n-dips", "1"])
    assert code == 0 and "converged = true" in out


# nvkit modules each subcommand loads beyond BASE_MODULES, which nvkit.cli
# imports itself
BASE_MODULES = {"nvkit", "nvkit.cli", "nvkit.confocal", "nvkit.constants", "nvkit.fitting",
                "nvkit.tables"}
SUBCOMMAND_MODULES = {
    "odmr-sim": {"noise", "odmr", "spin_model"},
    "odmr-fit": {"noise", "odmr", "spin_model"},
    "seq-sim": {"dynamics", "noise", "spin_model"},
    "decay-fit": {"dynamics", "noise", "spin_model"},
    "freq-extract": {"dynamics", "noise", "spin_model"},
    "g2-fit": {"noise", "photon_stats"},
    "sat-fit": {"noise", "photon_stats"},
    "density": set(),
    "enhance": set(),
    "sensitivity": {"magnetometry"},
    "map-slice": set(),
}
LOADED_MODULES = """
import contextlib, io, json, sys
from nvkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("nvkit"))]))
"""


def test_each_subcommand_loads_only_its_modules(data_dir, tmp_path):
    argvs = all_subcommand_argvs(data_dir, tmp_path)
    assert set(argvs) == set(SUBCOMMAND_MODULES)
    for name, argv in argvs.items():
        env = {k: v for k, v in os.environ.items() if k != "NVKIT_CONFIG"}
        result = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                                capture_output=True, text=True, env=env, check=True)
        code, loaded = json.loads(result.stdout)
        assert code == 0, (name, result.stderr)
        expected = BASE_MODULES | {"nvkit." + m for m in SUBCOMMAND_MODULES[name]}
        assert set(loaded) == expected, name


def test_seeding_fits_does_not_import_numpy_ma(data_dir, tmp_path):
    # np.median, np.percentile and np.unique import numpy.ma, about 20 ms per process
    argvs = all_subcommand_argvs(data_dir, tmp_path)
    script = ("import contextlib, io, sys\nfrom nvkit import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(sys.argv[1:]) == 0\n"
              "print('numpy.ma' in sys.modules)")
    argvs["stretched_osc"] = ["decay-fit", "--in", str(data_dir / "fid.txt"),
                              "--model", "stretched_osc"]
    for name in ("g2-fit", "freq-extract", "odmr-fit", "sat-fit", "stretched_osc"):
        result = subprocess.run([sys.executable, "-c", script, *argvs[name]],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False", name


def test_decay_fit_model_choices_need_no_dynamics_import():
    script = ("import sys; from nvkit import cli; cli.build_parser(); "
              "print('nvkit.dynamics' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
    from nvkit import cli, dynamics
    _, table = cli.build_parser()
    action = next(a for a in table["decay-fit"][0]._actions if a.dest == "model")
    assert list(action.choices) == [m.value for m in dynamics.DecayModel]


def test_odmr_sim_solves_each_orientation_once(monkeypatch):
    from nvkit import cli, spin_model
    calls = []
    original = spin_model.eigenlevels

    def counted(h):
        calls.append(h)
        return original(h)
    monkeypatch.setattr(spin_model, "eigenlevels", counted)
    # at zero field the four orientations share one field projection
    for field, solves in (("0,0,0", 1), ("1,2,3", 4)):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["odmr-sim", "--ensemble", "--points", "41", "--b", field]) == 0
        assert len(calls) == solves, field


def _rabi_drive(monkeypatch, argv):
    """The drive frequency that `seq-sim --kind rabi` hands to simulate_rabi."""
    from nvkit import dynamics
    drives = []
    simulate = dynamics.simulate_rabi

    def spy(system, env, coh, drive, *args, **kwargs):
        drives.append(drive)
        return simulate(system, env, coh, drive, *args, **kwargs)
    monkeypatch.setattr(dynamics, "simulate_rabi", spy)
    assert run_main(["seq-sim", "--kind", "rabi", "--points", "8", "--tmax", "0.5", *argv])[0] == 0
    return drives[0]


@pytest.mark.parametrize("argv, drive", [
    (["--nuclei", "n14", "--b", "0,0,4.6"], 2799.029),
    (["--b", "0,0,4.6"], 2801.383),
])
def test_rabi_default_drive_off_axis_is_a_line_with_weight(monkeypatch, argv, drive):
    # the ms=-1 <-> +1 pair near 145 MHz, at about 1e-8 weight, is below the line floor
    assert _rabi_drive(monkeypatch, argv) == pytest.approx(drive, abs=1e-3)


@pytest.mark.parametrize("argv", [
    [], ["--nuclei", "n14"], ["--b", "57.735027,57.735027,57.735027"],
    ["--nuclei", "n14", "--b", "2.655811,2.655811,2.655811"],
    ["--nuclei", "n14,c13", "--b", "4.809329,4.809329,4.809329"],
])
def test_rabi_default_drive_on_axis_is_the_lowest_line(monkeypatch, argv):
    from nvkit import cli, spin_model
    args = cli.build_parser()[0].parse_args(["seq-sim", "--kind", "rabi", *argv])
    lowest = spin_model.transition_lines(*cli._spin_inputs(args), merge_tol=0.01)[0][0]
    assert _rabi_drive(monkeypatch, argv) == lowest


@pytest.mark.parametrize("argv", [
    ["--b", "0,0,4.6"], ["--nuclei", "n14", "--b", "0,0,4.6"], ["--b", "1,2,3", "--xi", "2"],
    ["--nuclei", "n14,c13", "--b=-20,5,12", "--delta", "3"],
])
def test_rabi_default_drive_is_the_lowest_transition_line(monkeypatch, argv):
    from nvkit import cli, spin_model
    args = cli.build_parser()[0].parse_args(["seq-sim", "--kind", "rabi", *argv])
    lowest = spin_model.transition_lines(*cli._spin_inputs(args), merge_tol=0.01)[0][0]
    assert _rabi_drive(monkeypatch, argv) == lowest


@pytest.mark.parametrize("argv", [
    ["odmr-sim", "--noise-sigma", "nan"],
    ["odmr-sim", "--noise-sigma", "-0.01", "--ensemble"],
    ["seq-sim", "--kind", "hahn", "--noise-sigma", "-1", "--points", "11"],
    ["seq-sim", "--kind", "rabi", "--noise-sigma", "inf", "--points", "11"],
])
def test_bad_noise_sigma_exits_1(argv):
    result = run_cli(argv)
    assert result.returncode == 1
    assert "sigma" in result.stderr
    assert "# nvkit v1" not in result.stdout


@pytest.mark.parametrize("d_ref", ["nan", "inf"])
def test_nonfinite_d_reference_exits_1(data_dir, d_ref):
    result = run_cli(["odmr-fit", "--in", str(data_dir / "spec.txt"), "--n-dips", "2",
                      "--d-ref", d_ref])
    assert result.returncode == 1
    assert "d_reference must be finite" in result.stderr
    assert "# nvkit v1" not in result.stdout


def test_negative_seed_exits_1_only_with_noise():
    result = run_cli(["seq-sim", "--kind", "fid", "--noise-sigma", "0.01", "--seed", "-1"])
    assert result.returncode == 1
    assert "seed must be a nonnegative integer" in result.stderr
    assert "# nvkit v1" not in result.stdout
    # without noise the seed draws nothing and is only echoed in the record
    result = run_cli(["seq-sim", "--kind", "fid", "--seed", "-1"])
    assert result.returncode == 0
    assert "seed = -1" in result.stdout


@pytest.mark.parametrize("count", ["0", "-1"])
def test_freq_extract_below_one_component_exits_1(data_dir, count):
    result = run_cli(["freq-extract", "--in", str(data_dir / "fid.txt"),
                      "--max-components", count])
    assert result.returncode == 1
    assert "max_components must be at least 1" in result.stderr
    assert "# nvkit v1" not in result.stdout


def test_nonfinite_larmor_frequency_exits_1():
    result = run_cli(["seq-sim", "--kind", "hahn", "--larmor-khz", "nan", "--points", "11"])
    assert result.returncode == 1
    assert "larmor_freq must be finite" in result.stderr
    assert "# nvkit v1" not in result.stdout
