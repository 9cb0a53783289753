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


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("NVKIT_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "nvkit.cli", *args],
                          capture_output=True, text=True, env=env)


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


def test_density_warns_above_linearity_threshold():
    result = run_cli(["density", "--c-ens", "9.28e6", "--c-single", "7.7e3",
                      "--power-mw", "0.3", "--psat-mw", "1.10"])
    assert result.returncode == 0
    assert "warning" in result.stderr
    assert "ppb" in result.stdout


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
    for name in ("g2-fit", "freq-extract", "odmr-fit", "sat-fit"):
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


def test_nonfinite_larmor_frequency_exits_1():
    result = run_cli(["seq-sim", "--kind", "hahn", "--larmor-khz", "nan", "--points", "11"])
    assert result.returncode == 1
    assert "larmor_freq must be finite" in result.stderr
    assert "# nvkit v1" not in result.stdout
