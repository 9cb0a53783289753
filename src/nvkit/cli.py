"""Command-line driver.

Every analysis operation is exposed as a subcommand. Results are printed to
standard output as a self-describing record: a `# nvkit v1 <subcommand>`
header followed by `key = value` lines in a fixed order. With a fixed
--seed the output is byte-identical across runs. Optional --plot-out writes
two-column numeric files for plotting.

Exit codes: 0 success, 1 computation or file error, 2 usage error.

A config file (--config or the NVKIT_CONFIG environment variable) supplies
defaults per subcommand. Grammar: `[subcommand]` section headers, then
`key = value` lines (keys match the long flag names, dashes or underscores);
`#` starts a comment. Unknown sections or keys are rejected. Command-line
flags override config values.

Each subcommand imports the nvkit modules it runs inside its handler, so a
process pays for no module it does not use. confocal is the one exception
(see its import below).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# confocal is imported here, not in its handlers: bench/tracing.py wraps only
# the nvkit modules already imported when it installs, and the ODMR and
# dynamics workloads import nvkit.cli but never confocal. Move it back into
# the handlers once the tracer imports what it wraps (see ROADMAP.md).
from . import confocal
from .constants import D_ZFS_MHZ

DEFAULT_PSF = (0.45, 0.45, 2.0)
# the values of dynamics.DecayModel, listed here so that building the parser
# imports no science module
DECAY_MODELS = ("stretched", "single_exp", "stretched_osc")

SUBCOMMANDS = (
    "odmr-sim", "odmr-fit", "seq-sim", "decay-fit", "freq-extract",
    "g2-fit", "sat-fit", "density", "enhance", "sensitivity", "map-slice",
)


class UsageError(Exception):
    """Bad flag/config usage; maps to exit code 2."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def emit(name: str, record: dict, stream=None) -> None:
    stream = stream or sys.stdout
    stream.write(f"# nvkit v1 {name}\n")
    for key, value in record.items():
        stream.write(f"{key} = {_fmt(value)}\n")


def write_plot(path: str, columns) -> None:
    """Two-column numeric file, one `x y` pair per line."""
    xs, ys = columns
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{_fmt(float(x))} {_fmt(float(y))}\n")


def _floats(text: str, n: int | None = None, flag: str = "") -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if n is not None and len(values) != n:
        raise UsageError(f"{flag}: expected {n} comma-separated values, got {len(values)}")
    return values


def _parse_nuclei(text: str):
    """Nuclear spin spec: comma-separated `n14`, `c13`, optionally with
    `:a_parallel[:a_perp]` overrides, e.g. `n14,c13:6.43`."""
    from . import spin_model
    if not text or text == "none":
        return ()
    nuclei = []
    for token in text.split(","):
        parts = token.strip().split(":")
        name = parts[0].lower()
        extra = [float(p) for p in parts[1:]]
        if name == "n14":
            base = spin_model.HyperfineCoupling.nitrogen14()
        elif name == "c13":
            base = spin_model.HyperfineCoupling.carbon13()
        else:
            raise UsageError(f"--nuclei: unknown species {name!r}")
        a_par = extra[0] if len(extra) > 0 else base.a_parallel
        a_perp = extra[1] if len(extra) > 1 else base.a_perp
        nuclei.append(spin_model.HyperfineCoupling(base.species, a_par, a_perp))
    return tuple(nuclei)


def _spin_inputs(args):
    from . import spin_model
    nuclei = _parse_nuclei(args.nuclei)
    system = spin_model.SpinSystem(d_zfs=args.d, nuclei=nuclei)
    env = spin_model.FieldEnvironment(
        b_lab=np.array(_floats(args.b, 3, "--b")),
        shift_xi=args.xi,
        splitting_delta=args.delta,
    )
    return system, env


def _coherence(args):
    from . import dynamics
    return dynamics.CoherenceParams(t1=args.t1_ms, t2=args.t2_us,
                                    t2_star=args.t2star_us,
                                    t_rho_rabi=args.trho_us)


def _noise_spec(args):
    """Gaussian noise of --noise-sigma, or None when it is 0; a bad sigma raises."""
    from . import noise
    if args.noise_sigma == 0:
        return None
    return noise.NoiseSpec("gaussian", sigma=args.noise_sigma, seed=args.seed)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an ordered record dict)

def cmd_odmr_sim(args):
    from . import odmr, spin_model
    system, env = _spin_inputs(args)
    grid = np.linspace(args.fmin, args.fmax, args.points)
    noise = _noise_spec(args)
    unmerged = odmr.orientation_lines(system, env, args.ensemble)
    spectrum = odmr.synthesize_spectrum(
        system, env, args.mode, grid, contrast=args.contrast,
        ensemble=args.ensemble, noise=noise, unmerged=unmerged)
    lines = sorted(line for freqs, strengths in unmerged
                   for line in spin_model.merge_lines(freqs, strengths, merge_tol=0.01))
    record = {
        "mode": args.mode,
        "points": args.points,
        "n_lines": len(lines),
        "line_centers_mhz": [f for f, _ in lines],
        "seed": args.seed,
    }
    if args.out:
        odmr.save_spectrum(args.out, spectrum)
        record["out"] = args.out
    if args.plot_out:
        write_plot(args.plot_out, (spectrum.freqs, spectrum.signal))
        record["plot_out"] = args.plot_out
    return record


def cmd_odmr_fit(args):
    from . import odmr
    spectrum = odmr.load_spectrum(args.infile)
    result = odmr.fit_spectrum(spectrum, args.n_dips, d_reference=args.d_ref)
    record = {
        "n_dips": args.n_dips,
        "baseline": result.model.baseline,
        "centers_mhz": list(result.model.centers),
        "contrasts": list(result.model.contrasts),
        "fwhms_mhz": list(result.model.fwhms),
        "d_ref_mhz": result.d_fit,
        "xi_mhz": result.xi_fit,
        "delta_mhz": result.delta_fit,
        "delta_half_separation_mhz": result.delta_half_separation,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return record


def cmd_seq_sim(args):
    from . import dynamics, noise, spin_model
    system, env = _spin_inputs(args)
    coh = _coherence(args)
    times = np.linspace(args.tmin, args.tmax, args.points)
    spec = _noise_spec(args)
    if args.kind == "rabi":
        if args.drive_freq is None:
            lines = spin_model.transition_lines(system, env, merge_tol=0.01)
            drive = lines[0][0] if lines else system.d_zfs
        else:
            drive = args.drive_freq
        curve = dynamics.simulate_rabi(system, env, coh, drive,
                                       args.rabi_freq, times)
        if spec is not None:
            noisy, sigma = noise.apply_noise(curve.signal, spec)
            curve = dynamics.DecayCurve(curve.times, noisy, sigma, kind="rabi")
    elif args.kind == "fid":
        curve = dynamics.simulate_fid(system, env, coh, args.detuning, times,
                                      noise=spec)
    elif args.kind == "hahn":
        curve = dynamics.simulate_hahn(system, env, coh,
                                       args.larmor_khz * 1e-3, times, noise=spec)
    else:
        curve = dynamics.simulate_relaxometry(coh, times, noise=spec)
    record = {
        "kind": args.kind,
        "points": args.points,
        "t_first_us": float(curve.times[0]),
        "t_last_us": float(curve.times[-1]),
        "signal_first": float(curve.signal[0]),
        "signal_last": float(curve.signal[-1]),
        "seed": args.seed,
    }
    if args.out:
        dynamics.save_curve(args.out, curve)
        record["out"] = args.out
    if args.plot_out:
        write_plot(args.plot_out, (curve.times, curve.signal))
        record["plot_out"] = args.plot_out
    return record


def cmd_decay_fit(args):
    from . import dynamics
    curve = dynamics.load_curve(args.infile)
    model = dynamics.DecayModel(args.model)
    fit = dynamics.fit_decay_envelope(curve, model)
    record = {
        "model": args.model,
        "t_coh_us": fit.t_coh,
        "n_stretch": fit.n_stretch,
        "amplitude": fit.amplitude,
        "baseline": fit.baseline,
        "converged": fit.converged,
    }
    if fit.frequencies:
        record["frequencies_mhz"] = list(fit.frequencies)
    return record


def cmd_freq_extract(args):
    from . import dynamics
    curve = dynamics.load_curve(args.infile)
    comps = dynamics.extract_frequencies(curve, args.max_components)
    record = {"n_components": len(comps)}
    for k, (freq, amp) in enumerate(comps):
        record[f"freq_{k}_mhz"] = freq
        record[f"amp_{k}"] = amp
    return record


def cmd_g2_fit(args):
    from . import photon_stats
    curve = photon_stats.load_g2(args.infile)
    fit = photon_stats.fit_g2(curve)
    return {
        "tau0_ns": fit.tau0, "c1": fit.c1, "tau1_ns": fit.tau1,
        "c2": fit.c2, "tau2_ns": fit.tau2, "c3": fit.c3, "tau3_ns": fit.tau3,
        "g2_at_tau0": float(photon_stats.g2_model(fit.tau0, fit)),
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
    }


def cmd_sat_fit(args):
    from . import photon_stats
    powers, counts = photon_stats.load_saturation(args.infile)
    fit = photon_stats.fit_saturation(powers, counts)
    return {
        "c_sat_per_s": fit.c_sat,
        "p_sat_mw": fit.p_sat,
        "k_linear_per_s_per_mw": fit.k_linear,
        "converged": fit.converged,
    }


def cmd_density(args):
    if args.psf is None:
        psf_values = DEFAULT_PSF
        psf_source = "default-assumed"
    else:
        psf_values = _floats(args.psf, 3, "--psf")
        psf_source = "user"
    psf = confocal.PsfModel(*psf_values)
    method = confocal.DensityMethod(args.method)
    estimate = confocal.estimate_density(args.c_ens, args.c_single, psf, method)
    if args.power_mw is not None and args.psat_mw is not None:
        deviation = args.power_mw / (args.power_mw + args.psat_mw)
        if deviation > 0.15:
            sys.stderr.write(
                f"warning: at {args.power_mw:g} mW the saturating PL response "
                f"lies {100 * deviation:.0f}% below the linear extrapolation "
                f"(saturation power {args.psat_mw:g} mW); the density estimate "
                "assumes linearity\n")
    return {
        "method": method.value,
        "psf_fwhm_um": list(psf_values),
        "psf_source": psf_source,
        "number_density_per_um3": estimate.number_density,
        "ppb": estimate.ppb,
        "gaussian_uniform_ratio": confocal.gaussian_uniform_ratio(),
    }


def cmd_enhance(args):
    return {"ratio": confocal.enhancement_ratio(args.region_a, args.region_b)}


def cmd_sensitivity(args):
    from . import magnetometry
    params = magnetometry.SensorParams(
        count_rate=args.count_rate, contrast=args.contrast,
        readout_window=args.readout_us, t2_star=args.t2star_us, t2=args.t2_us)
    report = magnetometry.sensitivity(params)
    return {
        "eta_dc_nt_per_sqrt_hz": report.eta_dc,
        "eta_ac_nt_per_sqrt_hz": report.eta_ac,
        "hbar_j_s": report.hbar,
        "g_factor": report.g_factor,
        "mu_b_j_per_t": report.mu_b,
    }


def cmd_map_slice(args):
    plmap = confocal.load_map(args.infile)
    axis_names = ["x", "y", "z"][:plmap.ndim]
    if args.axis not in axis_names:
        raise UsageError(f"--axis: expected one of {','.join(axis_names)}, got {args.axis!r}")
    axis = axis_names.index(args.axis)
    index = tuple(int(v) for v in _floats(args.index, plmap.ndim - 1, "--index"))
    fit = confocal.fit_gaussian_slice(plmap, axis, index)
    return {
        "axis": args.axis,
        "amplitude": fit.amplitude,
        "center_um": fit.center,
        "fwhm_um": fit.fwhm,
        "baseline": fit.baseline,
        "converged": fit.converged,
    }


# ---------------------------------------------------------------------------
# parser construction

def _add_spin_flags(p):
    p.add_argument("--d", type=float, default=D_ZFS_MHZ,
                   help="zero-field splitting (MHz)")
    p.add_argument("--xi", type=float, default=0.0, help="resonance shift (MHz)")
    p.add_argument("--delta", type=float, default=0.0,
                   help="resonance splitting parameter (MHz)")
    p.add_argument("--b", default="0,0,0", help="lab magnetic field bx,by,bz (mT)")
    p.add_argument("--nuclei", default="",
                   help="nuclear spins, e.g. 'n14' or 'n14,c13:6.43'")


def _add_coherence_flags(p):
    p.add_argument("--t1-ms", type=float, default=4.5, help="T1 (ms)")
    p.add_argument("--t2-us", type=float, default=494.0, help="T2 (us)")
    p.add_argument("--t2star-us", type=float, default=1.76, help="T2* (us)")
    p.add_argument("--trho-us", type=float, default=4.0,
                   help="Rabi dephasing time (us)")


def _add_common(p):
    p.add_argument("--config", default=None,
                   help="config file (default: $NVKIT_CONFIG)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--plot-out", default=None,
                   help="write a two-column x/y file for plotting")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="nvkit",
        description="NV-center spin simulation and analysis toolkit")
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    table: dict[str, tuple] = {}

    p = subs.add_parser("odmr-sim", help="synthesize a CW or pulsed ODMR spectrum")
    _add_spin_flags(p)
    p.add_argument("--mode", choices=("cw", "pulsed"), default="cw")
    p.add_argument("--fmin", type=float, default=2820.0, help="grid start (MHz)")
    p.add_argument("--fmax", type=float, default=2920.0, help="grid end (MHz)")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--contrast", type=float, default=0.1)
    p.add_argument("--ensemble", action="store_true",
                   help="average the four NV orientations")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out", default=None, help="write spectrum file")
    _add_common(p)
    table["odmr-sim"] = (p, cmd_odmr_sim, ())

    p = subs.add_parser("odmr-fit", help="fit Lorentzian dips to a spectrum file")
    p.add_argument("--in", dest="infile", default=None, help="spectrum file")
    p.add_argument("--n-dips", type=int, default=2)
    p.add_argument("--d-ref", type=float, default=D_ZFS_MHZ,
                   help="reference zero-field splitting (MHz)")
    _add_common(p)
    table["odmr-fit"] = (p, cmd_odmr_fit, ("infile",))

    p = subs.add_parser("seq-sim", help="simulate a pulse-sequence sweep")
    p.add_argument("--kind", choices=("rabi", "fid", "hahn", "t1"), default=None)
    _add_spin_flags(p)
    _add_coherence_flags(p)
    p.add_argument("--tmin", type=float, default=0.0, help="first time (us)")
    p.add_argument("--tmax", type=float, default=10.0, help="last time (us)")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--drive-freq", type=float, default=None,
                   help="rabi: drive frequency (MHz); default lowest line")
    p.add_argument("--rabi-freq", type=float, default=5.7,
                   help="rabi: drive strength (MHz)")
    p.add_argument("--detuning", type=float, default=0.0,
                   help="fid: drive detuning (MHz)")
    p.add_argument("--larmor-khz", type=float, default=50.0,
                   help="hahn: bath Larmor frequency (kHz)")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out", default=None, help="write decay-curve file")
    _add_common(p)
    table["seq-sim"] = (p, cmd_seq_sim, ("kind",))

    p = subs.add_parser("decay-fit", help="fit a decay envelope to a curve file")
    p.add_argument("--in", dest="infile", default=None, help="decay-curve file")
    p.add_argument("--model",
                   choices=DECAY_MODELS,
                   default="stretched")
    _add_common(p)
    table["decay-fit"] = (p, cmd_decay_fit, ("infile",))

    p = subs.add_parser("freq-extract", help="extract oscillation frequencies")
    p.add_argument("--in", dest="infile", default=None, help="decay-curve file")
    p.add_argument("--max-components", type=int, default=3)
    _add_common(p)
    table["freq-extract"] = (p, cmd_freq_extract, ("infile",))

    p = subs.add_parser("g2-fit", help="fit the photon-correlation model")
    p.add_argument("--in", dest="infile", default=None, help="g2 curve file")
    _add_common(p)
    table["g2-fit"] = (p, cmd_g2_fit, ("infile",))

    p = subs.add_parser("sat-fit", help="fit the PL saturation curve")
    p.add_argument("--in", dest="infile", default=None,
                   help="file with power_mW counts_per_s rows")
    _add_common(p)
    table["sat-fit"] = (p, cmd_sat_fit, ("infile",))

    p = subs.add_parser("density", help="estimate NV density from PL rates")
    p.add_argument("--c-ens", type=float, default=None,
                   help="ensemble PL rate (counts/s)")
    p.add_argument("--c-single", type=float, default=None,
                   help="single-NV PL rate (counts/s)")
    p.add_argument("--psf", default=None, help="PSF FWHMs wx,wy,wz (um)")
    p.add_argument("--method", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--power-mw", type=float, default=None,
                   help="excitation power, enables the linearity warning")
    p.add_argument("--psat-mw", type=float, default=None,
                   help="saturation power, enables the linearity warning")
    _add_common(p)
    table["density"] = (p, cmd_density, ("c_ens", "c_single"))

    p = subs.add_parser("enhance", help="PL enhancement ratio of two regions")
    p.add_argument("--region-a", type=float, default=None, help="rate A (counts/s)")
    p.add_argument("--region-b", type=float, default=None, help="rate B (counts/s)")
    _add_common(p)
    table["enhance"] = (p, cmd_enhance, ("region_a", "region_b"))

    p = subs.add_parser("sensitivity", help="shot-noise-limited field sensitivity")
    p.add_argument("--count-rate", type=float, default=None, help="PL rate (counts/s)")
    p.add_argument("--contrast", type=float, default=None, help="ODMR contrast (0-1)")
    p.add_argument("--readout-us", type=float, default=0.5, help="readout window (us)")
    p.add_argument("--t2star-us", type=float, default=None, help="T2* (us)")
    p.add_argument("--t2-us", type=float, default=None, help="T2 (us)")
    _add_common(p)
    table["sensitivity"] = (p, cmd_sensitivity,
                            ("count_rate", "contrast", "t2star_us", "t2_us"))

    p = subs.add_parser("map-slice", help="Gaussian fit of a PL-map slice")
    p.add_argument("--in", dest="infile", default=None, help="plmap file")
    p.add_argument("--axis", default=None, help="slice axis: x, y or z")
    p.add_argument("--index", default=None,
                   help="fixed indices of the other axes, comma-separated")
    _add_common(p)
    table["map-slice"] = (p, cmd_map_slice, ("infile", "axis", "index"))

    return parser, table


# ---------------------------------------------------------------------------
# config file

def load_config(path: str) -> dict:
    """Parse the sectioned key=value config grammar with line diagnostics."""
    sections: dict[str, dict] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in SUBCOMMANDS:
                    raise UsageError(f"{path}:{lineno}: unknown section [{name}]")
                current = sections.setdefault(name, {})
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            if current is None:
                raise UsageError(f"{path}:{lineno}: key outside of any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            current[key.replace("-", "_")] = (value, lineno)
    return sections


def apply_config(args, parser, command: str, sections: dict, path: str) -> None:
    """Fill unset args from the config section; reject unknown keys."""
    section = sections.get(command, {})
    actions = {a.dest: a for a in parser._actions}
    supplied = getattr(args, "_explicit", set())
    for key, (value, lineno) in section.items():
        if key not in actions or key in ("help", "config"):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for [{command}]")
        if key in supplied:
            continue  # flags override config
        action = actions[key]
        try:
            if isinstance(action, argparse._StoreTrueAction):
                converted = value.lower() in ("1", "true", "yes")
            elif action.type is not None:
                converted = action.type(value)
            else:
                converted = value
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: bad value {value!r} for key {key!r}") from None
        if action.choices and converted not in action.choices:
            raise UsageError(
                f"{path}:{lineno}: value {value!r} not one of "
                f"{','.join(map(str, action.choices))}")
        setattr(args, key, converted)


def _explicit_dests(argv, parser) -> set:
    """Dests the user set explicitly on the command line."""
    by_flag = {}
    for action in parser._actions:
        for opt in action.option_strings:
            by_flag[opt] = action.dest
    out = set()
    for token in argv:
        flag = token.split("=", 1)[0]
        if flag in by_flag:
            out.add(by_flag[flag])
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help()
        return 2

    sub_parser, handler, required = table[args.command]
    args._explicit = _explicit_dests(argv, sub_parser)

    try:
        config_path = args.config or os.environ.get("NVKIT_CONFIG")
        if config_path:
            sections = load_config(config_path)
            apply_config(args, sub_parser, args.command, sections, config_path)
        for dest in required:
            if getattr(args, dest) is None:
                flag = "--" + dest.replace("_", "-")
                if dest == "infile":
                    flag = "--in"
                raise UsageError(f"missing required flag {flag}")
        record = handler(args)
    except UsageError as exc:
        sys.stderr.write(f"nvkit {args.command}: usage error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"nvkit {args.command}: file not found: {exc.filename}\n")
        return 1
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"nvkit {args.command}: error: {exc}\n")
        return 1

    emit(args.command, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
