"""Command-line driver.

Every analysis operation is exposed as a subcommand. Results are printed to
standard output as a self-describing record: a `# nvkit v1 <subcommand>`
header followed by `key = value` lines in a fixed order. With a fixed
--seed the output is byte-identical across runs.

Each subcommand takes only the flags it reads. The two simulators, odmr-sim
and seq-sim, also take --noise-sigma and --seed for Gaussian noise, --out
for a data file and --plot-out for a two-column numeric file to plot.

Exit codes: 0 success, 1 computation or file error, 2 usage error.

A config file (--config or the NVKIT_CONFIG environment variable) supplies
defaults per subcommand. Grammar: `[subcommand]` section headers, then
`key = value` lines (keys match the long flag names, dashes or underscores);
`#` starts a comment. Unknown sections or keys are rejected, and so is an
on/off value other than 1/true/yes or 0/false/no (any case). The config's
values become the subcommand parser's defaults, so a flag on the command
line wins in every form argparse accepts (`--flag value`, `--flag=value` or
an unambiguous abbreviation).

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
from .tables import MIN_POINTS, require

DEFAULT_PSF = (0.45, 0.45, 2.0)
# the values of dynamics.DecayModel, listed here so that building the parser
# imports no science module
DECAY_MODELS = ("stretched", "single_exp", "stretched_osc")


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
        name, *extra = token.strip().split(":")
        name = name.lower()
        if len(extra) > 2:
            raise UsageError(f"--nuclei: at most a_parallel and a_perp may follow "
                             f"the species, got {token!r}")
        try:
            extra = [float(p) for p in extra]
        except ValueError:
            raise UsageError(f"--nuclei: expected numeric couplings (MHz), "
                             f"got {token!r}") from None
        factory = {"n14": spin_model.HyperfineCoupling.nitrogen14,
                   "c13": spin_model.HyperfineCoupling.carbon13}.get(name)
        if factory is None:
            raise UsageError(f"--nuclei: unknown species {name!r}")
        nuclei.append(factory(*extra))
    return tuple(nuclei)


def _spin_inputs(args):
    from . import spin_model
    nuclei = _parse_nuclei(args.nuclei)
    system = spin_model.SpinSystem(d_zfs=args.d, nuclei=nuclei)
    env = spin_model.FieldEnvironment(
        b_lab=_floats(args.b, 3, "--b"),
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


def _write_outputs(args, record, save, data, columns):
    """Write ``data`` to --out with ``save`` and ``columns`` to --plot-out,
    naming each written file in ``record``; return the record."""
    if args.out:
        save(args.out, data)
        record["out"] = args.out
    if args.plot_out:
        write_plot(args.plot_out, columns)
        record["plot_out"] = args.plot_out
    return record


def _points(args) -> int:
    """``--points``; a negative count, or one below ``MIN_POINTS``, raises naming the flag."""
    require(ValueError, "--points", args.points, "finite and nonnegative")
    if args.points < MIN_POINTS:
        raise ValueError(f"--points must be at least {MIN_POINTS}, got {args.points}")
    return args.points


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an ordered record dict)

def cmd_odmr_sim(args):
    from . import odmr, spin_model
    system, env = _spin_inputs(args)
    grid = np.linspace(args.fmin, args.fmax, _points(args))
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
    return _write_outputs(args, record, odmr.save_spectrum, spectrum,
                          (spectrum.freqs, spectrum.signal))


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
        "residual_norm": result.report.residual_norm,
        "iterations": result.report.iterations,
        "converged": result.report.converged,
    }
    return record


def cmd_seq_sim(args):
    from . import dynamics, spin_model
    system, env = _spin_inputs(args)
    coh = _coherence(args)
    times = np.linspace(args.tmin, args.tmax, _points(args))
    spec = _noise_spec(args)
    if args.kind == "rabi":
        drive = args.drive_freq
        if drive is None:
            lines = spin_model.transition_lines(system, env, merge_tol=0.01)
            drive = lines[0][0] if lines else system.d_zfs
        curve = dynamics.simulate_rabi(system, env, coh, drive,
                                       args.rabi_freq, times, noise=spec)
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
    return _write_outputs(args, record, dynamics.save_curve, curve,
                          (curve.times, curve.signal))


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
        "converged": fit.report.converged,
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
        "residual_norm": fit.report.residual_norm,
        "converged": fit.report.converged,
    }


def cmd_sat_fit(args):
    from . import photon_stats
    powers, counts = photon_stats.load_saturation(args.infile)
    fit = photon_stats.fit_saturation(powers, counts)
    return {
        "c_sat_per_s": fit.c_sat,
        "p_sat_mw": fit.p_sat,
        "k_linear_per_s_per_mw": fit.k_linear,
        "converged": fit.report.converged,
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
    if args.power_mw is not None or args.psat_mw is not None:
        for flag, value in (("--power-mw", args.power_mw), ("--psat-mw", args.psat_mw)):
            if value is None:
                raise UsageError(f"--power-mw and --psat-mw go together; {flag} is missing")
            require(ValueError, flag, value, "finite and positive")
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
    index = _floats(args.index, plmap.ndim - 1, "--index")
    fit = confocal.fit_gaussian_slice(plmap, axis, index)
    return {
        "axis": args.axis,
        "amplitude": fit.amplitude,
        "center_um": fit.center,
        "fwhm_um": fit.fwhm,
        "baseline": fit.baseline,
        "converged": fit.report.converged,
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


def _add_output_flags(p, out_help):
    """Noise and output flags of the two simulators."""
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--plot-out", default=None,
                   help="write a two-column x/y file for plotting")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="nvkit",
        description="NV-center spin simulation and analysis toolkit")
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    table: dict[str, tuple] = {}  # name -> (parser, handler, dests of its required flags)

    def add(name, summary, handler, required=()):
        table[name] = (subs.add_parser(name, help=summary), handler, required)
        return table[name][0]

    p = add("odmr-sim", "synthesize a CW or pulsed ODMR spectrum", cmd_odmr_sim)
    _add_spin_flags(p)
    p.add_argument("--mode", choices=("cw", "pulsed"), default="cw")
    p.add_argument("--fmin", type=float, default=2820.0, help="grid start (MHz)")
    p.add_argument("--fmax", type=float, default=2920.0, help="grid end (MHz)")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--contrast", type=float, default=0.1)
    p.add_argument("--ensemble", action="store_true",
                   help="average the four NV orientations")
    _add_output_flags(p, "write spectrum file")

    p = add("odmr-fit", "fit Lorentzian dips to a spectrum file", cmd_odmr_fit, ("infile",))
    p.add_argument("--in", dest="infile", default=None, help="spectrum file")
    p.add_argument("--n-dips", type=int, default=2)
    p.add_argument("--d-ref", type=float, default=D_ZFS_MHZ,
                   help="reference zero-field splitting (MHz)")

    p = add("seq-sim", "simulate a pulse-sequence sweep", cmd_seq_sim, ("kind",))
    p.add_argument("--kind", choices=("rabi", "fid", "hahn", "t1"), default=None)
    _add_spin_flags(p)
    _add_coherence_flags(p)
    p.add_argument("--tmin", type=float, default=0.0, help="first time (us)")
    p.add_argument("--tmax", type=float, default=10.0, help="last time (us)")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--drive-freq", type=float, default=None,
                   help="rabi: drive frequency (MHz); default the lowest transition line")
    p.add_argument("--rabi-freq", type=float, default=5.7,
                   help="rabi: drive strength (MHz)")
    p.add_argument("--detuning", type=float, default=0.0,
                   help="fid: drive detuning (MHz)")
    p.add_argument("--larmor-khz", type=float, default=50.0,
                   help="hahn: bath Larmor frequency (kHz)")
    _add_output_flags(p, "write decay-curve file")

    p = add("decay-fit", "fit a decay envelope to a curve file", cmd_decay_fit, ("infile",))
    p.add_argument("--in", dest="infile", default=None, help="decay-curve file")
    p.add_argument("--model",
                   choices=DECAY_MODELS,
                   default="stretched")

    p = add("freq-extract", "extract oscillation frequencies", cmd_freq_extract, ("infile",))
    p.add_argument("--in", dest="infile", default=None, help="decay-curve file")
    p.add_argument("--max-components", type=int, default=3)

    p = add("g2-fit", "fit the photon-correlation model", cmd_g2_fit, ("infile",))
    p.add_argument("--in", dest="infile", default=None, help="g2 curve file")

    p = add("sat-fit", "fit the PL saturation curve", cmd_sat_fit, ("infile",))
    p.add_argument("--in", dest="infile", default=None,
                   help="file with power_mW counts_per_s rows")

    p = add("density", "estimate NV density from PL rates", cmd_density, ("c_ens", "c_single"))
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

    p = add("enhance", "PL enhancement ratio of two regions", cmd_enhance,
            ("region_a", "region_b"))
    p.add_argument("--region-a", type=float, default=None, help="rate A (counts/s)")
    p.add_argument("--region-b", type=float, default=None, help="rate B (counts/s)")

    p = add("sensitivity", "shot-noise-limited field sensitivity", cmd_sensitivity,
            ("count_rate", "contrast", "t2star_us", "t2_us"))
    p.add_argument("--count-rate", type=float, default=None, help="PL rate (counts/s)")
    p.add_argument("--contrast", type=float, default=None, help="ODMR contrast (0-1)")
    p.add_argument("--readout-us", type=float, default=0.5, help="readout window (us)")
    p.add_argument("--t2star-us", type=float, default=None, help="T2* (us)")
    p.add_argument("--t2-us", type=float, default=None, help="T2 (us)")

    p = add("map-slice", "Gaussian fit of a PL-map slice", cmd_map_slice,
            ("infile", "axis", "index"))
    p.add_argument("--in", dest="infile", default=None, help="plmap file")
    p.add_argument("--axis", default=None, help="slice axis: x, y or z")
    p.add_argument("--index", default=None,
                   help="fixed indices of the other axes, comma-separated")

    for p, _, _ in table.values():
        p.add_argument("--config", default=None,
                       help="config file (default: $NVKIT_CONFIG)")
    return parser, table


# ---------------------------------------------------------------------------
# config file

def load_config(path: str, commands) -> dict:
    """Parse the config grammar with line diagnostics; a section must name one of ``commands``."""
    sections: dict[str, dict] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in commands:
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


# config values of an on/off flag, in any case
ON_OFF = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def apply_config(parser, command: str, sections: dict, path: str) -> None:
    """Make the config section's values the defaults of ``parser``, the
    subcommand's parser; reject unknown keys (``in`` for --in) and bad values."""
    actions = {opt[2:].replace("-", "_"): a for a in parser._actions
               for opt in a.option_strings if opt.startswith("--")}
    defaults = {}
    for key, (value, lineno) in sections.get(command, {}).items():
        if key not in actions or key in ("help", "config"):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for [{command}]")
        action = actions[key]
        try:
            if isinstance(action, argparse._StoreTrueAction):
                converted = ON_OFF[value.lower()]
            elif action.type is not None:
                converted = action.type(value)
            else:
                converted = value
        except (KeyError, ValueError):
            raise UsageError(
                f"{path}:{lineno}: bad value {value!r} for key {key!r}") from None
        if action.choices and converted not in action.choices:
            raise UsageError(
                f"{path}:{lineno}: value {value!r} not one of "
                f"{','.join(map(str, action.choices))}")
        defaults[action.dest] = converted
    parser.set_defaults(**defaults)


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
    try:
        config_path = args.config or os.environ.get("NVKIT_CONFIG")
        if config_path:
            apply_config(sub_parser, args.command, load_config(config_path, table), config_path)
            args = parser.parse_args(argv)  # every flag given wins over the config
        for action in sub_parser._actions:
            if action.dest in required and getattr(args, action.dest) is None:
                raise UsageError(f"missing required flag {action.option_strings[0]}")
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
