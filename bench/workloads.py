"""The three workloads: seeded inputs, one timed item, and output checks.

A workload builds one pass of items from its seed during set-up; the timed
loop runs whole passes. `run` is the only code inside the timed region.
`augment` computes the reference outputs the checks need (untimed), and
`check` is a pure function of items and outputs, so `self_test` can feed
it corrupted copies.

Calls go through nvkit's modules at call time (`odmr.fit_spectrum`, not a
name bound at import), so the traced mode's wrappers see them.
"""

import contextlib
import copy
import io
import os
import subprocess
import sys

import numpy as np

import checks
import model
from nvkit import cli, dynamics, noise, odmr, photon_stats, spin_model

CW_GRID = np.linspace(2835.0, 2905.0, 701)
ODMR_NOISE = 0.005
# pulsed spectra are averaged longer: at 0.005 the fitted 14N spacing
# scatters by 0.02 MHz and crosses the 0.05 MHz check by chance
PULSED_NOISE = 0.001
READOUT_CONTRAST = 0.2
COHERENCE = dict(t1=4.5, t2=494.0, t2_star=1.76, t_rho_rabi=4.0)


def _gauss(sigma, seed):
    return noise.NoiseSpec("gaussian", sigma=sigma, seed=seed)


def _seed(rng):
    return int(rng.integers(2 ** 31))


class Workload:
    """One pass of items, repeated `passes` times per run."""

    name = ""

    def __init__(self, seed, seconds, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.items = []

    def setup(self):
        """Write input files; the items themselves are built in __init__."""

    def shuffle(self):
        """Put the items in seeded order.

        The warm-up takes the first item of each kind before that, so that
        what set-up costs does not depend on the seed.
        """
        first = {}
        for item in self.items:
            first.setdefault(item["kind"], item)
        self.warmup = list(first.values())
        self.items = [self.items[i] for i in self.rng.permutation(len(self.items))]

    def augment(self, items, outputs):
        """Reference results for the checks, computed untimed; returns extras."""
        return {}

    def self_test(self, items, outputs, extra):
        """Labels of corruptions that `check` failed to report."""
        missed = []
        for label, corrupt in self.corruptions(items, outputs):
            bad_outputs, bad_extra = copy.deepcopy((outputs, extra))
            corrupt(bad_outputs, bad_extra)
            if not self.check(items, bad_outputs, bad_extra):
                missed.append(f"{self.name}.{label}")
        return missed


# ---------------------------------------------------------------------------

class OdmrRoundtrip(Workload):
    """Synthesize a four-orientation ensemble spectrum, then fit it back.

    A pass holds 200 items in seeded order: 160 CW bare-spin spectra
    (2 dips) and 40 pulsed 14N spectra (3 dips). The CW share holds the
    median and the pulsed share, about twice as slow, holds the p90.
    """

    name = "odmr_roundtrip"
    BLOCK = ("cw",) * 8 + ("pulsed",) * 2
    BLOCKS = 20
    PASS_S = 1.8

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        bare = spin_model.SpinSystem()
        n14 = spin_model.SpinSystem(nuclei=(spin_model.HyperfineCoupling.nitrogen14(),))
        rng = self.rng
        self.passes = max(2, round(seconds / self.PASS_S))
        for _ in range(self.BLOCKS):
            for kind in self.BLOCK:
                xi = float(rng.uniform(-3.0, 3.0))
                if kind == "cw":
                    delta = float(rng.uniform(3.5, 5.0))
                    item = dict(system=bare, grid=CW_GRID, n_dips=2, mode="cw")
                else:
                    delta = 0.0
                    item = dict(system=n14, n_dips=3, mode="pulsed",
                                grid=np.linspace(model.D_MHZ + xi - 8.0,
                                                 model.D_MHZ + xi + 8.0, 801))
                item.update(kind=str(kind), xi=xi, delta=delta,
                            env=spin_model.FieldEnvironment(shift_xi=xi, splitting_delta=delta),
                            noise=_gauss(ODMR_NOISE if kind == "cw" else PULSED_NOISE,
                                         _seed(rng)))
                self.items.append(item)
        self.shuffle()

    def run(self, item):
        spec = odmr.synthesize_spectrum(item["system"], item["env"], item["mode"],
                                        item["grid"], ensemble=True, noise=item["noise"])
        fit = odmr.fit_spectrum(spec, item["n_dips"])
        m = fit.model
        return dict(signal=spec.signal, baseline=m.baseline,
                    centers=m.centers, contrasts=m.contrasts, fwhms=m.fwhms,
                    xi=fit.xi_fit, delta=fit.delta_fit)

    def augment(self, items, outputs):
        for item, out in zip(items, outputs):
            if item["kind"] == "cw":
                lines = spin_model.transition_lines(item["system"], item["env"])
                out["lines"] = [f for f, _ in lines]
        return {}

    def check(self, items, outputs, extra):
        msgs, err_xi, err_delta = [], [], []
        for k, (item, out) in enumerate(zip(items, outputs)):
            what = f"item {k} ({item['kind']})"
            if item["kind"] == "pulsed":
                msgs += checks.spacings(what, out["centers"], model.A_N14_MHZ, 0.05)
                continue
            xi, delta = item["xi"], item["delta"]
            msgs += checks.close(f"{what}: lines", out["lines"],
                                 model.zero_field_lines(xi, delta), abs_=1e-6)
            grid, sigma = item["grid"], ODMR_NOISE
            fitted = model.dips(grid, out["baseline"], out["centers"],
                                out["contrasts"], out["fwhms"])
            msgs += checks.chi2_not_worse(
                what, model.chi2(fitted, out["signal"], sigma),
                model.chi2(model.cw_ensemble_signal(grid, xi, delta), out["signal"], sigma))
            err_xi.append(out["xi"] - xi)
            err_delta.append(out["delta"] - delta)
        worst = max(np.sqrt(np.mean(np.square(err_xi))), np.sqrt(np.mean(np.square(err_delta))))
        return msgs + checks.at_most("batch rms error of xi and delta (MHz)", worst, 0.2)

    def corruptions(self, items, outputs):
        cw = next(k for k, it in enumerate(items) if it["kind"] == "cw")
        pulsed = next(k for k, it in enumerate(items) if it["kind"] == "pulsed")

        def lines(o, extra):
            o[cw]["lines"][0] += 1e-5

        def chi2(o, extra):
            o[cw]["centers"] = o[cw]["centers"] + 0.3

        def batch(o, extra):
            for out in o:
                out["xi"] += 0.25

        def spacing(o, extra):
            o[pulsed]["centers"] = o[pulsed]["centers"] * np.array([1.0, 1.0, 1.00003])
        return [("lines", lines), ("chi2", chi2), ("batch_rms", batch), ("spacing", spacing)]


# ---------------------------------------------------------------------------

class PulseDynamics(Workload):
    """Ramsey, Hahn-echo and XY8 sequences with decoherence, and Rabi sweeps.

    The cost of one item depends on its field in an irregular way, through
    the number of sweeps the eigensolver needs: on some fields it stops at
    its 100-sweep cap without converging, and fields that differ in the
    last digits can fall in different classes. So the seed draws each
    item's field from a fixed set on which every kind of the item runs
    the same number of Jacobi sweeps. Most kinds use FIELDS_MT, where
    every eigensolve converges; one kind, a dimension-18 Ramsey, uses
    CAPPED_FIELDS_MT, where four of its seven eigensolves stop at the cap,
    so that the benchmark keeps measuring that case. The seed also draws
    the delays, the Rabi sweep lengths and the order of the items. Each
    kind then has one cost, whatever the seed.

    Sorted by cost, the Hahn d9 items (with the Rabi d18 ones, as slow)
    span ranks 30-75 % of a pass, so the median is a Hahn d9 item; the
    XY8 d9 items span ranks 85-95 %, so the p90 is an XY8 d9 item.
    """

    name = "pulse_dynamics"
    # mT along the NV axis, typed as literals: a field 3e-11 mT away from
    # one of these can fall in another class
    FIELDS_MT = (3.8, 5.2, 5.3, 5.4, 5.5, 6.2, 6.3, 6.4, 6.5, 6.8,
                 6.9, 7.2, 7.5, 7.8, 7.9, 8.1, 8.8, 9.5, 9.6, 10.0)
    CAPPED_FIELDS_MT = (3.3, 3.6, 4.0, 4.1, 4.8, 6.0, 7.4, 7.6, 9.8)
    # (kind, dimension, fields, items per pass), cheapest first
    LAYOUT = (("rabi", 9, FIELDS_MT, 15), ("ramsey", 9, FIELDS_MT, 15),
              ("hahn", 9, FIELDS_MT, 40), ("rabi", 18, FIELDS_MT, 5),
              ("ramsey", 18, FIELDS_MT, 5), ("hahn", 18, FIELDS_MT, 5),
              ("xy8", 9, FIELDS_MT, 10), ("xy8", 18, FIELDS_MT, 3),
              ("ramsey", 18, CAPPED_FIELDS_MT, 2))
    RABI_MHZ = 8.0
    PASS_S = 1.4
    WEAK_RABI_T = np.linspace(0.0, 3.0, 241)

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        n14 = spin_model.HyperfineCoupling.nitrogen14()
        c13 = spin_model.HyperfineCoupling.carbon13()
        systems = {9: spin_model.SpinSystem(nuclei=(n14,)),
                   18: spin_model.SpinSystem(nuclei=(n14, c13))}
        self.coh = dynamics.CoherenceParams(**COHERENCE)
        rng = self.rng
        for kind, dim, fields, share in self.LAYOUT:
            label = f"{kind}_d{dim}" + ("_capped" if fields is self.CAPPED_FIELDS_MT else "")
            for _ in range(share):
                b = fields[int(rng.integers(len(fields)))]
                drive = model.D_MHZ - model.GAMMA_E_MHZ_PER_MT * b
                item = dict(kind=label, dim=dim, system=systems[dim],
                            env=spin_model.FieldEnvironment(b_lab=b * model.NV_AXIS))
                if kind == "rabi":
                    item.update(drive=drive, durations=np.linspace(
                        0.0, float(rng.uniform(1.0, 3.0)), 201))
                else:
                    item["seq"] = self._sequence(kind, drive, rng)
                self.items.append(item)
        self.shuffle()
        self.passes = max(2, round(seconds / self.PASS_S))
        self.rabi_field = float(rng.uniform(60.0, 90.0))

    def _sequence(self, kind, drive, rng):
        half_pi = 1.0 / (4.0 * self.RABI_MHZ)

        def pulse(duration, phase=0.0):
            return dynamics.MwPulse(drive, self.RABI_MHZ, phase, duration)
        if kind == "ramsey":
            body = [pulse(half_pi), dynamics.Wait(float(rng.uniform(0.2, 2.0))), pulse(half_pi)]
        elif kind == "hahn":
            tau = float(rng.uniform(0.5, 5.0))
            body = [pulse(half_pi), dynamics.Wait(tau), pulse(2 * half_pi),
                    dynamics.Wait(tau), pulse(half_pi)]
        else:
            tau = float(rng.uniform(0.1, 1.0))
            body = [pulse(half_pi), dynamics.Wait(tau / 2)]
            for phase in (0, 1, 0, 1, 1, 0, 1, 0):
                body += [pulse(2 * half_pi, phase * np.pi / 2), dynamics.Wait(tau)]
            body[-1] = dynamics.Wait(tau / 2)
            body.append(pulse(half_pi))
        return dynamics.PulseSequence(
            (dynamics.LaserInit(1.0), *body, dynamics.Readout(0.5)))

    def run(self, item):
        if "seq" in item:
            result, rho = dynamics.propagate_sequence(
                item["system"], item["env"], item["seq"], self.coh,
                readout_contrast=READOUT_CONTRAST, return_state=True)
            return dict(population=result.population, rho=rho)
        curve = dynamics.simulate_rabi(item["system"], item["env"], self.coh, item["drive"],
                                       self.RABI_MHZ, item["durations"],
                                       readout_contrast=READOUT_CONTRAST)
        return dict(signal=curve.signal)

    def augment(self, items, outputs):
        seen = set()
        for item, out in zip(items, outputs):
            if "seq" in item and item["kind"] not in seen:
                seen.add(item["kind"])
                _, rho = dynamics.propagate_sequence(item["system"], item["env"], item["seq"],
                                                     None, return_state=True)
                out["unitary_purity"] = float(np.trace(rho @ rho).real)
        # weak resonant drive of the bare spin on its lower line
        b = self.rabi_field
        curve = dynamics.simulate_rabi(
            spin_model.SpinSystem(), spin_model.FieldEnvironment(b_lab=b * model.NV_AXIS), None,
            model.D_MHZ - model.GAMMA_E_MHZ_PER_MT * b, 1.0, self.WEAK_RABI_T,
            readout_contrast=1.0)
        return dict(weak_rabi=curve.signal)

    def check(self, items, outputs, extra):
        msgs = []
        for k, (item, out) in enumerate(zip(items, outputs)):
            what = f"item {k} ({item['kind']})"
            if "rho" in out:
                msgs += checks.density_matrix(what, out["rho"])
                msgs += checks.populations(what, [out["population"]])
            else:
                pops = 1.0 - (1.0 - out["signal"]) / READOUT_CONTRAST
                msgs += checks.populations(what, pops)
            if "unitary_purity" in out:
                msgs += checks.close(f"{what}: unitary purity", out["unitary_purity"],
                                     3.0 / item["dim"], abs_=1e-9)
        weak = extra["weak_rabi"]
        msgs += checks.close("weak-drive bare-spin Rabi vs cos^2(pi t)", weak,
                             np.cos(np.pi * self.WEAK_RABI_T) ** 2, abs_=1e-6)
        return msgs

    def corruptions(self, items, outputs):
        seq = next(k for k, o in enumerate(outputs) if "unitary_purity" in o)
        rabi = next(k for k, it in enumerate(items) if "seq" not in it)

        def trace(o, extra):
            o[seq]["rho"] = o[seq]["rho"] * 1.01

        def hermitian(o, extra):
            o[seq]["rho"][0, 1] += 1e-6

        def rabi_pop(o, extra):
            o[rabi]["signal"] = o[rabi]["signal"] + 0.25

        def purity(o, extra):
            o[seq]["unitary_purity"] += 1e-6

        def weak(o, extra):
            extra["weak_rabi"] = extra["weak_rabi"] + 2e-6
        return [("trace", trace), ("hermitian", hermitian), ("rabi_populations", rabi_pop),
                ("unitary_purity", purity), ("weak_rabi", weak)]


# ---------------------------------------------------------------------------

def _write_rows(path, header, columns):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [[float(v) for v in line.split()] for line in lines if not line.startswith("#")]
    return lines[0], np.array(rows)


class CliBatch(Workload):
    """One `python -m nvkit.cli` process per item, on files written at set-up.

    A pass of 20 argv lists is repeated at least five times, so every argv
    repeats and every run has at least 100 items. g2-fit, the slowest
    subcommand, takes a fifth of each pass, which puts the p90 inside it.
    """

    name = "cli_batch"
    SHARES = {"g2-fit": 4, "odmr-fit": 2, "decay-fit": 2, "freq-extract": 2, "sat-fit": 2,
              "map-slice": 2, "odmr-sim": 2, "seq-sim": 2, "density": 1, "sensitivity": 1}
    ITEMS_PER_S = 3.5
    G2_BATCH = 100

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.files = []
        rng = self.rng
        for kind, share in self.SHARES.items():
            for k in range(share):
                self.items.append(getattr(self, "_" + kind.replace("-", "_"))(rng, k))
        self.shuffle()
        size = len(self.items)
        self.passes = max(-(-100 // size), round(seconds * self.ITEMS_PER_S / size))
        self.g2_seeds = [_seed(rng) for _ in range(self.G2_BATCH)]
        self.env = dict(os.environ)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _file(self, name, header, columns):
        """Register an input file; `setup` writes it."""
        path = self._path(name)
        self.files.append((path, header, columns))
        return path

    def setup(self):
        for path, header, columns in self.files:
            _write_rows(path, header, columns)

    # -- one method per subcommand makes its argv and inputs; floats travel
    # as repr so they round-trip exactly

    def _g2_fit(self, rng, k):
        taus = model.g2_grid()
        values = model.g2(taus, model.G2_TRUTH) + rng.normal(0.0, model.G2_NOISE, taus.size)
        path = self._file(f"g2_{k}.txt", "# g2 v1",
                          (taus, values, np.full(taus.size, model.G2_NOISE)))
        return dict(kind="g2-fit", argv=["g2-fit", "--in", path], taus=taus, g2=values)

    def _odmr_fit(self, rng, k):
        xi, delta = rng.uniform(-3.0, 3.0), rng.uniform(3.5, 5.0)
        signal = model.cw_ensemble_signal(CW_GRID, xi, delta) \
            + rng.normal(0.0, ODMR_NOISE, CW_GRID.size)
        path = self._file(f"spec_{k}.txt", "# odmr v1 mode=cw",
                          (CW_GRID, signal, np.full(CW_GRID.size, ODMR_NOISE)))
        return dict(kind="odmr-fit", argv=["odmr-fit", "--in", path, "--n-dips", "2"])

    def _decay_fit(self, rng, k):
        t = np.linspace(0.0, 1500.0, 300)
        signal = 0.5 + 0.5 * np.exp(-np.power(t / rng.uniform(400.0, 600.0), 1.5)) \
            + rng.normal(0.0, 0.004, t.size)
        path = self._file(f"hahn_{k}.txt", "# decay v1 kind=hahn",
                          (t, signal, np.full(t.size, 0.004)))
        return dict(kind="decay-fit", argv=["decay-fit", "--in", path, "--model", "stretched"])

    def _freq_extract(self, rng, k):
        t = np.arange(0.0, 8.0, 0.02)
        offset = rng.uniform(0.3, 1.0)
        detunings = (offset - model.A_N14_MHZ, offset, offset + model.A_N14_MHZ)
        signal = model.fid(t, rng.uniform(1.5, 2.0), detunings)
        path = self._file(f"fid_{k}.txt", "# decay v1 kind=fid", (t, signal, np.ones(t.size)))
        return dict(kind="freq-extract", argv=["freq-extract", "--in", path])

    def _sat_fit(self, rng, k):
        powers = np.linspace(0.05, 5.0, 25)
        c_sat, p_sat = rng.uniform(30e3, 40e3), rng.uniform(0.8, 1.4)
        path = self._file(f"sat_{k}.txt", "", (powers, model.saturation(powers, c_sat, p_sat)))
        return dict(kind="sat-fit", argv=["sat-fit", "--in", path],
                    expect={"c_sat_per_s": c_sat, "p_sat_mw": p_sat})

    def _map_slice(self, rng, k):
        x, y = np.linspace(-8.0, 8.0, 81), np.linspace(-6.0, 6.0, 61)
        amp, x0, y0 = rng.uniform(800.0, 1200.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        wx, wy, base = rng.uniform(4.0, 5.0), rng.uniform(1.8, 2.2), rng.uniform(40.0, 60.0)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        counts = model.gaussian_2d(gx, gy, amp, x0, y0, wx, wy, base)
        j = int(rng.integers(25, 36))
        header = "# plmap v1 dims=2 power_mW=0.3\n" + "\n".join(
            f"# axis {n}: {len(a)} " + " ".join(repr(float(v)) for v in a)
            for n, a in (("x", x), ("y", y)))
        path = self._file(f"map_{k}.txt", header, counts.T)
        slice_amp = amp * np.exp(-4.0 * np.log(2.0) * (y[j] - y0) ** 2 / wy ** 2)
        return dict(kind="map-slice", argv=["map-slice", "--in", path, "--axis", "x",
                                            "--index", str(j)],
                    expect={"amplitude": slice_amp, "center_um": x0, "fwhm_um": wx,
                            "baseline": base})

    def _odmr_sim(self, rng, k):
        xi, delta, seed = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(3.5, 5.0)), _seed(rng)
        path = self._path(f"sim_{k}.txt")
        argv = ["odmr-sim", "--xi", repr(xi), "--delta", repr(delta), "--ensemble",
                "--fmin", "2835.0", "--fmax", "2905.0", "--points", "701",
                "--noise-sigma", repr(ODMR_NOISE), "--seed", str(seed), "--out", path]
        grid = np.linspace(2835.0, 2905.0, 701)
        expect = model.cw_ensemble_signal(grid, xi, delta) \
            + model.gaussian_noise(seed, ODMR_NOISE, grid.size)
        return dict(kind="odmr-sim", argv=argv, written={path: ("# odmr v1 mode=cw", np.column_stack(
            [grid, expect, np.full(grid.size, ODMR_NOISE)]))})

    def _seq_sim(self, rng, k):
        larmor_khz, seed = float(rng.uniform(30.0, 70.0)), _seed(rng)
        out, plot = self._path(f"seq_{k}.txt"), self._path(f"seq_{k}.dat")
        argv = ["seq-sim", "--kind", "hahn", "--tmax", "80", "--points", "801",
                "--larmor-khz", repr(larmor_khz), "--noise-sigma", "0.004",
                "--seed", str(seed), "--out", out, "--plot-out", plot]
        t = np.linspace(0.0, 80.0, 801)
        signal = model.hahn(t, larmor_khz * 1e-3) + model.gaussian_noise(seed, 0.004, t.size)
        return dict(kind="seq-sim", argv=argv, written={
            out: ("# decay v1 kind=hahn", np.column_stack([t, signal, np.full(t.size, 0.004)])),
            plot: (None, np.column_stack([t, signal]))})

    def _density(self, rng, k):
        c_ens, c_single = rng.uniform(5e6, 15e6), rng.uniform(6e3, 9e3)
        psf = (0.45, 0.45, 2.0)
        per_um3, ppb = model.density(c_ens, c_single, psf)
        return dict(kind="density", argv=["density", "--c-ens", repr(c_ens), "--c-single",
                                          repr(c_single), "--psf", "0.45,0.45,2.0"],
                    expect={"number_density_per_um3": per_um3, "ppb": ppb})

    def _sensitivity(self, rng, k):
        p = dict(count_rate=rng.uniform(2e4, 5e4), contrast=rng.uniform(0.15, 0.25),
                 readout=0.5, t2star=rng.uniform(1.5, 2.0), t2=rng.uniform(400.0, 600.0))
        dc, ac = model.sensitivity(p["count_rate"], p["contrast"], p["readout"],
                                   p["t2star"], p["t2"])
        argv = ["sensitivity", "--count-rate", repr(p["count_rate"]), "--contrast",
                repr(p["contrast"]), "--readout-us", "0.5", "--t2star-us", repr(p["t2star"]),
                "--t2-us", repr(p["t2"])]
        return dict(kind="sensitivity", argv=argv,
                    expect={"eta_dc_nt_per_sqrt_hz": dc, "eta_ac_nt_per_sqrt_hz": ac})

    # -- timed item

    def run(self, item):
        proc = subprocess.run([sys.executable, "-m", "nvkit.cli", *item["argv"]],
                              capture_output=True, text=True, env=self.env, timeout=60)
        return dict(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)

    def run_inprocess(self, item):
        """The same item through `cli.main` in this process (traced mode)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item["argv"]))
        return dict(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    # -- checks

    def augment(self, items, outputs):
        hits = 0
        taus = model.g2_grid()
        for seed in self.g2_seeds:
            curve = photon_stats.synthesize_g2(taus, model.G2_TRUTH, noise=_gauss(model.G2_NOISE, seed))
            fit = photon_stats.fit_g2(curve).as_array()
            hits += bool(np.all(np.abs(fit - model.G2_TRUTH) <= model.G2_TABLE_ERRORS))
        written = {}
        for item in self.items:
            for path in item.get("written", {}):
                written[path] = _read_rows(path)
        return dict(g2_hits=hits, written=written)

    def check(self, items, outputs, extra):
        msgs = []
        by_argv = {}
        for item, out in zip(items, outputs):
            what = item["kind"]
            by_argv.setdefault(id(item), []).append(out["stdout"])
            rec = checks.record(out["stdout"])
            for key, expected in item.get("expect", {}).items():
                if item["kind"] in ("density", "sensitivity"):
                    tol = dict(rel=1e-9)   # closed forms printed to 10 digits
                else:
                    tol = dict(rel=1e-6, abs_=1e-6)   # fits of noiseless inputs
                msgs += checks.close(f"{what}: {key}", float(rec[key]), expected, **tol)
            if item["kind"] == "g2-fit":
                p = [float(rec[k]) for k in ("tau0_ns", "c1", "tau1_ns", "c2", "tau2_ns",
                                             "c3", "tau3_ns")]
                msgs += checks.chi2_not_worse(
                    what, model.chi2(model.g2(item["taus"], p), item["g2"], model.G2_NOISE),
                    model.chi2(model.g2(item["taus"], model.G2_TRUTH), item["g2"], model.G2_NOISE))
        for item in {id(it): it for it in items}.values():
            msgs += checks.identical(" ".join(item["argv"]), by_argv[id(item)])
        msgs += checks.fraction_at_least("in-process g2 fits within the table errors",
                                         extra["g2_hits"], self.G2_BATCH, 0.9)
        for item in self.items:
            for path, (header, rows) in item.get("written", {}).items():
                got_header, got = extra["written"][path]
                if header is not None and got_header != header:
                    msgs.append(f"{path}: header {got_header!r}")
                # plot files carry 10 significant digits, data files repr
                rel = 1e-9 if header is None else 0.0
                msgs += checks.close(f"{path}: rows", got, rows, rel=rel, abs_=1e-9)
        return msgs

    def corruptions(self, items, outputs):
        def first(kind):
            return next(k for k, it in enumerate(items) if it["kind"] == kind)

        def edit(kind, key, factor):
            def corrupt(o, extra):
                k = first(kind)
                rec = checks.record(o[k]["stdout"])
                rec[key] = repr(float(rec[key]) * factor)
                head = o[k]["stdout"].splitlines()[0]
                o[k]["stdout"] = "\n".join([head] + [f"{a} = {b}" for a, b in rec.items()]) + "\n"
            return corrupt

        def repeat(o, extra):
            o[first("sensitivity")]["stdout"] += "extra = 1\n"

        def batch(o, extra):
            extra["g2_hits"] = 89

        def written(o, extra):
            path = next(iter(items[first("seq-sim")]["written"]))
            header, rows = extra["written"][path]
            extra["written"][path] = (header, rows + 1e-6)
        return [("repeat", repeat), ("g2_batch", batch),
                ("written", written), ("g2_chi2", edit("g2-fit", "c1", 1.01)),
                ("density", edit("density", "ppb", 1.0 + 1e-8)),
                ("sensitivity", edit("sensitivity", "eta_dc_nt_per_sqrt_hz", 1.0 + 1e-8)),
                ("sat_fit", edit("sat-fit", "c_sat_per_s", 1.0 + 1e-5)),
                ("map_slice", edit("map-slice", "fwhm_um", 1.0 + 1e-5))]


WORKLOADS = {w.name: w for w in (OdmrRoundtrip, PulseDynamics, CliBatch)}
