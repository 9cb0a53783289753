"""Traced mode: spans around nvkit's module-level functions, from outside.

`Tracer.install` replaces each target function in every nvkit namespace
that binds it (`eigenlevels` lives in both `spin_model` and `dynamics`,
and in the package itself) with a wrapper that records a span: name,
start, end, parent span and item id. Spans stay in memory until the run
ends. A target that no longer exists is skipped, and every metric built
on it is reported as absent.

Self time is a span's duration minus the durations of its direct
children; the children of one span never overlap, as everything runs on
one thread.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (span name, module, function); io and cli handlers share one span name
TARGETS = [
    ("spin_model.eigenlevels", "spin_model", "eigenlevels"),
    ("spin_model.build_hamiltonian", "spin_model", "build_hamiltonian"),
    ("spin_model.transition_lines", "spin_model", "transition_lines"),
    ("dynamics.propagate_sequence", "dynamics", "propagate_sequence"),
    ("dynamics.simulate_rabi", "dynamics", "simulate_rabi"),
    ("dynamics.fit_decay_envelope", "dynamics", "fit_decay_envelope"),
    ("dynamics.extract_frequencies", "dynamics", "extract_frequencies"),
    ("odmr.synthesize_spectrum", "odmr", "synthesize_spectrum"),
    ("odmr.fit_spectrum", "odmr", "fit_spectrum"),
    ("fitting.lm", "fitting", "levenberg_marquardt"),
    ("fitting.jacobian", "fitting", "numeric_jacobian"),
    ("photon_stats.fit_g2", "photon_stats", "fit_g2"),
    ("photon_stats.seed", "photon_stats", "_initial_g2_params"),
    ("confocal.fit_gaussian_slice", "confocal", "fit_gaussian_slice"),
    ("io.load", "odmr", "load_spectrum"),
    ("io.load", "dynamics", "load_curve"),
    ("io.load", "photon_stats", "load_g2"),
    ("io.load", "photon_stats", "load_saturation"),
    ("io.load", "confocal", "load_map"),
    ("io.save", "odmr", "save_spectrum"),
    ("io.save", "dynamics", "save_curve"),
    ("io.save", "photon_stats", "save_g2"),
    ("io.save", "confocal", "save_map"),
    ("io.save", "cli", "write_plot"),
    ("cli.parse", "cli", "main"),
    ("cli.emit", "cli", "emit"),
]
SEGMENT_TYPES = ("MwPulse", "Wait")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item]
        self.stack = []
        self.item = None
        self.counts = defaultdict(int)
        self.eig_seconds = defaultdict(list)   # by matrix dimension
        self.missing = set()     # span names with a target that is gone
        self._patched = []

    def _span(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrapper(self, name, fn):
        tracer = self

        if name == "fitting.lm":
            def wrapper(residuals, x0, *args, **kwargs):
                def traced_residuals(x):
                    return tracer._span("fitting.residual", residuals, (x,), {})
                args = list(args)
                if len(args) >= 2 and args[1] is not None:
                    args[1] = tracer._jacobian(args[1])
                elif kwargs.get("jac") is not None:
                    kwargs["jac"] = tracer._jacobian(kwargs["jac"])
                result = tracer._span(name, fn, (traced_residuals, x0, *args), kwargs)
                tracer.counts["fitting.lm.iterations"] += result.iterations
                return result
        elif name == "spin_model.eigenlevels":
            def wrapper(h, *args, **kwargs):
                index = len(tracer.spans)
                result = tracer._span(name, fn, (h, *args), kwargs)
                _, start, end, _, _ = tracer.spans[index]
                tracer.eig_seconds[len(result[0])].append(end - start)
                return result
        elif name == "dynamics.propagate_sequence":
            def wrapper(system, env, seq, *args, **kwargs):
                tracer.counts["dynamics.segments"] += sum(
                    type(e).__name__ in SEGMENT_TYPES for e in seq.elements)
                return tracer._span(name, fn, (system, env, seq, *args), kwargs)
        elif name == "io.load":
            def wrapper(path, *args, **kwargs):
                tracer.counts["io.load.bytes"] += os.path.getsize(path)
                return tracer._span(name, fn, (path, *args), kwargs)
        elif name == "io.save":
            def wrapper(path, *args, **kwargs):
                result = tracer._span(name, fn, (path, *args), kwargs)
                tracer.counts["io.save.bytes"] += os.path.getsize(path)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _jacobian(self, jac):
        def traced_jacobian(x):
            return self._span("fitting.jacobian", jac, (x,), {})
        return traced_jacobian

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nvkit" or n.startswith("nvkit."))]
        cli = sys.modules["nvkit.cli"]
        # handlers are separate spans so that their time leaves cli.parse's self time
        targets = TARGETS + [("cli.handler", "cli", n) for n in vars(cli) if n.startswith("cmd_")]
        for name, module, attr in targets:
            original = getattr(sys.modules.get("nvkit." + module), attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self):
        """Calls, self seconds, and eigensolves made inside propagate_sequence."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        eig_in_sequences = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == "spin_model.eigenlevels":
                while parent >= 0 and self.spans[parent][0] != "dynamics.propagate_sequence":
                    parent = self.spans[parent][3]
                eig_in_sequences += parent >= 0
        return calls, self_s, eig_in_sequences


def _median(values):
    return statistics.median(values) if values else 0.0


def cli_probe(env, cwd, repeats):
    """Cold start of one CLI process, and the imports inside it, in ms."""
    argv = [sys.executable, "-m", "nvkit.cli", "sensitivity", "--count-rate", "30e3",
            "--contrast", "0.2", "--t2star-us", "1.76", "--t2-us", "494"]
    script = ("import time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import nvkit.cli; t2 = time.perf_counter(); "
              "print(t1 - t0, t2 - t1)")
    cold, numpy_s, nvkit_s = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
        cold.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        a, b = out.split()
        numpy_s.append(float(a))
        nvkit_s.append(float(b))
    return {"cli.cold_start_ms": 1e3 * _median(cold),
            "cli.import_numpy_ms": 1e3 * _median(numpy_s),
            "cli.import_nvkit_ms": 1e3 * _median(nvkit_s)}


NO_PROBE = dict.fromkeys(("cli.cold_start_ms", "cli.import_numpy_ms", "cli.import_nvkit_ms"), 0.0)


def per_layer(tracer, passes, overhead, probe=NO_PROBE):
    """Every per-layer metric per traced pass as {name: (value, unit)}, plus
    the absent names.

    Counts and seconds are totals over the traced passes divided by their
    number; the passes are identical, so counts stay whole. A layer the
    workload does not run reads 0, as do the CLI start-up figures outside
    cli_batch.
    """
    calls, self_s, eig_in_sequences = tracer.totals()
    counts = tracer.counts
    metrics, absent = {}, []

    def put(name, unit, needs, value):
        if tracer.missing.intersection(needs):
            absent.append(name)
        elif unit in ("count", "bytes"):
            metrics[name] = (value // passes, unit)
        elif unit == "s":
            metrics[name] = (value / passes, unit)
        else:
            metrics[name] = (value, unit)

    def layer(span, count_calls=True):
        if count_calls:
            put(span + ".calls", "count", [span], calls[span])
        put(span + ".self_s", "s", [span], self_s[span])

    eig = "spin_model.eigenlevels"
    layer(eig)
    for dim in (9, 18):
        put(f"{eig}.d{dim}_us", "us", [eig], 1e6 * _median(tracer.eig_seconds[dim]))
    layer("spin_model.build_hamiltonian")
    layer("spin_model.transition_lines", count_calls=False)
    prop = "dynamics.propagate_sequence"
    segments = counts["dynamics.segments"]
    put("dynamics.segments", "count", [prop], segments)
    put("dynamics.eigensolves_per_segment", "ratio", [prop, eig],
        eig_in_sequences / segments if segments else 0.0)
    for span in (prop, "dynamics.simulate_rabi", "dynamics.fit_decay_envelope",
                 "dynamics.extract_frequencies", "odmr.synthesize_spectrum",
                 "odmr.fit_spectrum", "photon_stats.fit_g2", "photon_stats.seed",
                 "confocal.fit_gaussian_slice"):
        layer(span, count_calls=False)
    lm = "fitting.lm"
    layer(lm)
    iterations = counts["fitting.lm.iterations"]
    put(lm + ".iterations", "count", [lm], iterations)
    put("fitting.residual.calls", "count", [lm], calls["fitting.residual"])
    put("fitting.residual.self_s", "s", [lm], self_s["fitting.residual"])
    put("fitting.residual.calls_per_iteration", "ratio", [lm],
        calls["fitting.residual"] / iterations if iterations else 0.0)
    put("fitting.jacobian.calls", "count", [lm, "fitting.jacobian"], calls["fitting.jacobian"])
    put("fitting.jacobian.self_s", "s", [lm, "fitting.jacobian"], self_s["fitting.jacobian"])
    for io in ("io.load", "io.save"):
        layer(io)
        put(io + ".bytes", "bytes", [io], counts[io + ".bytes"])
    for name, value in probe.items():
        put(name, "ms", [], value)
    layer("cli.parse", count_calls=False)
    layer("cli.emit", count_calls=False)
    put("trace.overhead", "ratio", [], overhead)
    return metrics, absent
