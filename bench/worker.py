"""One workload process: set-up, warm-up, the timed passes, then checks.

Started by run.py, never by hand. Prints one JSON line as its last line.
Modes:
  setup  stop at the first timed item and report the time reached;
  run    time whole passes of items, one after another;
  trace  one untraced and one traced pass, reporting per-layer metrics.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
TRACE_PAIRS = 3


def timed(run, items):
    """Run items back to back; return per-item seconds, outputs, failures."""
    seconds, outputs, failures = [], [], []
    for item in items:
        start = time.perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            failures.append(f"{item['kind']}: {exc!r}")
        seconds.append(time.perf_counter() - start)
        if out is not None and out.get("code", 0) != 0:
            failures.append(f"{item['kind']}: exit code {out['code']}: {out['stderr'][:200]}")
            out = None
        outputs.append(out)
    return seconds, outputs, failures


def verify(wl, items, outputs):
    """Check the outputs of the operations that did not fail, then make sure
    the checks reject wrong answers, on the first two passes."""
    ok = [(i, o) for i, o in zip(items, outputs) if o is not None]
    items, outputs = [i for i, _ in ok], [o for _, o in ok]
    extra = wl.augment(items, outputs)
    problems = wl.check(items, outputs, extra)
    n = 2 * len(wl.items)
    missed = wl.self_test(items[:n], outputs[:n], extra)
    return problems + [f"self-test: a wrong answer passed the {m} check" for m in missed]


def environment():
    import platform
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"# python {platform.python_version()}, numpy {numpy.__version__}, blas {blas}, "
            f"{threads}, cpus {os.cpu_count()}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import nvkit
    if not os.path.abspath(nvkit.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"nvkit imported from {nvkit.__file__}, not from this checkout's src")
    import workloads

    workdir = os.path.join(ROOT, "bench", "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    wl.setup()
    run = wl.run
    if args.mode == "trace" and hasattr(wl, "run_inprocess"):
        run = wl.run_inprocess
    for item in wl.warmup:
        run(item)
    ready = time.monotonic()
    result = {"ready": ready}

    if args.mode == "run":
        items = wl.items * wl.passes
        start = time.perf_counter()
        seconds, outputs, failures = timed(run, items)
        result.update(wall=time.perf_counter() - start, seconds=seconds)
    elif args.mode == "trace":
        import tracing
        # untraced and traced passes alternate, so that a slow stretch of
        # the machine does not land on one side of the overhead ratio
        items, outputs, failures, ratios = [], [], [], []
        tracer = tracing.Tracer()
        numbered = _numbered(tracer, run)
        for _ in range(TRACE_PAIRS):
            plain, out, fail = timed(run, wl.items)
            tracer.install()
            try:
                traced, more, more_fail = timed(numbered, wl.items)
            finally:
                tracer.uninstall()
            ratios.append(sum(traced) / sum(plain))
            items += wl.items * 2
            outputs += out + more
            failures += fail + more_fail
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        probe = tracing.cli_probe(dict(os.environ), ROOT, 7) \
            if args.workload == "cli_batch" else tracing.NO_PROBE
        metrics, absent = tracing.per_layer(tracer, TRACE_PAIRS, statistics.median(ratios), probe)
        result.update(metrics=metrics, absent=absent)

    if args.mode != "setup":
        result.update(env=environment(), attempted=len(items), failures=failures,
                      problems=verify(wl, items, outputs))
    print(json.dumps(result))


def _numbered(tracer, run):
    """`run` with the tracer's item id set to a running item number."""
    counter = itertools.count()

    def numbered(item):
        tracer.item = next(counter)
        return run(item)
    return numbered


if __name__ == "__main__":
    main()
