"""nvkit benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload odmr_roundtrip --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; nvkit is imported from its `src`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones. See
bench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("odmr_roundtrip", "pulse_dynamics", "cli_batch")
# set-up is measured this many times per run (setup-only processes plus the
# measuring one); setup_s is their median
SETUPS = 3
# single-threaded BLAS is the baseline; the variables reach every child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


def worker(mode, args, env, deadline):
    """Run one workload process; return (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"{args.workload}: {mode} process passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        sys.exit(f"{args.workload}: {mode} process exited with {proc.returncode}")
    return spawned, json.loads(out.splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "nvkit", "__init__.py")):
        sys.exit(f"no nvkit sources under {os.path.join(ROOT, 'src')}; run from a checkout")

    env = {k: v for k, v in os.environ.items() if k != "NVKIT_CONFIG"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # the same string hashes, and so dict and set layouts, in every run
    env["PYTHONHASHSEED"] = "0"

    if args.trace:
        _, result = worker("trace", args, env, deadline)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
        if result["absent"]:
            print("# absent (wrapped function gone): " + ", ".join(result["absent"]))
    else:
        setups = []
        for _ in range(SETUPS - 1):
            spawned, ready = worker("setup", args, env, deadline)
            setups.append(ready["ready"] - spawned)
        spawned, result = worker("run", args, env, deadline)
        setups.append(result["ready"] - spawned)
        seconds = result["seconds"]
        print(f"# {len(seconds)} items in {result['wall']:.3f} s; set-up runs "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        metrics = {
            "items_per_s": {"value": len(seconds) / result["wall"], "unit": "1/s"},
            "item_p50_ms": {"value": 1e3 * statistics.median(seconds), "unit": "ms"},
            "item_p90_ms": {"value": 1e3 * percentile(seconds, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(result["env"])
    for line in result["failures"][:10] + result["problems"][:20]:
        print("# " + line)
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
