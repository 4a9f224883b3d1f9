#!/usr/bin/env python3
"""Build and run the graphlet-rw repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload k4-cache --seed 1 --seconds 35 --trace 0

(`--seconds` defaults to BENCHMARK.json's `run_seconds`) builds `perfbench/` (a cargo package of its own) in release mode, makes
sure the workload's cached inputs exist and verify (`.bench_cache/`,
built once per checkout, outside every measured figure), runs the
workload and relays its output. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. `--trace 1`
runs the traced variant instead, which reports the per-layer metrics.

    python3 perfbench/run.py --workload k4-dram --steadiness 10

is the steadiness report: the workload run ten times with seeds
1..10, and for every metric its median, quartiles, and the quartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json.

Workloads: k4-cache, k4-dram and k5-d3-gxsc.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("k4-cache", "k4-dram", "k5-d3-gxsc")
# Wall-clock limits for the child processes, in seconds.
BUILD_LIMIT = 840
RUN_LIMIT = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "gx-perfbench")


def run_child(cmd, capture):
    """Runs one child to completion (killed at the time limit)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    return r


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def load_spec():
    """BENCHMARK.json, which sits next to this script's directory."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def steadiness(binary, args, spec, extra):
    """Runs the workload `args.steadiness` times and prints the spread."""
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        r = run_child([binary, "run", "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra, True)
        res = last_json(r.stdout) if r.returncode == 0 else None
        if res is None or not res["correct"]:
            print(r.stdout, end="")
            fail(f"seed {seed}: run failed or incorrect")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        summary = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
        print(f"seed {seed}: {summary}", flush=True)
    print(f"\n{args.workload} over {args.steadiness} runs "
          f"(spread = (q3 - q1) / median; bound from BENCHMARK.json)")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        ratio = f"{spread / bound:12.2f}" if bound else f"{'-':>12}"
        bstr = f"{bound:6.2f}" if bound else f"{'-':>6}"
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bstr} {ratio}")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run N seeds and report each metric's spread")
    args = p.parse_args()

    # The benchmark measures the workspace it sits in; without it there
    # is nothing to build.
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/service/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout of the repository")

    binary = build()
    cache = os.path.join(ROOT, ".bench_cache")
    prep = subprocess.run([binary, "prepare", "--cache", cache],
                          stdout=sys.stderr, timeout=BUILD_LIMIT)
    if prep.returncode != 0:
        fail("preparing the workload inputs failed")

    extra = ["--cache", cache]
    if args.steadiness:
        steadiness(binary, args, spec, extra)
        return
    r = run_child([binary, "run", "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra, False)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
