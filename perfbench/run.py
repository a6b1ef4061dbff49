#!/usr/bin/env python3
"""The market benchmark: builds market_bench from this checkout and runs it.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload twitter_steady --seed 1 \
        --seconds 20 --trace 0

prints every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) by name and unit; its last stdout line is one JSON object
{correct, attempted, failed, metrics}. It exits non-zero, printing no
result, when the build or a correctness check fails.

Repeat mode runs each workload K times with seeds seed, seed+1, ... and
prints the median and quartiles of each metric, flagging any whose spread
(Q3 - Q1) / median exceeds its bound in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workload W] [--trace 0|1]

Smoke mode runs every workload of BENCHMARK.json (or the one given) at a
tenth of its size in both trace modes and checks that the correctness gate
passes and that every metric named in BENCHMARK.json is present and
finite:

    python3 perfbench/run.py --smoke [--workload star_admission]

The build goes to .bench_build/ at the root of the checkout.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "market_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    """Configures (once) and builds market_bench; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("market benchmark: no src/ beside perfbench/; nothing to build")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("market benchmark: build failed: " + " ".join(cmd))


def git_commit():
    # Only the checkout's own repository counts; a checkout without .git
    # (an exported tree) is stamped "unknown".
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs market_bench once; returns (exit code, parsed last line or None)."""
    cmd = [BINARY] + (["--smoke"] if smoke else []) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--commit", git_commit()]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def repeat(spec, workloads, k, seed, seconds, trace):
    """Repeat mode; returns the number of flagged metrics."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    flagged = 0
    for workload in workloads:
        values = {}
        units = {}
        for i in range(k):
            code, result = run_once(workload, seed + i, seconds, trace,
                                    echo=False)
            if code != 0 or not result or not result.get("correct"):
                print(f"{workload} seed {seed + i}: run failed (exit {code})")
                return flagged + 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {k} runs, seeds {seed}..{seed + k - 1}, "
              f"trace {trace}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
                v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            # setup_s is bounded on its median only, not on its spread.
            flag = (bound is not None and name != "setup_s" and
                    spread > bound)
            flagged += flag
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6}"
                  f"{'  SPREAD > BOUND' if flag else ''} {units[name]}")
    return flagged


def smoke(spec, workloads):
    """Smoke mode; returns the number of failures."""
    failures = 0
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_once(workload, 1, 1, trace, smoke=True,
                                    echo=False)
            problems = []
            if code != 0 or not result or result.get("correct") is not True:
                problems.append(f"exit {code}, correctness gate not passed")
            else:
                metrics = result["metrics"]
                for m in spec[key]:
                    got = metrics.get(m["name"])
                    if got is None:
                        problems.append(f"{m['name']} missing")
                    elif not math.isfinite(got["value"]):
                        problems.append(f"{m['name']} not finite")
                    elif got["unit"] != m["unit"]:
                        problems.append(f"{m['name']} unit {got['unit']}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace {trace}: {status}")
            failures += bool(problems)
    return failures


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, metavar="K")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    build()
    if args.smoke or args.repeat:
        spec = load_spec()
        workloads = ([args.workload] if args.workload else
                     [w["name"] for w in spec["workloads"]])
    if args.smoke:
        sys.exit(1 if smoke(spec, workloads) else 0)
    if args.repeat:
        seconds = args.seconds or spec["run_seconds"]
        sys.exit(1 if repeat(spec, workloads, args.repeat, args.seed,
                             seconds, args.trace) else 0)
    if not args.workload or args.seconds is None:
        p.error("--workload and --seconds are required for a single run")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
