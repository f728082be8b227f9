#!/usr/bin/env python3
"""PARDIS repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's src/ tree) into .bench_build/perfbench, runs the arithmetic
self-test, then runs the workload in one process and forwards its output.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run also writes
its spans to .bench_build/perfbench/trace-<workload>.json (chrome://tracing).

With --workload all every workload runs in turn and the last line merges
their metrics as "<workload>.<metric>".

Exit status: 0 when every reply was verified correct; 1 on a wrong reply, a
failed invocation or a crash; 2 when the sources or the toolchain are
missing or the build fails.  See perfbench/NOTES.md for the workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SELFTEST = BUILD / "perfbench_selftest"
WORKLOADS = ["spmd_small", "bulk_centralized", "bulk_multiport", "pipelined_echo"]

# Wall-clock budget of one workload, counted from the end of the build.  The
# build has no deadline, so the cost of a (re)build never fails a run.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout=None):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False
    return done.returncode == 0


def build():
    """Configures (once) and builds the benchmark; False when impossible."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"PARDIS sources not found under {ROOT / 'src'}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(BUILD), "-j", jobs]):
        return False
    return run_quiet([str(SELFTEST)], 30)


def run_workload(workload, args):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_BUDGET_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_BUDGET_S} s")
        return 1, None
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        log("build failed")
        return 2

    if args.workload != "all":
        code, out = run_workload(args.workload, args)
        result = last_json(out)
        if result is None:
            if out:
                sys.stderr.write(out)
            log(f"{args.workload}: no result (exit {code})")
            return code or 1
        sys.stdout.write(out)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_workload(workload, args)
        result = last_json(out)
        if result is None:
            log(f"{workload}: no result (exit {code})")
            return code or 1
        print("\n".join(out.splitlines()[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        worst = max(worst, code)
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
