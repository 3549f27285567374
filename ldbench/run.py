#!/usr/bin/env python3
"""Builds the LD benchmark from source and runs one workload.

    python3 ldbench/run.py --workload <smallfile|largefile|hotcold|mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds an
optimized (Release, no sanitizer) ldbench binary under .bench_build/ldbench;
later runs only re-check that build. The binary then runs the workload in its
own process and prints its metrics; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Exit codes: 0 when every op and check passed, 1 when the benchmark found a
failure, 2 on bad arguments or a checkout without the LD sources, 3 when the
build fails, 4 when the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ldbench")
BINARY = os.path.join(BUILD_DIR, "ldbench")
RUN_TIMEOUT_S = 170

# The repository's own run-time knobs (src/harness/env_knobs.h, LD_LOG) are
# never read by the benchmark, but they are dropped from its environment too,
# and compiler flag variables are dropped from the build's, so a CI
# environment can change neither the configuration nor the optimization.
LOADER_VARS = {"LD_LIBRARY_PATH", "LD_PRELOAD"}
BUILD_FLAG_VARS = {"CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS"}


def clean_env(drop_build_flags):
    env = {}
    for key, value in os.environ.items():
        if key.startswith("LD_") and key not in LOADER_VARS:
            continue
        if drop_build_flags and key in BUILD_FLAG_VARS:
            continue
        env[key] = value
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ldbench: no LD sources (src/CMakeLists.txt) next to ldbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    env = clean_env(drop_build_flags=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ldbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        except OSError as e:
            print(f"ldbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 3
        if done.returncode != 0:
            print(f"ldbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            print((done.stdout + done.stderr)[-4000:], file=sys.stderr)
            return 3
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        print("ldbench: --seed must be >= 0 and --seconds within 1..60", file=sys.stderr)
        return 2

    status = build()
    if status != 0:
        return status

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=clean_env(drop_build_flags=False),
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ldbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        print(done.stdout, end="", file=sys.stderr)
        print(f"ldbench: no result line (exit code {done.returncode})", file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
