#!/usr/bin/env python3
"""CQAds serving benchmark: build from source, then run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_zipf --seed 1 --seconds 25 --trace 0

The engine (src/) and the benchmark (e2ebench/src/) are compiled into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) on first use;
later runs reuse the build. Workload rates, ladders, limits and pool sizes
come from e2ebench/workloads.json. Human-readable lines go to stdout first;
the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every answer checked out; build or set-up problems exit non-zero without a
result line.
"""
import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("e2ebench:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, multiprocessing.cpu_count())))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "cqads_e2e",
                  "-j", jobs])
    with open(build_log, "a") as out:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log("build failed:", " ".join(step))
                return None
    return os.path.join(build_dir, "cqads_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cqads_engine.h")):
        log("engine sources not found under", os.path.join(ROOT, "src"))
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        return 1

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [binary,
               "--config", os.path.join(HERE, "workloads.json"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        return subprocess.run(command, cwd=workdir,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
