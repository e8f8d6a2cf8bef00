#!/usr/bin/env python3
"""Build esarp_benchmark from the sources of this checkout and run it once.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

The first run configures and builds into build-benchmark/ at the checkout
root (CMake, Release); later runs only bring that build up to date. Build
output goes to standard error. The benchmark's own standard output is passed
through, so its last line is the run's JSON result. The full result file,
and with --trace 1 the Chrome trace, are written to build-benchmark/results/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "esarp_benchmark",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "esarp_benchmark")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
