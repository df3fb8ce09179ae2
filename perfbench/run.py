#!/usr/bin/env python3
"""Build and run the paper-scale CFR campaign benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cfr_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds the program's libraries, ftuned
and cfr_bench in .bench_build (Release); later calls only check that
the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --self-check runs the metric
arithmetic unit test and then drives all three workloads at small scale,
checking that they agree with each other and with expected_results.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["cfr_bench", "ftuned", "metrics_test"]


def build():
    out = sys.stderr
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS,
                   check=True, stdout=out, stderr=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    env = dict(os.environ, FT_THREADS="1")
    env.pop("FT_CHAOS_SEED", None)
    env.pop("FT_CHAOS", None)
    bench = [os.path.join(BUILD, "cfr_bench"),
             "--ftuned", os.path.join(BUILD, "ftuned"),
             "--expected", os.path.join(HERE, "expected_results.json"),
             "--work-dir", ".bench_run", "--seed", str(args.seed)]
    if args.self_check:
        test = subprocess.run([os.path.join(BUILD, "metrics_test")], env=env)
        if test.returncode != 0:
            return test.returncode
        return subprocess.run(bench + ["--self-check"], env=env).returncode
    return subprocess.run(bench + ["--workload", args.workload,
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
