#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (a CMake project of its own that compiles
the repository's libraries from src/) into .bench_build/perfbench, then
replaces itself with the benchmark binary, whose last stdout line is the
result JSON. Build output goes to stderr. `--self-test` builds and runs the
test that feeds every output check a corrupted result.

Exits non-zero without printing a result when the build fails, e.g. when
the repository's sources are not next to perfbench/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("interactive", "bulk", "live", "anti-entropy")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    configured = any(os.path.isfile(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_checks_test"):
            return 2
        test = os.path.join(BUILD, "perfbench_checks_test")
        return subprocess.run([test], stdout=sys.stderr).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    binary = os.path.join(BUILD, "perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", OUT]
    sys.stdout.flush()
    sys.stderr.flush()
    # The benchmark replaces this process: one process, timed from its own
    # start, whose exit status is the run's.
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
