#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the confanon libraries, confanond
and the perfbench program from source into .bench_build/ (incremental
after the first run), then runs it; its last stdout line is
the JSON result. Exits non-zero when the build fails, the sources are
missing, or any output check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
WORKLOADS = ("multinet-ios", "bignet-mixed", "daemon-tenants")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: no confanon sources under ./src; run from the "
                 "repository root")
    commands = [["cmake", "--build", BUILD_DIR, "--parallel", "4"]]
    # Configure once; the build step re-runs CMake when a CMake file changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for command in commands:
        # Build logs go to stderr: stdout carries only the result line.
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    program = os.path.join(BUILD_DIR, "perfbench")
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
