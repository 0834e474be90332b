#!/usr/bin/env python3
"""Build and run the fraudsim benchmark.

    python3 perfbench/run.py --workload admit_mix --seed 1 --seconds 10 --trace 0

Run from the root of a fraudsim checkout. The first call configures and builds
perfbench (the platform libraries from src/ plus the benchmark program in perfbench/src)
into .bench_build/perfbench; later calls rebuild only what changed. The
benchmark's report goes to standard output and ends with one JSON line;
span dumps and per-run JSON reports land in .bench_build/out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
OUT = os.path.join(WORK, "out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("admit_mix", "soc_day", "detect_window", "sharded_scale")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fraudsim sources at %s; run from the root of a fraudsim checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(WORK, "build.log"), "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("configure failed; see %s" % log.name)
        make = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
        if subprocess.run(make, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail("build failed; see %s" % log.name)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT, "--git-sha", git_sha()]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
