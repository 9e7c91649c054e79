#!/usr/bin/env python3
"""Builds and runs one workload of the DRLI end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Run from the repository root. The first run configures and builds the
library (through the top-level CMakeLists.txt) and the benchmark into
.bench_build/e2ebench; later runs only check that the build is current.
Build output goes to stderr. The benchmark binary's stdout, whose last
line is the JSON result, is passed through unchanged, and so is its exit
status.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "drli_e2ebench"
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.stderr.write("e2ebench: no DRLI source tree at %s\n" % ROOT)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "drli_e2ebench",
                  "-j", jobs])
    # One build at a time when several runs start together.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(step))
                return False
    return BINARY.is_file()


def main():
    if not build():
        return 3
    command = [str(BINARY), *sys.argv[1:]]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
