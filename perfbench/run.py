#!/usr/bin/env python3
"""Build and run the mocc verified-throughput benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim_mlin_n4_readmostly --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each call configures perfbench/ (which builds the library from src/) into
.bench_build/ as a Release build and rebuilds what changed; the first call
builds everything. Build output goes to stderr. The benchmark's stdout is passed
through unchanged; its last line is the JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "mocc_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "mocc_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
