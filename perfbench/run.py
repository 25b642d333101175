#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the
checkout's src/) into .bench_build (or $CARGO_TARGET_DIR, relative to the
checkout root); later calls only check the build is current. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. The traced run (--trace 1) writes its Chrome trace under
<build dir>/traces/. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            sys.exit("perfbench: configure failed")
    if subprocess.call(["cmake", "--build", build, "-j", jobs],
                       stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")

    traces = os.path.join(build, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(build, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-out",
               os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        sys.exit(subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
