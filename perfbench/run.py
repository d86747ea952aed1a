#!/usr/bin/env python3
"""Build the ConfMask benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's src/ libraries) into the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs only
check that the build is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Spans and full results land
in .bench_out/. Exits nonzero, printing no result, when the sources or the
build are missing or broken.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["cold-ospf-3162", "cold-mixed-1000", "watch-ospf-3162", "serve-316"]
DEFAULT_SEED = 1


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    sys.stdout.flush()
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", ".bench_out"],
        cwd=root)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
