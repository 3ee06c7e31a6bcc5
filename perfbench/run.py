#!/usr/bin/env python3
"""Builds the sweep benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line of standard output is the benchmark's JSON result.  --tiny and
--corrupt-reference are passed through for the self-test.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sparse-sim", "dense-classify", "store-preloaded", "served"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative, so that socket paths under it stay short.
    return os.path.relpath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    out = build_dir()
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "arl_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(out, "arl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as failure:
        print(f"run.py: build failed: {failure}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--run-dir", os.path.join(build_dir(), f"run-{os.getpid()}")]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(build_dir(), f"spans-{args.workload}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
