#!/usr/bin/env python3
"""Builds ed-benchmark from source and runs it with the given arguments.

Run from the repository root:

    python3 benchmark/run.py --workload sweep118 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's output
goes to stderr, so the benchmark's result line stays the last line of
stdout. Exits non-zero without a result when the build fails, e.g. when the
repository's crates are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "ed-benchmark")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
