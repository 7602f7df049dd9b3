#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <study|store> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is a Cargo package of its own (perfbench/harness) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
standard error, so the last line of standard output is the harness's
result line. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: building the harness failed")
    return os.path.join(target, "release", "ggs-perfbench")


def main():
    exe = build()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
