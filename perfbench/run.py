#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rr-rack --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The binary is built with cargo (release, offline) into $CARGO_TARGET_DIR,
or into .bench_build/ when that is unset. Build output goes to standard
error. The binary's standard output is passed through; its last line is the
result object. Each run also saves its result, with the machine
fingerprint, under perfbench/out/ (and, with --trace 1, its spans), which
perfbench/compare.py reads.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out-dir", os.path.join(here, "out")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
