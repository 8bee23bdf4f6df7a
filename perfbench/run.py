#!/usr/bin/env python3
"""Builds the Logical Disk stack benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <smallfile|largefile|cleaner> \\
        --seed <n> --seconds <s> --trace <0|1>

The package in this directory is built in release mode with Cargo, into
$CARGO_TARGET_DIR (default: .bench_build under the current directory), and
the arguments are passed through. The last line of standard output is the
benchmark's JSON result; the exit status is the benchmark's. Without the
repository's crates next to this directory the build fails and so does
the run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: building the benchmark failed\n")
        return 1
    exe = os.path.join(target, "release", "ld-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
