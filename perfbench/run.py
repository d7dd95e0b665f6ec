#!/usr/bin/env python3
"""Builds the release binary and the benchmark harness, then runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both builds share one target directory:
$CARGO_TARGET_DIR when set, else ./target. The harness's last line of
standard output is the JSON result; build failures exit non-zero without
printing one.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", "target"))
    # The harness is a workspace of its own; without this its build would
    # land in perfbench/target.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "pseudo-honeypot"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's progress goes to stderr; stdout stays the harness's.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    args = [harness, "--bin", os.path.join(release, "pseudo-honeypot")]
    sys.stdout.flush()
    os.execv(harness, args + sys.argv[1:])


if __name__ == "__main__":
    main()
