#!/usr/bin/env python3
"""Build the portal benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark crate in this directory is
built in release mode against the repository's crates (into
$CARGO_TARGET_DIR, default `.bench_build`), then run with the same
arguments. Its last line of standard output is the JSON result. Traced
runs also write their spans to
`<target dir>/perfbench-spans/<workload>-seed<seed>.tsv`.

Exits non-zero, without a result line, if the build fails (for example
when the repository's crates are missing); otherwise exits with the
benchmark's own status.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """Value following `--name` in args, or None."""
    key = "--" + name
    for i, arg in enumerate(args[:-1]):
        if arg == key:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if flag(args, "trace") == "1" and flag(args, "spans-out") is None:
        name = "{}-seed{}.tsv".format(flag(args, "workload"), flag(args, "seed"))
        args += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    try:
        seconds = float(flag(args, "seconds") or 0)
    except ValueError:
        seconds = 0
    # A bound on a hung run; the benchmark itself stops at --seconds.
    timeout = max(175.0, 3 * seconds + 60)
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary] + args, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {:.0f} s".format(timeout), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
