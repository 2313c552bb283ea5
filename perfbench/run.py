#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The benchmark is its own Cargo
package (perfbench/Cargo.toml) built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). Each workload runs in a
process of its own, so peak memory is charged to the workload that used
it. The last line a single workload prints is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs the
four workloads one after another and prints their tables.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fleet_1m_dyn", "serve_autofl_10k", "realtrain_cnn", "paper_sweep"]


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr: stdout's last line is reserved for the result.
    result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(result.returncode or 1)
    return os.path.join(target, "release", "perfbench")


def workload_of(args):
    try:
        return args[args.index("--workload") + 1]
    except (ValueError, IndexError):
        return None


def main():
    args = sys.argv[1:]
    binary = build()
    if workload_of(args) != "all":
        sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)
    status = 0
    at = args.index("--workload") + 1
    for name in WORKLOADS:
        args[at] = name
        code = subprocess.run([binary] + args, cwd=ROOT).returncode
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
