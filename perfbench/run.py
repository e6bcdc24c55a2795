#!/usr/bin/env python3
"""Build the attrition binaries and the benchmark runner from source, then
run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build); generated inputs and durable state to
.perfbench-work. The last line of standard output is the run's result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's progress goes to stderr; stdout carries only the result.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: cargo build {' '.join(args)}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(["-p", "attrition-cli", "--bin", "attrition"], target)
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], target)
    runner = os.path.join(target, "release", "perfbench")
    attrition = os.path.join(target, "release", "attrition")
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    done = subprocess.run(
        [runner, "--attrition", attrition, "--work", work, "--root", ROOT] + sys.argv[1:],
        cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
