#!/usr/bin/env python3
"""Build the benchmark and run one measurement of the guardrail runtime.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a Cargo package of its own, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. Build output
goes to standard error; the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the run
fails or the result is malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # An absolute target stays as is.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
