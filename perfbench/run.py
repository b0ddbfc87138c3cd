#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload view_storm --seed 1 --seconds 10 --trace 0

The Rust package next to this script is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run with the same
arguments plus ``--trace-dir perfbench/out``, where a traced run writes its
spans. The last line of standard output is the benchmark's JSON result.
The exit code is not 0 when the build fails, the run fails or the result
line is malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
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
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    command = [binary, *sys.argv[1:], "--trace-dir", os.path.join(HERE, "out")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, check=False)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        print(f"run.py: the benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        print(f"run.py: no JSON result line: {err}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"run.py: result keys {sorted(result)} are not {sorted(RESULT_KEYS)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
