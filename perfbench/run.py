#!/usr/bin/env python3
"""Builds the flowplace benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <place|churn|storm> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
reaches the library through path dependencies on crates/. It is built
with `cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then run with the arguments
given here. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. That line is checked against the metric
names in BENCHMARK.json before it is printed. Any build failure, failed
output check or malformed result exits non-zero without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single run may take once built; the benchmark's own loops
# stop long before this.
RUN_TIMEOUT_S = 175


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(line, trace):
    """Returns an error message, or None if the result line is well-formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    if result["correct"] is not True:
        return "output checks failed"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    want = expected_names(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main(argv):
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
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
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *argv],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if run.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        return run.returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    error = check_result(lines[-1], trace)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
