#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload bank-top --seed 1 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the library crates under crates/ by path. Its build output
goes to $CARGO_TARGET_DIR, or to .bench_build/ at the repository root when
that is unset; traced runs write their spans to .bench_out/.

Every argument is passed to the benchmark binary unchanged (see
perfbench/README.md). The binary's output is printed as it is; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. This script checks that the metrics are exactly the ones
BENCHMARK.json declares for the run's --trace mode, and exits non-zero
without a result if the build fails, the binary fails, or the result is
malformed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# One run measures at most a minute; the rest is set-up and the ladder
# probe. A run that takes longer than this has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace not in ("0", "1"):
        fail("--trace 0|1 is required")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        # Show the table and the failed checks' result, then fail loudly.
        sys.stdout.write(run.stdout)
        fail(f"the benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail("the benchmark's last line is not JSON")
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stdout.write(run.stdout)
        fail(f"result does not match BENCHMARK.json: got {sorted(got.items())}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
