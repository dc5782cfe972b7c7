#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library sources under src/) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the current directory; spans and result
hashes land in <build>/perfbench_out. The last line of standard output is
the driver's JSON result; build logs go to standard error. The exit status
is nonzero when the build fails, the run fails a correctness check, or the
result does not carry exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "cpla_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "cpla_perfbench")
    env = dict(os.environ, OMP_NUM_THREADS="1")  # cpla_perfbench's kThreads
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "perfbench_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"run failed: {err}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit status {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    want = expected_metrics(args.trace == 1)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, or units differ")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
