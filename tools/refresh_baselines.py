#!/usr/bin/env python3
"""Re-generate the checked-in CI bench baselines (ci/baselines/BENCH_*.json).

The bench-smoke CI job gates every run against these files, so they must be
refreshed deliberately — never as a side effect of a failing run. This tool
re-runs every gated bench binary with the *same canonical arguments* the CI
job uses (keep the SPECS table below in sync with .github/workflows/ci.yml),
writes the fresh artifacts into a candidate directory, and schema-diffs each
candidate against the current baseline with bench_compare.py --schema-only.

The schema diff is the safety net: a candidate that silently *dropped* a
phase, value, or counter (instrumentation broke, a case was skipped) fails
the refresh; new keys are fine and are reported as notes.

Usage:
  refresh_baselines.py [--build-dir build] [--out ci/baselines.candidate]
                       [--only NAME]... [--install] [--check]

Modes:
  default    run benches -> write candidates -> schema-diff vs baselines
  --check    skip the bench runs; schema-diff existing files in --out
  --install  after a clean diff, copy candidates over ci/baselines/

Exit status: 0 = candidates ready (and installed with --install),
1 = a bench failed or a candidate dropped keys, 2 = usage/IO error.

CI: the manually-dispatched refresh-baselines job runs this tool and
uploads the candidate directory as an artifact; a human reviews the diff
and commits the new baselines.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

# (artifact name, binary, canonical args) — one row per baseline gated in
# the bench-smoke CI job, with identical arguments. Gated benches keep
# their in-binary --gate so a refresh cannot record a below-floor baseline.
SPECS: list[tuple[str, str, list[str]]] = [
    ("BENCH_ablation_cpla.json", "ablation_cpla", ["--quick"]),
    ("BENCH_micro_solvers.json", "micro_solvers", ["--benchmark_filter=/(8|10|16|20)$"]),
    ("BENCH_micro_la.json", "micro_la", ["--benchmark_filter=/(32|64)$"]),
    ("BENCH_eco_incremental.json", "eco_incremental", ["--quick"]),
    ("BENCH_eco_serve.json", "eco_serve", ["--quick"]),
    ("BENCH_sta_incremental.json", "sta_incremental", ["--quick"]),
    ("BENCH_backend_arbiter.json", "backend_arbiter", ["--quick", "--gate", "1.0"]),
]


def run_bench(build_dir: str, out_dir: str, name: str, binary: str, args: list[str]) -> bool:
    exe = os.path.join(build_dir, "bench", binary)
    if not os.path.exists(exe):
        print(f"refresh_baselines: missing {exe} (build the bench targets first)",
              file=sys.stderr)
        return False
    out = os.path.join(out_dir, name)
    cmd = [exe, *args, "--metrics-out", out]
    # Same thread pinning as CI's bench-smoke job: single-thread wall
    # clocks are the least noisy.
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    print(f"refresh_baselines: running {' '.join(cmd)}")
    res = subprocess.run(cmd, env=env, check=False)
    if res.returncode != 0:
        print(f"refresh_baselines: {binary} exited {res.returncode}", file=sys.stderr)
        return False
    return True


def schema_diff(baseline_dir: str, out_dir: str, name: str) -> bool:
    baseline = os.path.join(baseline_dir, name)
    candidate = os.path.join(out_dir, name)
    if not os.path.exists(candidate):
        print(f"refresh_baselines: no candidate {candidate}", file=sys.stderr)
        return False
    if not os.path.exists(baseline):
        # First baseline for a new bench: nothing to diff against.
        print(f"refresh_baselines: {name} is new (no current baseline)")
        return True
    compare = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")
    res = subprocess.run(
        [sys.executable, compare, baseline, candidate, "--schema-only"], check=False)
    return res.returncode == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build", help="CMake build dir (default: build)")
    ap.add_argument("--baselines", default=os.path.join("ci", "baselines"),
                    help="checked-in baseline dir (default: ci/baselines)")
    ap.add_argument("--out", default=os.path.join("ci", "baselines.candidate"),
                    help="candidate output dir (default: ci/baselines.candidate)")
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="refresh only this bench binary (repeatable)")
    ap.add_argument("--check", action="store_true",
                    help="skip bench runs; schema-diff existing candidates in --out")
    ap.add_argument("--install", action="store_true",
                    help="copy candidates over the baseline dir after a clean diff")
    args = ap.parse_args(argv)

    specs = [s for s in SPECS if not args.only or s[1] in args.only]
    if not specs:
        ap.error(f"--only matched nothing; known benches: {[s[1] for s in SPECS]}")
    os.makedirs(args.out, exist_ok=True)

    failures = 0
    for name, binary, bench_args in specs:
        if not args.check and not run_bench(args.build_dir, args.out, name, binary, bench_args):
            failures += 1
            continue
        if not schema_diff(args.baselines, args.out, name):
            failures += 1
    if failures:
        print(f"refresh_baselines: {failures} bench(es) failed", file=sys.stderr)
        return 1

    if args.install:
        os.makedirs(args.baselines, exist_ok=True)
        for name, _, _ in specs:
            shutil.copyfile(os.path.join(args.out, name), os.path.join(args.baselines, name))
            print(f"refresh_baselines: installed {os.path.join(args.baselines, name)}")
    else:
        print(f"refresh_baselines: candidates in {args.out} "
              "(review, then re-run with --install or copy manually)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
