#!/usr/bin/env python3
"""Compare two cpla bench JSON artifacts and gate on regressions.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [options]
  bench_compare.py --self-test

Exit status: 0 = no regression, 1 = regression (or schema mismatch),
2 = usage/IO error.

Both files must be `cpla-bench-v1` artifacts produced by a bench binary's
--metrics-out flag (see bench/harness.hpp). Three sections are gated
independently, each with its own relative tolerance:

  phases   wall_ms per phase        --time-tol   (default 0.50 = +50%)
  values   objective/delay scalars  --value-tol  (default 0.05 = +5%)
  counters solver work counters     --counter-tol(default 0.25 = +25%)

A regression is current > baseline * (1 + tol). Improvements never fail.
For quality values (avg_tcp, max_tcp, overflow) "bigger is worse" holds
throughout this project, so a one-sided gate is correct.

Cross-machine wall clocks are noisy and google-benchmark adapts iteration
counts to machine speed, so CI uses:
  --no-time       skip the phases gate (keeps schema + presence checks)
  --schema-only   only verify schema, key presence, and counter presence

The counter default forgives +25%, which lets a stale baseline pass. Where a
bench's counters repeat exactly run to run (single-thread, no deadlines), CI
gates them with --counter-tol 0.

Missing keys in CURRENT (present in BASELINE) always fail: a silently
dropped phase or counter usually means instrumentation broke.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def load(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "cpla-bench-v1":
        print(f"bench_compare: {path}: unknown schema {doc.get('schema')!r}", file=sys.stderr)
        sys.exit(1)
    return doc


def flatten_phases(doc: dict[str, Any]) -> dict[str, float]:
    return {name: p.get("wall_ms", 0.0) for name, p in doc.get("phases", {}).items()}


def flatten_counters(doc: dict[str, Any]) -> dict[str, float]:
    return dict(doc.get("metrics", {}).get("counters", {}))


def compare_section(
    label: str,
    base: dict[str, Any],
    cur: dict[str, Any],
    tol: float,
    failures: list[str],
    *,
    numeric: bool = True,
    min_abs: float = 0.0,
) -> None:
    """One-sided comparison of two {name: number} maps."""
    for name in sorted(base):
        if name not in cur:
            failures.append(f"{label}: '{name}' missing from current run")
            continue
        if not numeric:
            continue
        b, c = float(base[name]), float(cur[name])
        # Ignore tiny absolute magnitudes (sub-ms phases, near-zero counters):
        # relative noise there is meaningless.
        if max(abs(b), abs(c)) <= min_abs:
            continue
        limit = b * (1.0 + tol) if b >= 0 else b * (1.0 - tol)
        if c > limit:
            pct = 100.0 * (c - b) / b if b != 0 else float("inf")
            failures.append(
                f"{label}: '{name}' regressed {b:g} -> {c:g} (+{pct:.1f}%, tol +{100*tol:.0f}%)")
    for name in sorted(cur):
        if name not in base:
            print(f"note: {label}: '{name}' is new (not in baseline)")


def compare(base: dict[str, Any], cur: dict[str, Any], args: argparse.Namespace) -> list[str]:
    failures: list[str] = []
    if base.get("bench") != cur.get("bench"):
        failures.append(
            f"bench name mismatch: {base.get('bench')!r} vs {cur.get('bench')!r}")
    if base.get("seed") != cur.get("seed"):
        print(f"note: seeds differ ({base.get('seed')} vs {cur.get('seed')}); "
              "value comparisons may not be like-for-like")

    numeric = not args.schema_only
    compare_section("phase", flatten_phases(base), flatten_phases(cur),
                    args.time_tol, failures,
                    numeric=numeric and not args.no_time, min_abs=args.min_ms)
    compare_section("value", base.get("values", {}), cur.get("values", {}),
                    args.value_tol, failures, numeric=numeric)
    compare_section("counter", flatten_counters(base), flatten_counters(cur),
                    args.counter_tol, failures, numeric=numeric, min_abs=10.0)
    return failures


def self_test() -> int:
    """Proves the gate logic: identical runs pass, a 2x slowdown fails."""
    base = {
        "schema": "cpla-bench-v1", "bench": "selftest", "git_rev": "x", "threads": 1,
        "seed": 1,
        "phases": {"case.sdp": {"wall_ms": 100.0}, "case.tila": {"wall_ms": 40.0}},
        "values": {"case.sdp.avg_tcp": 123.0},
        "metrics": {"counters": {"sdp.solve.iterations": 5000}, "gauges": {},
                    "histograms": {}},
    }
    ns = argparse.Namespace(time_tol=0.5, value_tol=0.05, counter_tol=0.25,
                            no_time=False, schema_only=False, min_ms=1.0)

    assert compare(base, json.loads(json.dumps(base)), ns) == [], "identical run must pass"

    slow = json.loads(json.dumps(base))
    slow["phases"]["case.sdp"]["wall_ms"] = 200.0  # injected 2x slowdown
    fails = compare(base, slow, ns)
    assert any("case.sdp" in f and "regressed" in f for f in fails), \
        "2x slowdown must be flagged"

    ns_nt = argparse.Namespace(**{**vars(ns), "no_time": True})
    assert compare(base, slow, ns_nt) == [], "--no-time must ignore wall-clock regressions"

    worse = json.loads(json.dumps(base))
    worse["values"]["case.sdp.avg_tcp"] = 123.0 * 1.10  # +10% quality loss
    assert any("avg_tcp" in f for f in compare(base, worse, ns)), \
        "quality regression must be flagged"

    faster = json.loads(json.dumps(base))
    faster["phases"]["case.sdp"]["wall_ms"] = 50.0
    assert compare(base, faster, ns) == [], "improvements must pass"

    drift = json.loads(json.dumps(base))
    drift["metrics"]["counters"]["sdp.solve.iterations"] = 5080  # +1.6% more work
    assert compare(base, drift, ns_nt) == [], "the default counter tolerance forgives +1.6%"
    ns_exact = argparse.Namespace(**{**vars(ns_nt), "counter_tol": 0.0})
    assert any("sdp.solve.iterations" in f for f in compare(base, drift, ns_exact)), \
        "--counter-tol 0 must flag any counter growth"

    missing = json.loads(json.dumps(base))
    del missing["metrics"]["counters"]["sdp.solve.iterations"]
    ns_schema = argparse.Namespace(**{**vars(ns), "schema_only": True})
    assert any("missing" in f for f in compare(base, missing, ns_schema)), \
        "missing counter must fail even in --schema-only"

    print("bench_compare: self-test OK")
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    ap.add_argument("current", nargs="?", help="current BENCH_*.json")
    ap.add_argument("--time-tol", type=float, default=0.50,
                    help="allowed relative wall-time growth (default 0.50)")
    ap.add_argument("--value-tol", type=float, default=0.05,
                    help="allowed relative growth of quality values (default 0.05)")
    ap.add_argument("--counter-tol", type=float, default=0.25,
                    help="allowed relative growth of solver counters (default 0.25)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="ignore phases faster than this in both runs (default 1.0)")
    ap.add_argument("--no-time", action="store_true",
                    help="skip wall-time comparisons (cross-machine CI)")
    ap.add_argument("--schema-only", action="store_true",
                    help="only check schema and key presence")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in gate-logic checks and exit")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.current:
        ap.error("baseline and current files are required (or --self-test)")

    base, cur = load(args.baseline), load(args.current)
    failures = compare(base, cur, args)
    if failures:
        print(f"bench_compare: {len(failures)} regression(s) vs {args.baseline}:")
        for f in failures:
            print(f"  FAIL {f}")
        sys.exit(1)
    print(f"bench_compare: OK ({args.current} vs {args.baseline})")


if __name__ == "__main__":
    main()
