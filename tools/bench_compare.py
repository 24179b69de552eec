#!/usr/bin/env python3
"""Validate and compare fcc-bench reports (fcc-bench/1 and fcc-quality/1).

Validate a report's schema (auto-detected from the "schema" field):

    bench_compare.py --validate BENCH.json
    bench_compare.py --validate QUALITY.json

Compare a fresh run against the checked-in baseline (the CI perf and
quality gates — both sides must carry the same schema):

    bench_compare.py bench/baseline.json BENCH.json \
        [--time-tol 0.15] [--mem-tol 0.05]
    bench_compare.py bench/quality_baseline.json QUALITY.json

Perf reports (fcc-bench/1): a benchmark regresses when its median time
exceeds baseline by more than the time tolerance, or its deterministic peak
bytes drift beyond the memory tolerance in either direction.  A baseline
entry may carry an optional "time_tol" field overriding the global time
tolerance for that benchmark (for workloads known to be noisier).

Quality reports (fcc-quality/1): the counters are deterministic, so the
default gate is exact equality on every code-quality counter of every row.
A baseline row may carry an optional "tol" field (fraction, e.g. 0.02)
relaxing the gate for that row's spill-traffic counters to a drift band —
for intentional heuristic churn where re-pinning per commit is noise.
Correctness columns never get a tolerance: a fresh report with nonzero
"diverged" or "alloc_failures" anywhere fails regardless of baseline.

Exit status: 0 ok, 1 regression or validation failure, 2 usage error.
"""

import argparse
import json
import sys

SCHEMA = "fcc-bench/1"
QUALITY_SCHEMA = "fcc-quality/1"
TOP_FIELDS = {
    "schema": str,
    "suite": str,
    "warmup": int,
    "repeats": int,
    "benchmarks": list,
}
BENCH_FIELDS = {
    "name": str,
    "workload": str,
    "reps": int,
    "ns_median": int,
    "ns_mad": int,
    "peak_bytes": int,
}
QUALITY_TOP_FIELDS = {
    "schema": str,
    "suite": str,
    "routines": int,
    "rows": list,
}
QUALITY_ROW_FIELDS = {
    "name": str,
    "pipeline": str,
    "machine": str,
    "functions": int,
    "static_copies": int,
    "spill_stores": int,
    "reloads": int,
    "spill_slots": int,
    "ranges_split": int,
    "max_registers_used": int,
    "dynamic_copies": int,
    "dynamic_spill_ops": int,
    "diverged": int,
    "alloc_failures": int,
}
# Counters a baseline row's "tol" field may relax. Correctness columns
# (diverged, alloc_failures) and structural ones (functions) stay exact.
QUALITY_TOLERABLE = (
    "static_copies", "spill_stores", "reloads", "spill_slots",
    "ranges_split", "max_registers_used", "dynamic_copies",
    "dynamic_spill_ops",
)


def validate_quality(report, path):
    """Schema check for fcc-quality/1 reports."""
    errors = []
    for field, kind in QUALITY_TOP_FIELDS.items():
        if field not in report:
            errors.append(f"{path}: missing field '{field}'")
        elif not isinstance(report[field], kind) or isinstance(
                report[field], bool):
            errors.append(f"{path}: field '{field}' is not {kind.__name__}")
    seen = set()
    for i, row in enumerate(report.get("rows", [])):
        where = f"{path}: rows[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where} is not an object")
            continue
        for field, kind in QUALITY_ROW_FIELDS.items():
            if field not in row:
                errors.append(f"{where} missing field '{field}'")
            elif not isinstance(row[field], kind) or isinstance(
                    row[field], bool):
                errors.append(f"{where} field '{field}' is not {kind.__name__}")
        tol = row.get("tol")
        if tol is not None and (not isinstance(tol, (int, float))
                                or isinstance(tol, bool) or tol < 0):
            errors.append(f"{where} field 'tol' is not a non-negative number")
        name = row.get("name")
        if name in seen:
            errors.append(f"{where} duplicate row name {name!r}")
        seen.add(name)
    return errors


def validate(report, path):
    """Returns a list of schema-violation messages (empty when valid)."""
    errors = []
    if not isinstance(report, dict):
        return [f"{path}: top level is not an object"]
    if report.get("schema") == QUALITY_SCHEMA:
        return validate_quality(report, path)
    for field, kind in TOP_FIELDS.items():
        if field not in report:
            errors.append(f"{path}: missing field '{field}'")
        elif not isinstance(report[field], kind):
            errors.append(f"{path}: field '{field}' is not {kind.__name__}")
    if report.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {report.get('schema')!r}, "
                      f"expected {SCHEMA!r}")
    seen = set()
    for i, bench in enumerate(report.get("benchmarks", [])):
        where = f"{path}: benchmarks[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where} is not an object")
            continue
        for field, kind in BENCH_FIELDS.items():
            if field not in bench:
                errors.append(f"{where} missing field '{field}'")
            elif not isinstance(bench[field], kind) or isinstance(
                    bench[field], bool):
                errors.append(f"{where} field '{field}' is not {kind.__name__}")
        name = bench.get("name")
        if name in seen:
            errors.append(f"{where} duplicate benchmark name {name!r}")
        seen.add(name)
    return errors


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(1)


def compare_quality(baseline, fresh):
    """Prints a per-row quality table; returns regression messages."""
    base_by_name = {r["name"]: r for r in baseline["rows"]}
    fresh_by_name = {r["name"]: r for r in fresh["rows"]}
    regressions = []

    # Correctness gates first, over every fresh row — including rows the
    # baseline has never seen.
    for row in fresh["rows"]:
        for field in ("diverged", "alloc_failures"):
            if row[field]:
                regressions.append(
                    f"{row['name']}: {field} = {row[field]} (must be 0)")

    print(f"{'row':<30} {'column':<20} {'base':>10} {'fresh':>10}")
    for name, base in base_by_name.items():
        new = fresh_by_name.get(name)
        if new is None:
            regressions.append(f"{name}: missing from fresh report")
            continue
        tol = base.get("tol", 0.0)
        flags = []
        for field in QUALITY_ROW_FIELDS:
            if field in ("name", "pipeline", "machine"):
                continue
            bv, nv = base[field], new[field]
            if bv == nv:
                continue
            print(f"{name:<30} {field:<20} {bv:>10} {nv:>10}")
            if field in QUALITY_TOLERABLE and tol > 0:
                if abs(nv - bv) <= tol * bv:
                    continue
                flags.append(f"{field} {bv} -> {nv} (beyond {tol:.0%})")
            else:
                flags.append(f"{field} {bv} -> {nv}")
        if flags:
            regressions.append(f"{name}: " + "; ".join(flags))
        else:
            print(f"{name:<30} {'(all columns match)':<20}")

    for name in fresh_by_name:
        if name not in base_by_name:
            print(f"{name:<30} (new row, no baseline)")
    return regressions


def compare(baseline, fresh, time_tol, mem_tol):
    """Prints a comparison table; returns the list of regression messages."""
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    fresh_by_name = {b["name"]: b for b in fresh["benchmarks"]}
    regressions = []

    print(f"{'benchmark':<28} {'base ns':>12} {'fresh ns':>12} "
          f"{'ratio':>7} {'base bytes':>12} {'fresh bytes':>12}")
    for name, base in base_by_name.items():
        new = fresh_by_name.get(name)
        if new is None:
            regressions.append(f"{name}: missing from fresh report")
            continue
        tol = base.get("time_tol", time_tol)
        ratio = (new["ns_median"] / base["ns_median"]
                 if base["ns_median"] else float("inf"))
        flags = []
        if base["ns_median"] and ratio > 1.0 + tol:
            flags.append(f"time {ratio:.2f}x > +{tol:.0%}")
        base_bytes, new_bytes = base["peak_bytes"], new["peak_bytes"]
        if base_bytes and abs(new_bytes - base_bytes) > mem_tol * base_bytes:
            flags.append(f"peak bytes {base_bytes} -> {new_bytes} "
                         f"(beyond {mem_tol:.0%})")
        marker = "  REGRESSED: " + "; ".join(flags) if flags else ""
        print(f"{name:<28} {base['ns_median']:>12} {new['ns_median']:>12} "
              f"{ratio:>7.2f} {base_bytes:>12} {new_bytes:>12}{marker}")
        if flags:
            regressions.append(f"{name}: " + "; ".join(flags))

    for name in fresh_by_name:
        if name not in base_by_name:
            print(f"{name:<28} (new benchmark, no baseline)")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("reports", nargs="+",
                        help="--validate: one report; compare: baseline fresh")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the report(s) and exit")
    parser.add_argument("--time-tol", type=float, default=0.15,
                        help="allowed median-time growth (default 0.15)")
    parser.add_argument("--mem-tol", type=float, default=0.05,
                        help="allowed peak-bytes drift (default 0.05)")
    args = parser.parse_args()

    if args.validate:
        errors = []
        for path in args.reports:
            report = load(path)
            file_errors = validate(report, path)
            errors += file_errors
            if not file_errors:
                print(f"{path}: valid {report.get('schema')}")
        for err in errors:
            print(err, file=sys.stderr)
        return 1 if errors else 0

    if len(args.reports) != 2:
        parser.error("compare mode takes exactly: baseline fresh")
    baseline, fresh = load(args.reports[0]), load(args.reports[1])
    for report, path in ((baseline, args.reports[0]), (fresh,
                                                       args.reports[1])):
        errors = validate(report, path)
        if errors:
            for err in errors:
                print(err, file=sys.stderr)
            return 1
    if baseline.get("schema") != fresh.get("schema"):
        print(f"bench_compare: schema mismatch: {args.reports[0]} is "
              f"{baseline.get('schema')!r}, {args.reports[1]} is "
              f"{fresh.get('schema')!r}", file=sys.stderr)
        return 1

    if baseline.get("schema") == QUALITY_SCHEMA:
        regressions = compare_quality(baseline, fresh)
    else:
        regressions = compare(baseline, fresh, args.time_tol, args.mem_tol)
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for reg in regressions:
            print(f"  {reg}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
