#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on regressions.

Rows are matched by (name, mode). For each matched row the chosen metric is
compared; a row regresses when the candidate is worse than the baseline by
more than the tolerance. "Worse" depends on the metric's direction:
msgs_per_sec is higher-is-better, the ns/seconds metrics are
lower-is-better.

Exit status: 0 = no regression, 1 = at least one regression, 2 = usage or
file error. Typical CI wiring (scripts/ci_migrate.sh):

    bench_compare.py BENCH_migrate.json fresh.json \
        --metric msgs_per_sec --tolerance 10 --filter iso_codec

Rows present in only one file are reported but never fail the run: suites
grow new rows across PRs, and a renamed row should not mask a genuine
regression elsewhere.

A second gate style compares two rows WITHIN the candidate file:

    bench_compare.py BENCH_transport.json fresh.json \
        --metric ns_per_msg --filter stream64 \
        --max-ratio stream64:shm/stream64:inproc=3.0

fails when candidate[stream64,shm].ns_per_msg exceeds 3x
candidate[stream64,inproc].ns_per_msg — the transport suite's acceptance
bar (shm ring <= 3x the in-process per-message cost at 64 bytes).
--max-ratio may be given more than once; every ratio is checked, and the
ratio rows need not match --filter.
"""

import argparse
import json
import sys

HIGHER_IS_BETTER = {"msgs_per_sec", "messages"}
LOWER_IS_BETTER = {"ns_per_msg", "cpu_ns_per_msg", "seconds", "cpu_seconds"}


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("results")
    if not isinstance(rows, list):
        print(f"error: {path} has no results array", file=sys.stderr)
        sys.exit(2)
    return {(r["name"], r.get("mode", "")): r for r in rows}


def main():
    ap = argparse.ArgumentParser(
        description="diff two BENCH_*.json files, fail on >tolerance% "
        "regression in a named metric")
    ap.add_argument("baseline", help="reference BENCH_*.json")
    ap.add_argument("candidate", help="fresh BENCH_*.json to judge")
    ap.add_argument("--metric", default="msgs_per_sec",
                    choices=sorted(HIGHER_IS_BETTER | LOWER_IS_BETTER),
                    help="row field to compare (default: msgs_per_sec)")
    ap.add_argument("--tolerance", type=float, default=10.0,
                    help="allowed regression, percent (default: 10)")
    ap.add_argument("--filter", default="",
                    help="only compare rows whose name contains this")
    ap.add_argument("--max-ratio", action="append", default=[],
                    metavar="A:MODE/B:MODE=X",
                    help="fail unless candidate row A's metric is <= X times "
                    "row B's (both rows read from the candidate file); "
                    "repeatable")
    args = ap.parse_args()

    base = load_rows(args.baseline)
    cand = load_rows(args.candidate)
    higher_better = args.metric in HIGHER_IS_BETTER

    regressions = []
    compared = 0
    for key in sorted(base.keys() & cand.keys()):
        name, mode = key
        if args.filter and args.filter not in name:
            continue
        b = base[key].get(args.metric)
        c = cand[key].get(args.metric)
        if b is None or c is None or b <= 0:
            continue
        compared += 1
        change = (c - b) / b * 100.0
        regress = -change if higher_better else change
        marker = ""
        if regress > args.tolerance:
            marker = "  <-- REGRESSION"
            regressions.append(key)
        print(f"{name:28s} {mode:24s} {args.metric}: "
              f"{b:.6g} -> {c:.6g} ({change:+.1f}%){marker}")

    for key in sorted(base.keys() - cand.keys()):
        print(f"{key[0]:28s} {key[1]:24s} only in baseline (skipped)")
    for key in sorted(cand.keys() - base.keys()):
        print(f"{key[0]:28s} {key[1]:24s} new row (skipped)")

    if compared == 0:
        print("error: no comparable rows "
              f"(metric={args.metric}, filter={args.filter!r})",
              file=sys.stderr)
        sys.exit(2)

    ratio_fails = 0
    for spec in args.max_ratio:
        try:
            rows_part, limit = spec.rsplit("=", 1)
            a_part, b_part = rows_part.split("/")
            a_key = tuple(a_part.split(":", 1))
            b_key = tuple(b_part.split(":", 1))
            limit = float(limit)
        except ValueError:
            print(f"error: bad --max-ratio {spec!r} "
                  "(want A:MODE/B:MODE=X)", file=sys.stderr)
            sys.exit(2)
        a = cand.get(a_key, {}).get(args.metric)
        b = cand.get(b_key, {}).get(args.metric)
        if a is None or b is None or b <= 0:
            print(f"error: --max-ratio rows {a_key}/{b_key} missing "
                  f"metric {args.metric} in candidate", file=sys.stderr)
            sys.exit(2)
        ratio = a / b
        marker = ""
        if ratio > limit:
            marker = "  <-- OVER LIMIT"
            ratio_fails += 1
        print(f"ratio {a_key[0]}:{a_key[1]} / {b_key[0]}:{b_key[1]} "
              f"on {args.metric}: {ratio:.2f}x (limit {limit:.2f}x){marker}")
    if ratio_fails:
        print(f"\nFAIL: {ratio_fails} ratio(s) exceed their limit")
        sys.exit(1)
    if regressions:
        print(f"\nFAIL: {len(regressions)} row(s) regressed more than "
              f"{args.tolerance:.0f}% on {args.metric}")
        sys.exit(1)
    print(f"\nok: {compared} row(s) within {args.tolerance:.0f}% "
          f"on {args.metric}")


if __name__ == "__main__":
    main()
