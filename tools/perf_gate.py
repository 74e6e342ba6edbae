#!/usr/bin/env python3
"""Perf-regression gate over the bench harness's NDJSON records.

Feed it the stdout of bench_table2 and/or bench_throughput (their
machine-readable lines start with ``{"bench"``; anything else is ignored)
and it compares a handful of headline numbers against the checked-in
baseline, failing (exit 1) when any regresses by more than the tolerance:

    build/bench/bench_table2      > /tmp/bench.ndjson
    build/bench/bench_throughput >> /tmp/bench.ndjson
    python3 tools/perf_gate.py /tmp/bench.ndjson

Gated metrics (lower_is_better marked "<"):
    table2.search_ms_total   <  sum of stats.time_search_ms over solved rows
    table2.total_ms_total    <  sum of total_ms over all table2 rows
    throughput.best_rps      >  max req/s across the worker sweep
    throughput.warm_rps      >  req/s of the warm-cache ablation row
    netload.rps              >  req/s sustained through the daemon's wire
                                path (sekitei_load record, max across runs)
    driftload.speedup        >  full-replan p50 over incremental-repair p50
                                on the drift bench (bench_drift record)
    symmetry.speedup         >  unpruned p50 over twin-pruned p50 on the
                                symmetric-star bench (bench_symmetry record,
                                max across families)
    symmetry.pruned_p50_ms   <  twin-pruned p50 of the bench_symmetry "star"
                                record; each timed run includes compile and
                                attach_symmetry, so a faster search lowers
                                the speedup ratio while both sides speed up,
                                and this absolute time keeps the pruned path
                                guarded
    cp.speedup               >  CP-without-symmetry p50 over CP-with on the
                                symmetric-star bench (bench_cp "star" record;
                                the table2 comparison rows carry no speedup
                                key)
    cp.table2_ms_total       <  sum of cp_ms over the bench_cp "table2"
                                records; the baseline pins the row set
                                too, and a stream with other rows fails

Answers: every bench_table2 row's plan_found, cost_lb and plan_actions must
equal the row pinned under "table2_answers" in the baseline, so a faster
but wrong search fails too.  When the input holds table2 rows, a pinned row
missing from it, or a row with no pin, fails.

A metric missing from the input is skipped (so the gate can run on a
table2-only stream); a metric missing from the baseline fails unless
--update is given.  --update rewrites the baseline (metrics and answers)
from the current run.
Tolerance: --tolerance X or PERF_GATE_TOLERANCE (fraction, default 0.30 —
CI noise on shared runners makes tighter gates flaky).

Exit codes: 0 ok / 1 regression / 2 usage or input error.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines", "baseline.json")
SCHEMA_MAJOR = 1  # mirrors benchjson::kSchemaVersion
ANSWER_KEYS = ("plan_found", "cost_lb", "plan_actions")
COST_EPS = 1e-6


def collect(paths):
    """Extract the gated metrics and the Table-2 answers from bench NDJSON files."""
    table2_search, table2_total = [], []
    answers = {}
    best_rps, warm_rps, netload_rps, drift_speedup = None, None, None, None
    symmetry_speedup, symmetry_pruned, cp_speedup = None, None, None
    cp_table2_ms, cp_table2_rows = [], []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith('{"bench"'):
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if int(rec.get("v", 1)) > SCHEMA_MAJOR:
                    sys.exit(f"error: bench record schema v{rec['v']} is newer "
                             f"than this gate understands (v{SCHEMA_MAJOR})")
                name = rec.get("bench")
                if name == "table2":
                    row = f"{rec.get('net')}/{rec.get('scenario')}"
                    answers[row] = {k: rec[k] for k in ANSWER_KEYS if k in rec}
                    if "total_ms" in rec:
                        table2_total.append(float(rec["total_ms"]))
                    stats = rec.get("stats") or {}
                    if rec.get("plan_found") and "time_search_ms" in stats:
                        table2_search.append(float(stats["time_search_ms"]))
                elif name == "throughput":
                    rps = float(rec.get("rps", 0.0))
                    best_rps = rps if best_rps is None else max(best_rps, rps)
                elif name == "throughput_cache" and rec.get("cache") == "warm":
                    warm_rps = float(rec.get("rps", 0.0))
                elif name == "netload":
                    rps = float(rec.get("rps", 0.0))
                    netload_rps = (rps if netload_rps is None
                                   else max(netload_rps, rps))
                elif name == "driftload":
                    sp = float(rec.get("speedup", 0.0))
                    drift_speedup = (sp if drift_speedup is None
                                     else max(drift_speedup, sp))
                elif name == "symmetry":
                    sp = float(rec.get("speedup", 0.0))
                    symmetry_speedup = (sp if symmetry_speedup is None
                                        else max(symmetry_speedup, sp))
                    if rec.get("family") == "star" and "pruned_p50_ms" in rec:
                        ms = float(rec["pruned_p50_ms"])
                        symmetry_pruned = (ms if symmetry_pruned is None
                                           else min(symmetry_pruned, ms))
                elif name == "cp" and "speedup" in rec:
                    sp = float(rec["speedup"])
                    cp_speedup = (sp if cp_speedup is None
                                  else max(cp_speedup, sp))
                elif name == "cp" and rec.get("family") == "table2":
                    cp_table2_ms.append(float(rec["cp_ms"]))
                    cp_table2_rows.append(f"{rec.get('net')}/{rec.get('scenario')}")

    current = {}
    if table2_search:
        current["table2.search_ms_total"] = {
            "value": round(sum(table2_search), 3), "lower_is_better": True}
    if table2_total:
        current["table2.total_ms_total"] = {
            "value": round(sum(table2_total), 3), "lower_is_better": True}
    if best_rps is not None:
        current["throughput.best_rps"] = {
            "value": round(best_rps, 3), "lower_is_better": False}
    if warm_rps is not None:
        current["throughput.warm_rps"] = {
            "value": round(warm_rps, 3), "lower_is_better": False}
    if netload_rps is not None:
        current["netload.rps"] = {
            "value": round(netload_rps, 3), "lower_is_better": False}
    if drift_speedup is not None:
        current["driftload.speedup"] = {
            "value": round(drift_speedup, 3), "lower_is_better": False}
    if symmetry_speedup is not None:
        current["symmetry.speedup"] = {
            "value": round(symmetry_speedup, 3), "lower_is_better": False}
    if symmetry_pruned is not None:
        current["symmetry.pruned_p50_ms"] = {
            "value": round(symmetry_pruned, 3), "lower_is_better": True}
    if cp_speedup is not None:
        current["cp.speedup"] = {
            "value": round(cp_speedup, 3), "lower_is_better": False}
    if cp_table2_ms:
        # A sum only compares over the same rows, so the rows are pinned too.
        current["cp.table2_ms_total"] = {
            "value": round(sum(cp_table2_ms), 3), "lower_is_better": True,
            "rows": sorted(cp_table2_rows)}
    return current, answers


def answer_failures(answers, pinned):
    """Rows whose answer differs from the pinned one, or that lack a pin."""
    failures = []
    for row in sorted(set(answers) | set(pinned)):
        got, want = answers.get(row), pinned.get(row)
        if got is None or want is None:
            where = "input" if got is None else "baseline"
            failures.append(f"table2 {row}: missing from the {where}")
            continue
        for key in ANSWER_KEYS:
            a, b = got.get(key), want.get(key)
            if key == "cost_lb" and a is not None and b is not None:
                same = abs(float(a) - float(b)) <= COST_EPS
            else:
                same = a == b
            if not same:
                failures.append(f"table2 {row}: {key} {a} != pinned {b}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="bench NDJSON file(s)")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run instead of gating")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("PERF_GATE_TOLERANCE", "0.30")),
                    help="allowed relative regression (default 0.30)")
    args = ap.parse_args()

    current, answers = collect(args.files)
    if not current:
        sys.exit("error: no gateable bench records found in the input")

    if args.update:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        doc = {"schema": SCHEMA_MAJOR, "metrics": current}
        if answers:
            doc["table2_answers"] = answers
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"perf_gate: baseline updated with {len(current)} metric(s) and "
              f"{len(answers)} table2 answer(s) -> {args.baseline}")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as fh:
            doc = json.load(fh)
        baseline = doc["metrics"]
        pinned = doc.get("table2_answers", {})
    except (OSError, KeyError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read baseline {args.baseline}: {e} "
                 "(run with --update to create it)")

    failures = []
    if answers:
        wrong = answer_failures(answers, pinned)
        for line in wrong:
            print(f"perf_gate: FAIL {line}")
        if wrong:
            failures.append("table2.answers")
        else:
            print(f"perf_gate: ok   table2.answers: {len(answers)} row(s) match the pins")
    for name, cur in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: not in baseline (run --update)")
            continue
        if cur.get("rows") != base.get("rows"):
            print(f"perf_gate: FAIL {name}: rows {cur.get('rows')} != pinned "
                  f"{base.get('rows')}")
            failures.append(name)
            continue
        cur_v, base_v = cur["value"], float(base["value"])
        if base_v <= 0:
            continue  # nothing meaningful to compare against
        if cur["lower_is_better"]:
            ratio = cur_v / base_v
            verdict = ratio > 1.0 + args.tolerance
            direction = "slower"
        else:
            ratio = base_v / cur_v if cur_v > 0 else float("inf")
            verdict = ratio > 1.0 + args.tolerance
            direction = "lower"
        status = "FAIL" if verdict else "ok"
        print(f"perf_gate: {status:4s} {name}: current {cur_v:g} vs "
              f"baseline {base_v:g} ({(ratio - 1.0) * 100.0:+.1f}% {direction}, "
              f"tolerance {args.tolerance * 100.0:.0f}%)")
        if verdict:
            failures.append(name)

    if failures:
        print(f"perf_gate: {len(failures)} regression(s): {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("perf_gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
