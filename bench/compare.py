#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that bench/run.py appends to its --out file.
For every (workload, end-to-end metric) it prints both medians and
quartiles, each side's spread (quartile distance over median) and a
verdict against the metric's bound in BENCHMARK.json:

- better: every change run beats every base run, or the change's median
  is better by more than the base spread and it wins at least nine
  tenths of the runs paired by seed;
- unresolved: either side's spread is wider than the bound;
- worse: the change's median is worse than the base median by more than
  the bound;
- unchanged: otherwise.

Untraced metrics that a workload reports beyond BENCHMARK.json (the job
latency percentiles of lattice-reduce) get the same row with no verdict.
Traced records (--trace 1) give the per-layer deltas, one row per metric
that is non-zero on either side.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    by_key = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                by_key[rec["workload"], rec["trace"]].append(rec)
    return by_key


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better=True) -> str:
    """base and change map seed -> value."""
    sign = 1 if lower_is_better else -1
    b1, bm, b3 = quartiles(list(base.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    b_spread = (b3 - b1) / bm
    c_spread = (c3 - c1) / cm
    worse_by = sign * (cm - bm) / bm
    if all(sign * c < sign * b for c in change.values() for b in base.values()):
        return "better"
    if b_spread > bound or c_spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(base) & set(change))
    pairs = list(zip((base[s] for s in seeds), (change[s] for s in seeds)))
    if not pairs:
        pairs = list(zip(base.values(), change.values()))
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if -worse_by > b_spread and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def values(records, metric):
    return {r["seed"]: r["metrics"][metric]["value"] for r in records if metric in r["metrics"]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, change = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':<15} {'metric':<12} {'unit':<4} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'spread':>13} {'delta':>8}  verdict")
    for w in workloads:
        b_recs, c_recs = base.get((w, 0), []), change.get((w, 0), [])
        if not b_recs or not c_recs:
            print(f"{w:<15} (no untraced runs on {'base' if not b_recs else 'change'} side)")
            continue
        bounded = {m["name"]: m for m in spec["end_to_end"]}
        # Metrics a workload reports beyond BENCHMARK.json (the job
        # percentiles of lattice-reduce) get the same row without a verdict.
        names = list(bounded) + [n for n in b_recs[0]["metrics"] if n not in bounded]
        for name in names:
            b, c = values(b_recs, name), values(c_recs, name)
            if not b or not c:
                continue
            b1, bm, b3 = quartiles(list(b.values()))
            c1, cm, c3 = quartiles(list(c.values()))
            m = bounded.get(name)
            if m is None:
                v, unit = f"no bound (n={len(b)}/{len(c)})", b_recs[0]["metrics"][name]["unit"]
            else:
                v = f"{verdict(b, c, m['bound'], m['better'] == 'lower')} (bound {m['bound']}, n={len(b)}/{len(c)})"
                unit = m["unit"]
            print(f"{w:<15} {name:<12} {unit:<4} "
                  f"{bm:>12.6g} [{b1:.6g}, {b3:.6g}] {cm:>12.6g} [{c1:.6g}, {c3:.6g}] "
                  f"{(b3 - b1) / bm:6.3f}/{(c3 - c1) / cm:6.3f} {(cm - bm) / bm:+8.3f}  {v}")
        for side, recs in (("base", b_recs), ("change", c_recs)):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            print(f"{w:<15} {'error_rate':<12} {side}: {fail}/{att} failed jobs")

    print()
    print(f"{'workload':<15} {'per-layer metric (traced, medians)':<52} {'base':>14} {'change':>14} {'delta':>9}")
    for w in workloads:
        b_recs, c_recs = base.get((w, 1), []), change.get((w, 1), [])
        if not b_recs or not c_recs:
            continue
        for name in b_recs[0]["metrics"]:
            b = list(values(b_recs, name).values())
            c = list(values(c_recs, name).values())
            if not b or not c:
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            if bm == 0 and cm == 0:
                continue
            delta = f"{(cm - bm) / bm:+9.3f}" if bm else "      new"
            print(f"{w:<15} {name:<52} {bm:>14.6g} {cm:>14.6g} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
