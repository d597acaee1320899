"""Compare two result files: the parent commit's and a change's.

    python3 bench/compare.py .bench_out/parent.json .bench_out/change.json

For each workload and end-to-end metric it prints each side's median and
quartiles over runs, and how many run pairs the change won (run i of one
file against run i of the other; ties count for neither).  Then it reads
the metric against the regression bound fixed in BENCHMARK.json:

  REGRESSION   the change's median is worse than the parent's by more
               than the bound;
  unresolved   the parent's own spread (q3 - q1, as a share of its
               median) is wider than the bound, and not every run of the
               change beats every run of the parent;
  gain         the change won at least 9 in 10 pairs and the medians
               differ by more than the parent's spread;
  same         none of the above.

The exit status is 1 if any metric regressed or more iterations failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import BENCHMARK, END_TO_END, PER_LAYER, summarize


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def judge(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, dict, dict, int, int]:
    p, c = summarize(parent), summarize(change)
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if _better(b, a, better))
    spread = (p["q3"] - p["q1"]) / abs(p["median"]) if p["median"] else 0.0
    worse = (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    if better == "higher":
        worse = -worse
    every_run_better = all(_better(b, a, better) for a in parent for b in change)
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif pairs and won >= 0.9 * len(pairs) and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        verdict = "gain"
    else:
        verdict = "same"
    return verdict, p, c, won, len(pairs)


def _values(runs: list[dict], workload: str, name: str, trace: bool) -> list[float]:
    return [r["metrics"][name]["median"] for r in runs
            if r["workload"] == workload and bool(r["trace"]) == trace and name in r["metrics"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two slln-lab benchmark result files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    parent, change = (json.loads(p.read_text()) for p in (args.parent, args.change))
    for label, res in (("parent", parent), ("change", change)):
        prov = res["provenance"]
        print(f"{label}: {prov['git_sha'][:12]} dirty={prov['git_dirty']} nproc={prov['nproc']} "
              f"cpu={prov['cpu_model']!r} numpy={prov['numpy']} src_lines={prov['src_lines']}")
    bad = False
    workloads = sorted({r["workload"] for r in parent["runs"]} & {r["workload"] for r in change["runs"]})
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} {'won':>7s}  verdict")
        for name, unit, better in END_TO_END:
            pv, cv = (_values(res["runs"], workload, name, False) for res in (parent, change))
            if not pv or not cv:
                continue
            verdict, p, c, won, n = judge(pv, cv, better, bounds[name])
            bad |= verdict == "REGRESSION"
            print(f"  {name:14s} {p['median']:10.5g} [{p['q1']:.5g}, {p['q3']:.5g}] {unit:6s}"
                  f"  {c['median']:10.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {unit:6s} {won:3d}/{n:<3d}  {verdict}"
                  f"  (bound {bounds[name]:.0%})")
        counts = []
        for res in (parent, change):
            mine = [r for r in res["runs"] if r["workload"] == workload]
            counts.append((sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)))
        more_failures = counts[1][0] / max(counts[1][1], 1) > counts[0][0] / max(counts[0][1], 1)
        bad |= more_failures
        print(f"  {'failed_frac':14s} parent {counts[0][0]}/{counts[0][1]}  change {counts[1][0]}/{counts[1][1]}"
              f"  {'MORE FAILURES' if more_failures else 'same'}")
        for name, unit, _ in PER_LAYER:
            pv, cv = (_values(res["runs"], workload, name, True) for res in (parent, change))
            if pv and cv:
                print(f"  {name:32s} {summarize(pv)['median']:12.6g} -> {summarize(cv)['median']:12.6g} {unit}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
