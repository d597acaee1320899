"""Run every workload several times and write one result file.

    python3 bench/suite.py --runs 5 --out .bench_out/parent.json
    python3 bench/suite.py --runs 1 --trace --out .bench_out/traced.json

Runs are interleaved (run 1 of every workload, then run 2, ...) so that a
slow spell of the machine spreads over all workloads.  Each run measures
``run_seconds`` from BENCHMARK.json, and run ``i`` uses seed
``--first-seed + i``.  The table printed at the end shows, per workload,
every end-to-end metric by name and unit: the median over runs of each
run's median, with quartiles.  ``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, BENCHMARK, END_TO_END, FAILED_FRAC, OUT_DIR, PER_LAYER, ROOT, WORKLOADS, provenance, summarize


def run_once(workload: str, seed: int, trace: bool, tmp: Path) -> dict | None:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "1" if trace else "0", "--result", str(tmp)]
    tmp.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if not tmp.exists():
        print(f"suite: {workload} seed {seed} produced no result (exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(tmp.read_text())["runs"][0]


def table(runs: list[dict]) -> None:
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{workload}  ({len(mine)} runs, {attempted} iterations, work unit: {mine[0]['work_unit']})")
        plain = [r for r in mine if not r["trace"]]
        for name, unit, _ in END_TO_END if plain else ():
            s = summarize([r["metrics"][name]["median"] for r in plain])
            print(f"  {name:32s} {s['median']:14.6g} {unit:7s} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
        print(f"  {FAILED_FRAC[0]:32s} {failed / max(attempted, 1):14.6g} {FAILED_FRAC[1]:7s} "
              f"{failed} of {attempted} iterations")
        for r in mine:
            if r["trace"]:
                for name, unit, _ in PER_LAYER:
                    print(f"  {name:32s} {r['metrics'][name]['median']:14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run every slln-lab benchmark workload.")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "suite.json")
    args = parser.parse_args(argv)

    tmp = OUT_DIR / "suite-run.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(args.runs):
        for workload in WORKLOADS:
            run = run_once(workload, args.first_seed + i, args.trace, tmp)
            if run is not None:
                runs.append(run)
    tmp.unlink(missing_ok=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"provenance": provenance(), "runs": runs}, indent=1) + "\n")
    table(runs)
    print(f"wrote {args.out}")
    expected = args.runs * len(WORKLOADS)
    return 0 if len(runs) == expected and all(r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
