"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload theorem --seed 0 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  The program is taken
from ``src/`` of the same checkout.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
The exit status is 0 when every iteration's outputs matched the references,
1 when some did not, and 2 or 3 when nothing could be measured (no result
line is printed then).

This process stays light: set-up is timed in fresh child processes, and the
workload runs in a child process of its own (``harness.py``), whose peak
memory and CPU time are what the metrics report.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    BENCHMARK,
    END_TO_END,
    FAILED_FRAC,
    PER_LAYER,
    REFERENCES,
    ROOT,
    SIZES,
    WORKLOADS,
    checkout_problem,
    child_env,
    provenance,
    summarize,
)

DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_RUNS = {"full": 5, "tiny": 1}  # fresh processes timed for setup_s


class BenchError(Exception):
    """A child process failed or ran out of time; nothing to report."""


def run_harness(args: list[str], timeout: float) -> str:
    """Run a harness child in its own process group; return its stdout."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "harness.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"harness {' '.join(args)} ran out of time")
    finally:
        # pool workers left behind by a crashed child die with its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:  # the group is already gone
            pass
    if proc.returncode != 0:
        raise BenchError(f"harness {' '.join(args)} exited with {proc.returncode}")
    return out


def measure_setup(workload: str, size: str, runs: int, deadline: float) -> list[float]:
    """Wall seconds of fresh processes that import slln_lab and load the
    workload's config(s).  Unlike the iteration times, these are the
    clock's reading: a host-speed probe inside so short and cold a process
    made them noisier, not steadier."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run_harness(["--workload", workload, "--size", size, "--setup-only"], deadline - time.monotonic())
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(record: dict, setup: list[float]) -> dict:
    """End-to-end metrics: medians over iterations whose outputs matched."""
    iters = record["iterations"]
    good = [it for it in iters if not it["problems"]] or iters
    failed = sum(1 for it in iters if it["problems"])
    stats = {
        "setup_s": summarize(setup),
        "wall_s": summarize([it["wall_s"] for it in good]),
        "cpu_s": summarize([it["cpu_s"] for it in good]),
        "work_per_s": summarize([it["work"] / it["wall_s"] for it in good]),
        "peak_rss_mb": summarize([record["peak_rss_mib"]]),
        "failed_frac": summarize([failed / len(iters)]),
    }
    return {name: dict(stats[name], unit=unit) for name, unit, _ in END_TO_END + (FAILED_FRAC,)}


def per_layer(record: dict) -> dict:
    layers = record["layers"]
    return {name: {"median": layers[name], "q1": layers[name], "q3": layers[name], "n": 1, "unit": unit}
            for name, unit, _ in PER_LAYER}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(record: dict, metrics: dict, trace: int) -> None:
    iters = record["iterations"]
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  "
          f"workers {record['workers']}  iterations {len(iters)}  work unit: {record['work_unit']}")
    for name, m in metrics.items():
        spread = f"  (q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}, n {m['n']})" if m["n"] > 1 else ""
        print(f"  {name:32s} {_fmt(m['median']):>14s} {m['unit']}{spread}")
    if trace:
        print(f"  spans written to {record['trace_file']}")
    else:
        raw = statistics.median(it["raw_wall_s"] for it in iters)
        speed = statistics.median(it["host_speed"] for it in iters)
        print(f"  wall_s before the host-speed correction: {_fmt(raw)} s, at a median host speed of {_fmt(speed)}")
    for i, it in enumerate(iters):
        for problem in it["problems"]:
            print(f"iteration {i}: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one slln-lab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (reference seed: 0)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"], help="measure whole iterations for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: self-test sizes")
    parser.add_argument("--refs", type=Path, default=REFERENCES, help="reference outputs to check against")
    parser.add_argument("--result", type=Path, help="also write the run, with provenance, to this file")
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.size, SETUP_RUNS[args.size], deadline)
        out = run_harness(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--refs", str(args.refs.resolve())],
            deadline - time.monotonic(),
        )
        record = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    metrics = per_layer(record) if args.trace else end_to_end(record, setup)
    report(record, metrics, args.trace)
    attempted = len(record["iterations"])
    failed = sum(1 for it in record["iterations"] if it["problems"])
    if args.result:
        args.result.parent.mkdir(parents=True, exist_ok=True)
        run = dict(record, trace=args.trace, seconds=args.seconds, attempted=attempted, failed=failed,
                   metrics=metrics)
        args.result.write_text(json.dumps({"provenance": provenance(), "runs": [run]}, indent=1) + "\n")
    names = [n for n, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["median"], "unit": metrics[n]["unit"]} for n in names},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
