"""One workload in its own fresh process: set up, iterate, check, report.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON record
as the last line of its standard output.

Modes:
  --setup-only   import slln_lab and load the workload's config(s), then exit
                 (``run.py`` times this process from outside for setup_s);
  --trace 0      timed iterations until --seconds have passed, tracing off;
  --trace 1      a warm-up and a traced iteration, plus (dense-inserts)
                 one traced iteration on the worker pool, giving the
                 per-layer metrics and the tracing overhead;
  --record       one unchecked iteration at one worker, printing its outputs
                 (``record_refs.py`` stores them as the references).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from common import OUT_DIR, REFERENCES, SIZES, SRC_DIR, WORKLOADS, checkout_problem, pool_workers
from probe import SpeedProbe


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def iteration(wl, want: dict, first: dict | None, probe: SpeedProbe | None = None) -> dict:
    """Run, time and check one iteration.  An exception is a failed iteration.

    With a ``probe``, the times are read at the probe's nominal host speed:
    the probe's own time is taken out and the rest multiplied by the speed
    it sampled during the iteration.  ``raw_wall_s`` keeps the wall time
    before that multiplication.
    """
    from workloads import check

    wl.prepare()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    out = None
    try:
        with probe or contextlib.nullcontext():
            wl.run()
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        out = wl.outputs()
        problems = check(wl, out, want, first)
    except Exception:  # the iteration boundary: record, report, keep measuring
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        problems = ["raised: " + traceback.format_exc(limit=4)]
    speed = 1.0
    if probe:
        wall, cpu, speed = wall - probe.spent, cpu - probe.spent, probe.speed
    return {"wall_s": wall * speed, "cpu_s": cpu * speed, "raw_wall_s": wall, "host_speed": speed,
            "work": wl.work(), "problems": problems, "outputs": out}


def timed(wl, want: dict, seconds: float) -> list[dict]:
    """Whole iterations for about ``seconds``; at least one.

    Another iteration starts only if it would end less than half an
    iteration past ``seconds``, so a run lasts about ``seconds`` on average
    whatever the iteration length.
    """
    runs: list[dict] = []
    probe = SpeedProbe()
    start = time.perf_counter()
    first = None
    while not runs or (time.perf_counter() - start) * (1 + 0.5 / len(runs)) < seconds:
        runs.append(iteration(wl, want, first, probe))
        first = first or runs[-1]["outputs"]
    return runs


def check_against_one_worker(wl, runs: list[dict]) -> None:
    """No reference exists on this seed: the pool must reproduce one worker.

    Runs after the timed iterations so that it leaves the peak RSS alone."""
    solo = _with_workers(wl, 1, lambda: iteration(wl, {}, None))
    for run in runs:
        if solo["outputs"] is None:
            run["problems"].append("the one-worker run failed: " + "; ".join(solo["problems"]))
        elif run["outputs"] and run["outputs"]["deviations_sha256"] != solo["outputs"]["deviations_sha256"]:
            run["problems"].append(f"deviations.csv at {wl.workers} workers differs from the one-worker run")


def _with_workers(wl, workers: int, fn):
    saved, wl.workers = wl.workers, workers
    try:
        return fn()
    finally:
        wl.workers = saved


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _buffer_bytes(wl) -> int:
    """Peak bytes NumPy and Python allocate inside one run_path call (path 0),
    measured with tracemalloc after the ensemble's sparsity pattern is built."""
    if not hasattr(wl, "spec"):
        return 0
    from slln_lab.mixture import run_path

    config = wl.spec.mixed_config()
    config.pattern.alpha(config.horizon)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_path(config.with_path(0), wl.spec.checkpoints)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def layer_metrics(t, overhead_s: float, pool_overhead_s: float, buffer_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration."""
    c = t.counters
    in_path = c["schedules.value.points_in_path"]
    path_ms = t.span_ms("mixture.run_path")
    return {
        "rng.uniforms.s": t.total_s("rng.uniforms"),
        "rng.uniforms.count": c["rng.uniforms.count"],
        "schedules.alpha.s": t.total_s("schedules.alpha"),
        "schedules.value.s": t.total_s("schedules.value"),
        "schedules.value.points": c["schedules.value.points"],
        "schedules.value.calls": c["schedules.value.calls"],
        "schedules.value.useful_ratio": c["mixture.inserts_used"] / in_path if in_path else 0.0,
        "schedules.insert_positions.s": t.total_s("schedules.insert_positions"),
        "generators.x_sample.s": t.total_s("generators.x_sample"),
        "generators.x_sample.values": c["generators.x_sample.values"],
        "generators.y_sample.s": t.total_s("generators.y_sample"),
        "mixture.run_path.s": t.total_s("mixture.run_path"),
        "mixture.run_path.self_s": t.self_s("mixture.run_path"),
        "mixture.path_ms_p50": _percentile(path_ms, 50),
        "mixture.path_ms_p90": _percentile(path_ms, 90),
        "mixture.buffer_bytes": buffer_bytes,
        "diagnostics.suffix_sup.s": t.total_s("diagnostics.suffix_sup"),
        "diagnostics.aggregate.s": t.total_s("diagnostics.aggregate"),
        "diagnostics.pool_overhead_s": pool_overhead_s,
        "calculus.bound_suite.s": t.total_s("calculus.bound_suite"),
        "calculus.series_A.calls": t.calls("calculus.series_A"),
        "calculus.series_A.s": t.total_s("calculus.series_A"),
        "calculus.series_B.calls": t.calls("calculus.series_B"),
        "calculus.series_B.s": t.total_s("calculus.series_B"),
        "calculus.weighted_series.s": t.total_s("calculus.weighted_series")
        - t.total_s("schedules.insert_positions", parent="calculus.weighted_series"),
        "quadrature.simpson.s": t.total_s("quadrature.simpson"),
        "quadrature.simpson.calls": t.calls("quadrature.simpson"),
        "quadrature.f_evals": c["quadrature.f_evals"],
        "hypotheses.verify.s": t.total_s("hypotheses.verify"),
        "cli.hypotheses.s": t.total_s("hypotheses.verify", parent="cli.run"),
        "cli.calculus.s": t.total_s("calculus.bound_suite", parent="cli.run"),
        "cli.simulate.s": t.total_s("diagnostics.run_ensemble", parent="cli.run"),
        "cli.write.s": t.total_s("cli.write_calculus_csv") + t.total_s("cli.write_deviations_csv")
        + t.self_s("cli.run"),
        "trace.overhead_s": overhead_s,
    }


def traced(wl, want: dict, trace_file: Path) -> tuple[list[dict], dict]:
    """A warm-up and a traced iteration at one worker: the layer metrics,
    and the tracing overhead estimated from the wrapped calls counted and
    each wrapper's calibrated cost.  The warm-up keeps the first
    iteration's cold start out of the layer times."""
    from spans import Tracer, wrapper_costs

    pooled = wl.workers
    warm = _with_workers(wl, 1, lambda: iteration(wl, want, None))
    tracer = Tracer()
    with tracer.installed():
        spanned = _with_workers(wl, 1, lambda: iteration(wl, want, warm["outputs"]))
    runs = [warm, spanned]
    pool_overhead = 0.0
    if pooled > 1:
        # spans are recorded in this process only: run_ensemble, aggregate, cli
        parent_side = Tracer()
        with parent_side.installed():
            runs.append(iteration(wl, want, warm["outputs"]))
        ideal = tracer.total_s("mixture.run_path") / pooled
        pool_overhead = (
            parent_side.total_s("diagnostics.run_ensemble") - parent_side.total_s("diagnostics.aggregate") - ideal
        )
    tracer.dump(trace_file)
    metrics = layer_metrics(tracer, tracer.overhead_s(wrapper_costs()), pool_overhead, _buffer_bytes(wl))
    return runs, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--refs", type=Path, default=REFERENCES)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="print one iteration's outputs instead of checking them")
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import slln_lab

    if not Path(slln_lab.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"bench: slln_lab imported from {slln_lab.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads

    scratch = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, args.size, pool_workers(), scratch)
    wl.setup()
    if args.setup_only:
        return 0
    try:
        if args.record:
            run = _with_workers(wl, 1, lambda: iteration(wl, {}, None))
            print(json.dumps({"outputs": run["outputs"], "problems": run["problems"]}))
            return 0 if run["outputs"] is not None else 1
        refs = json.loads(args.refs.read_text())
        ref = refs[args.size]
        want = workloads.expected(wl, ref["outputs"][args.workload], ref["seed"])
        record = {"workload": wl.name, "seed": wl.seed, "size": wl.size, "workers": wl.workers,
                  "work_unit": wl.work_unit}
        if args.trace:
            trace_file = OUT_DIR / f"trace-{wl.name}-{wl.size}-seed{wl.seed}.json"
            runs, record["layers"] = traced(wl, want, trace_file)
            record["trace_file"] = str(trace_file.relative_to(OUT_DIR.parent))
        else:
            runs = timed(wl, want, args.seconds)
            record["peak_rss_mib"] = _peak_rss_mib()
            if wl.workers > 1 and wl.seed != ref["seed"]:
                check_against_one_worker(wl, runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["iterations"] = [{k: r[k] for k in ("wall_s", "cpu_s", "raw_wall_s", "host_speed", "work", "problems")}
                            for r in runs]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
