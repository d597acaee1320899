"""Fast self-tests of the benchmark, at tiny sizes (about a minute).

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, BENCHMARK, OUT_DIR, REFERENCES, ROOT, WORKLOADS  # noqa: E402


def run_bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.1",
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_line(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_the_benchmark_metrics(workload):
    code, lines = run_bench(workload, "--trace", "0")
    result = result_line(lines)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_with_nonnegative_self_times(workload):
    code, lines = run_bench(workload, "--trace", "1")
    result = result_line(lines)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    spans = json.loads((OUT_DIR / f"trace-{workload}-tiny-seed0.json").read_text())["spans"]
    assert spans and all(s["self_ns"] >= 0 and s["end_ns"] >= s["start_ns"] for s in spans)


def test_traced_counts_repeat_exactly():
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    first, second = (result_line(run_bench("bound-suite", "--trace", "1")[1])["metrics"] for _ in range(2))
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["calculus.series_A.calls"]["value"] == 30
    assert first["calculus.series_B.calls"]["value"] == 30


def test_wrong_reference_fails_every_iteration(tmp_path):
    refs = json.loads(REFERENCES.read_text())
    refs["tiny"]["outputs"]["theorem"]["calculus_sha256"] = "0" * 64
    wrong = tmp_path / "refs.json"
    wrong.write_text(json.dumps(refs))
    code, lines = run_bench("theorem", "--trace", "0", "--refs", str(wrong))
    result = result_line(lines)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("theorem", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_probe_samples_the_interval_and_restores_sigalrm():
    from probe import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4 and probe.speed > 0 and 0 < probe.spent < 0.35
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
