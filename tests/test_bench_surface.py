"""The benchmark under ``bench/`` imports the package and calls it by name.

A traced run of each workload at the self-test size must still run and
match its reference outputs, so no change to ``src/`` breaks a name or a
signature that the benchmark reaches (about 1 s a workload).  The spans
each workload exercises must still see it, so no change to ``src/`` moves
work out from under a wrapped name and leaves its metric at zero.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# per workload, the traced metrics that must read above zero, and those pinned to a count
LIVE = {
    "theorem": ["mixture.run_path.s", "diagnostics.suffix_sup.s", "generators.x_sample.values",
                "generators.y_sample.s"],
    "dense-inserts": ["generators.y_sample.s"],
    "weighted-series": ["schedules.insert_positions.s"],
}
COUNTS = {"bound-suite": {"calculus.series_A.calls": 15, "calculus.series_B.calls": 3}}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert {name: metrics[name] for name in LIVE.get(workload, []) if not metrics[name] > 0} == {}
    for name, count in COUNTS.get(workload, {}).items():
        assert metrics[name] == count, name
