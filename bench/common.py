"""Shared definitions of the benchmark: paths, metric names, statistics and
provenance.

Only the standard library is imported here, so the parent process (run.py) stays
light and can report a missing checkout before anything heavy loads.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("theorem", "dense-inserts", "bound-suite", "weighted-series")
SIZES = ("full", "tiny")

# The metrics, with their units, directions and bounds, are listed once, in
# BENCHMARK.json; (name, unit, better) tuples of them are kept here.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"])
# failed_frac is 0 on a healthy tree, so it cannot be a ratio-bounded metric;
# it rides in the result line's ``attempted``/``failed`` counts and in the
# tables and result files.
FAILED_FRAC = ("failed_frac", "ratio", "lower")


def pool_workers() -> int:
    """Worker count for the pooled workload: the CPUs this process may use.

    Capped at 4 so that a large machine does not hold dozens of 90 MB
    workers at once; the cap never exceeds nproc.
    """
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def checkout_problem() -> str | None:
    """Why the program cannot be benchmarked from this checkout, if it cannot."""
    if not (SRC_DIR / "slln_lab" / "__init__.py").is_file():
        return f"no slln_lab sources under {SRC_DIR.name}/ in {ROOT}"
    return None


def child_env() -> dict:
    """Environment for child processes: the package comes from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of a nonempty list of samples."""
    vals = sorted(float(v) for v in values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC_DIR.rglob("*.py")))


def provenance() -> dict:
    """Where and on what a result was measured.  The src/ line count is
    metadata for the simplicity aim, not a gated metric."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_git else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pool_workers": pool_workers(),
        "src_lines": src_line_count() if SRC_DIR.is_dir() else None,
    }
