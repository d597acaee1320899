"""The four benchmark workloads.

Each workload knows how to set itself up, run one iteration, say how much
work an iteration does, and summarise an iteration's outputs in a form that
is compared with the references recorded in ``references.json``.

Output keys are split in two.  Seed-free keys (the series bounds, the
hypothesis statuses, ``calculus.csv``, the insert positions) are compared
with the reference on every seed.  Seeded keys are compared exactly only on
the reference seed; on any other seed the workload checks the invariants
that hold for every seed instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

from slln_lab import calculus, cli, hypotheses
from slln_lab.generators import TailEnvelope
from slln_lab.schedules import MomentSchedule, ScheduleForm, validate_schedule

FIXTURES = ("theorem.json", "pure-x.json", "violate-sparsity.json", "violate-x-mean.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _d_nonincreasing(deviations: Path) -> bool:
    """Every D quantile column is nonincreasing across checkpoints."""
    header, rows = _read_csv(deviations)
    for col in ("median_D", "q90_D", "q99_D"):
        j = header.index(col)
        values = [float(r[j]) for r in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            return False
    return True


def _min_slack(rows: list[tuple[float, float]]) -> float:
    return min(bound - value for value, bound in rows)


class Workload:
    """One named workload at one size and seed."""

    name = ""
    seed_free: tuple[str, ...] = ()
    work_unit = ""
    pooled = False  # runs on the worker pool; every other workload uses one worker

    def __init__(self, seed: int, size: str, workers: int, scratch: Path) -> None:
        self.seed = seed % 2 ** 64
        self.size = size
        self.workers = workers
        self.scratch = scratch

    def setup(self) -> None:
        """Import-time work plus loading and validating the config(s)."""

    def work(self) -> float:
        raise NotImplementedError

    def run(self) -> None:
        """One timed iteration.  Its outputs are left for :meth:`outputs`."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed step before each iteration: clear the last outputs."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)

    def outputs(self) -> dict:
        raise NotImplementedError

    def invariants(self, out: dict) -> list[str]:
        """Problems with outputs that hold on every seed."""
        return []


class _CliWorkload(Workload):
    """A workload that is one ``slln run`` invocation of a bundled config."""

    config = ""
    subcommand = ""
    SIZE: dict = {}

    def setup(self) -> None:
        paths, horizon = self.SIZE[self.size]
        spec = cli.load_config(self.config)
        spec = replace(spec, seed=self.seed, n_paths=paths, horizon=horizon,
                       checkpoints=cli._clip_checkpoints(spec.checkpoints, horizon))
        spec.validate()
        self.spec = spec

    def work(self) -> float:
        paths, horizon = self.SIZE[self.size]
        return float(paths * horizon)

    def run(self) -> None:
        paths, horizon = self.SIZE[self.size]
        self.exit_code = cli.main([
            "run", self.config, "--subcommand", self.subcommand, "--threads", str(self.workers),
            "--seed", str(self.seed), "--paths", str(paths), "--horizon", str(horizon),
            "--out", str(self.scratch),
        ])

    def _report(self) -> dict:
        return json.loads((self.scratch / "report.json").read_text())


class Theorem(_CliWorkload):
    """``slln run theorem.json --subcommand all`` at one worker."""

    name = "theorem"
    config = "theorem.json"
    subcommand = "all"
    seed_free = ("calculus_sha256", "hypotheses")
    work_unit = "sequence values (paths x horizon)"
    SIZE = {"full": (200, 10 ** 6), "tiny": (4, 20_000)}

    def outputs(self) -> dict:
        report = self._report()
        _, rows = _read_csv(self.scratch / "calculus.csv")
        pairs = [(float(r[i]), float(r[i + 1])) for r in rows for i in (2, 4, 6)]
        return {
            "exit_code": self.exit_code,
            "verdict": report["status"]["convergence"],
            "deviations_sha256": _sha256(self.scratch / "deviations.csv"),
            "calculus_sha256": _sha256(self.scratch / "calculus.csv"),
            "hypotheses": [[e["id"], e["status"]] for e in report["hypotheses"]["entries"]],
            "d_nonincreasing": _d_nonincreasing(self.scratch / "deviations.csv"),
            "slack_nonnegative": _min_slack(pairs) >= 0.0,
        }

    def invariants(self, out: dict) -> list[str]:
        problems = []
        if not out["d_nonincreasing"]:
            problems.append("D quantiles increase across checkpoints")
        if not out["slack_nonnegative"]:
            problems.append("negative slack in calculus.csv")
        if self.size == "full" and (out["verdict"] != "CONVERGENT" or out["exit_code"] != 0):
            problems.append(f"expected CONVERGENT with exit 0, got {out['verdict']} exit {out['exit_code']}")
        return problems


class DenseInserts(_CliWorkload):
    """``slln run violate-sparsity.json --horizon 1e6 --subcommand simulate``
    on the worker pool; every index is a heavy insert."""

    name = "dense-inserts"
    config = "violate-sparsity.json"
    subcommand = "simulate"
    pooled = True
    work_unit = "sequence values (paths x horizon)"
    SIZE = {"full": (100, 10 ** 6), "tiny": (4, 20_000)}

    def outputs(self) -> dict:
        report = self._report()
        return {
            "exit_code": self.exit_code,
            "verdict": report["status"]["convergence"],
            "deviations_sha256": _sha256(self.scratch / "deviations.csv"),
            "d_nonincreasing": _d_nonincreasing(self.scratch / "deviations.csv"),
        }

    def invariants(self, out: dict) -> list[str]:
        problems = []
        if not out["d_nonincreasing"]:
            problems.append("D quantiles increase across checkpoints")
        if self.size == "full" and (out["verdict"] == "CONVERGENT" or out["exit_code"] != 1):
            problems.append(f"expected a non-CONVERGENT verdict with exit 1, got {out['verdict']} exit {out['exit_code']}")
        return problems


class BoundSuite(Workload):
    """``calculus.bound_suite()`` over its default grid, then
    ``hypotheses.verify_hypotheses`` on each bundled fixture."""

    name = "bound-suite"
    seed_free = ("bounds", "hypotheses")
    work_unit = "bound checks"
    TRUNCATION = {"full": calculus.DEFAULT_TRUNCATION, "tiny": 10 ** 4}

    def setup(self) -> None:
        self.specs = [cli.load_config(name) for name in FIXTURES]

    def prepare(self) -> None:
        self.rows = self.reports = None

    def work(self) -> float:
        return 3.0 * 3 * len(calculus.DEFAULT_PS)  # 3 envelopes x 5 p x (A, B, A+B)

    def run(self) -> None:
        self.rows = calculus.bound_suite(truncation=self.TRUNCATION[self.size])
        self.reports = [
            hypotheses.verify_hypotheses(spec.mixed_config(), infrequency_threshold=spec.infrequency_threshold)
            for spec in self.specs
        ]

    def outputs(self) -> dict:
        pairs = [(r[k], r["bound_" + k]) for r in self.rows for k in ("A", "B", "combined")]
        return {
            "bounds": [[r["envelope"], repr(r["p"]), repr(r["A"]), repr(r["B"]), repr(r["combined"])]
                       for r in self.rows],
            "hypotheses": {name: [[e.id, e.status] for e in rep.entries]
                           for name, rep in zip(FIXTURES, self.reports)},
            "slack_nonnegative": _min_slack(pairs) >= 0.0,
        }

    def invariants(self, out: dict) -> list[str]:
        return [] if out["slack_nonnegative"] else ["negative slack in the bound suite"]


class WeightedSeries(Workload):
    """``calculus.weighted_y_series_ensemble``: Pareto(2), inv_sqrt_log, c=1."""

    name = "weighted-series"
    seed_free = ("positions_sha256", "n_positions")
    work_unit = "heavy inserts summed (k_max x paths)"
    SIZE = {"full": (10 ** 4, 100), "tiny": (200, 4)}

    def setup(self) -> None:
        self.envelope = TailEnvelope.pareto(2.0)
        self.schedule = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
        validate_schedule(self.schedule, 10 ** 5)

    def prepare(self) -> None:
        self.positions = self.ensemble = None

    def work(self) -> float:
        k_max, paths = self.SIZE[self.size]
        return float(k_max * paths)

    def run(self) -> None:
        k_max, paths = self.SIZE[self.size]
        # The ensemble does not return the insert positions it searched for;
        # catch them on the way through so they can be checked.
        search = calculus.y_insertion_positions

        def tap(*args, **kwargs):
            self.positions = search(*args, **kwargs)
            return self.positions

        calculus.y_insertion_positions = tap
        try:
            self.ensemble = calculus.weighted_y_series_ensemble(
                self.envelope, self.schedule, c=1.0, k_max=k_max, n_paths=paths, master_seed=self.seed
            )
        finally:
            calculus.y_insertion_positions = search

    def outputs(self) -> dict:
        increments = [float(x) for x in self.ensemble.increments]
        return {
            "positions_sha256": hashlib.sha256(repr(list(self.positions)).encode()).hexdigest(),
            "n_positions": len(self.positions),
            "increments_sha256": hashlib.sha256(repr(increments).encode()).hexdigest(),
            "fraction_converged": repr(self.ensemble.fraction_converged),
            "increments_in_unit_interval": all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in increments),
        }

    def invariants(self, out: dict) -> list[str]:
        return [] if out["increments_in_unit_interval"] else ["an increment lies outside [0, 1]"]


WORKLOAD_TYPES = {w.name: w for w in (Theorem, DenseInserts, BoundSuite, WeightedSeries)}


def make(name: str, seed: int, size: str, workers: int, scratch: Path) -> Workload:
    cls = WORKLOAD_TYPES[name]
    return cls(seed, size, workers if cls.pooled else 1, scratch)


def expected(workload: Workload, reference: dict, ref_seed: int) -> dict:
    """The reference outputs that apply to this workload's seed."""
    if workload.seed == ref_seed:
        return dict(reference)
    return {k: reference[k] for k in workload.seed_free}


def check(workload: Workload, out: dict, want: dict, first: dict | None) -> list[str]:
    """Problems with one iteration's outputs.

    ``want`` holds the outputs this iteration must reproduce; ``first`` is
    the first iteration of this run, which every later one must repeat.
    """
    problems = list(workload.invariants(out))
    for key, value in want.items():
        if out.get(key) != value:
            problems.append(f"{key}: {out.get(key)!r} differs from the reference {value!r}")
    if first is not None and out != first:
        problems.append("outputs differ from the first iteration of this run")
    return problems
