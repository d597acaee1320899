"""Ensemble convergence diagnostics.

Almost-sure convergence of the running averages is proxied by suffix-sup
deviations: D(n) = max over m in [n, N] of |S_m / m|.  D is nonincreasing
in n by construction, so an ensemble whose D quantiles shrink across
checkpoints is the finite-horizon witness of a strong law.  Verdicts are
read off ensemble quantiles, never off a single path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

DEFAULT_CHECKPOINTS = (10 ** 3, 10 ** 4, 10 ** 5, 5 * 10 ** 5, 10 ** 6)
DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.02, 0.01)


def suffix_sup(deviations: np.ndarray, checkpoints: Sequence[int]) -> np.ndarray:
    """D at each checkpoint from a complete |S_m/m| buffer (m = 1..N).

    The checkpoints cut the buffer into segments; each segment's max is
    taken once, and a reverse running max over those few segment maxima
    gives checkpoint n the max over [n, N].  NaN propagates like a value
    above every other.
    """
    buf = np.asarray(deviations, dtype=np.float64)
    if buf.ndim != 1 or buf.size == 0:
        raise ValueError("deviation buffer must be a nonempty 1-d array")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if np.any(cps < 1) or np.any(cps > buf.size):
        raise ValueError("checkpoints must lie in [1, len(buffer)]")
    starts, slot = np.unique(cps - 1, return_inverse=True)
    segment_max = np.maximum.reduceat(buf, starts)
    tail_max = np.maximum.accumulate(segment_max[::-1])[::-1]
    return tail_max[slot.reshape(cps.shape)]


@dataclass
class PathSummary:
    """Checkpoint statistics of one simulated path."""

    path_index: int
    horizon: int
    checkpoints: np.ndarray        # int64
    running_avg: np.ndarray        # S_n / n at each checkpoint
    deviation_sup: np.ndarray      # D(n) at each checkpoint
    insert_count: int              # number of heavy draws consumed
    max_abs_value: float           # max |Z_n| over the path
    final_avg: float               # S_N / N

    def __post_init__(self) -> None:
        # suffix maxima cannot increase with n
        d = self.deviation_sup
        if np.any(d[1:] > d[:-1]):
            raise AssertionError("suffix-sup deviations must be nonincreasing")


class Verdict(Enum):
    CONVERGENT = "CONVERGENT"
    INCONCLUSIVE = "INCONCLUSIVE"
    DIVERGENT = "DIVERGENT"


@dataclass
class ConvergenceReport:
    """Ensemble statistics of D across checkpoints, plus the verdict."""

    checkpoints: np.ndarray
    n_paths: int
    horizon: int
    master_seed: int
    epsilons: tuple[float, ...]
    median: np.ndarray
    q90: np.ndarray
    q99: np.ndarray
    fractions_above: dict[float, np.ndarray]
    verdict: Verdict | None = None
    epsilon_target: float | None = None
    fraction_target: float | None = None
    d_matrix: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "checkpoints": [int(c) for c in self.checkpoints],
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "seed": self.master_seed,
            "median_D": [float(v) for v in self.median],
            "q90_D": [float(v) for v in self.q90],
            "q99_D": [float(v) for v in self.q99],
            "fractions_above": {
                repr(eps): [float(v) for v in arr] for eps, arr in self.fractions_above.items()
            },
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.value
            out["epsilon_target"] = self.epsilon_target
            out["fraction_target"] = self.fraction_target
        return out


def _ensemble_quantile(values: np.ndarray, q: float) -> np.ndarray:
    # nearest-rank order statistics: with 2 paths the median is the 1st order stat
    return np.quantile(values, q, axis=0, method="inverted_cdf")


def verdict(report: ConvergenceReport, epsilon_target: float, fraction_target: float) -> Verdict:
    """Classify an ensemble report.

    CONVERGENT: at the final checkpoint fewer than ``fraction_target`` of
    paths have D above ``epsilon_target``, and the median D strictly
    decreases across the last three checkpoints (a median pinned at exactly
    zero counts as converged: there is nothing left to decrease).
    DIVERGENT: the final median is not finite, or the median strictly
    increases across the last three checkpoints.  Anything else is
    INCONCLUSIVE.
    """
    if epsilon_target not in report.fractions_above:
        raise ValueError(f"epsilon_target {epsilon_target} not among the tracked epsilons")
    if not np.isfinite(report.median[-1]):
        return Verdict.DIVERGENT
    frac_final = float(report.fractions_above[epsilon_target][-1])
    window = np.asarray(report.median[-3:], dtype=np.float64)
    diffs = np.diff(window)
    decreasing = bool(window[-1] == 0.0) or (diffs.size > 0 and bool(np.all(diffs < 0)))
    increasing = diffs.size > 0 and bool(np.all(diffs > 0))
    if frac_final < fraction_target and decreasing:
        return Verdict.CONVERGENT
    if increasing:
        return Verdict.DIVERGENT
    return Verdict.INCONCLUSIVE


def aggregate_paths(
    summaries: Sequence[PathSummary],
    epsilons: Sequence[float],
    master_seed: int,
    keep_d_matrix: bool = True,
) -> ConvergenceReport:
    """Deterministic reduction of per-path summaries, in path-index order."""
    if len(summaries) < 2:
        raise ValueError("an ensemble needs at least 2 paths")
    ordered = sorted(summaries, key=lambda s: s.path_index)
    checkpoints = ordered[0].checkpoints
    d = np.vstack([s.deviation_sup for s in ordered])
    # a non-finite D (NaN included) counts as above every epsilon
    fractions = {float(eps): (~(d <= eps)).mean(axis=0) for eps in epsilons}
    return ConvergenceReport(
        checkpoints=checkpoints,
        n_paths=len(ordered),
        horizon=ordered[0].horizon,
        master_seed=master_seed,
        epsilons=tuple(float(e) for e in epsilons),
        median=_ensemble_quantile(d, 0.5),
        q90=_ensemble_quantile(d, 0.9),
        q99=_ensemble_quantile(d, 0.99),
        fractions_above=fractions,
        d_matrix=d if keep_d_matrix else None,
    )


def run_ensemble(spec, threads: int = 1) -> ConvergenceReport:
    """Run the ``spec.n_paths`` paths of an :class:`~slln_lab.mixture.ExperimentSpec`,
    aggregate them at its checkpoints and epsilons, and give the verdict.

    Paths use per-path derived streams, so the report is a pure function of
    the spec no matter how many workers execute it.  Any path error
    propagates; partial reports are never produced.
    """
    from .mixture import run_path  # local import: mixture depends on this module

    if spec.n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    spec.pattern.insert_indices(spec.horizon)  # once per ensemble; pool workers get it with the spec
    indices = range(spec.n_paths)
    if threads <= 1:
        summaries = [run_path(spec.with_path(i), spec.checkpoints) for i in indices]
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(
            max_workers=threads, initializer=_set_worker_spec, initargs=(spec,)
        ) as pool:
            summaries = list(pool.map(_path_task, indices, chunksize=8))
    report = aggregate_paths(summaries, spec.epsilons, spec.seed)
    report.verdict = verdict(report, spec.epsilon_target, spec.fraction_target)
    report.epsilon_target = spec.epsilon_target
    report.fraction_target = spec.fraction_target
    return report


_worker_spec = None  # set only in pool workers, once each, so tasks are bare path indices


def _set_worker_spec(spec) -> None:
    global _worker_spec
    _worker_spec = spec


def _path_task(path_index: int) -> PathSummary:
    from .mixture import run_path

    return run_path(_worker_spec.with_path(path_index), _worker_spec.checkpoints)
