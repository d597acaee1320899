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
MAX_THREADS = 64  # worker processes an ensemble may start


def suffix_sup(deviations: np.ndarray, checkpoints: Sequence[int]) -> np.ndarray:
    """D at each checkpoint from a complete |S_m/m| buffer (m = 1..N): the
    buffer's reverse running max, read at the checkpoints, which may come in
    any order, repeat or be none.  NaN propagates like a value above every
    other.  Any buffer whose max from a checkpoint's position on is D there
    gives the same D: :func:`~slln_lab.mixture.run_path` passes a short list
    of chunk and rest-of-chunk maxima, each checkpoint naming its own entry.
    """
    buf = np.asarray(deviations, dtype=np.float64)
    if buf.ndim != 1 or buf.size == 0:
        raise ValueError("deviation buffer must be a nonempty 1-d array")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if np.any(cps < 1) or np.any(cps > buf.size):
        raise ValueError("checkpoints must lie in [1, len(buffer)]")
    return np.maximum.accumulate(buf[::-1])[::-1][cps - 1]


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
    nonfinite_values: int          # Z_n that are inf or NaN

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
    d_matrix: np.ndarray = field(repr=False)  # D per path (rows, by path index) and checkpoint
    nonfinite_values: int = 0  # inf or NaN values Z_n, summed over the paths
    nonfinite_paths: int = 0   # paths with at least one
    verdict: Verdict | None = None
    epsilon_target: float | None = None
    fraction_target: float | None = None

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
            "nonfinite_values": self.nonfinite_values,
            "nonfinite_paths": self.nonfinite_paths,
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
    DIVERGENT: the final median is not finite.  Anything else is
    INCONCLUSIVE.  (The median cannot rise across checkpoints: each path's
    D never increases, and the median is an order statistic of them.)
    """
    if epsilon_target not in report.fractions_above:
        raise ValueError(f"epsilon_target {epsilon_target} not among the tracked epsilons")
    if not np.isfinite(report.median[-1]):
        return Verdict.DIVERGENT
    frac_final = float(report.fractions_above[epsilon_target][-1])
    window = np.asarray(report.median[-3:], dtype=np.float64)
    diffs = np.diff(window)
    decreasing = bool(window[-1] == 0.0) or (diffs.size > 0 and bool(np.all(diffs < 0)))
    if frac_final < fraction_target and decreasing:
        return Verdict.CONVERGENT
    return Verdict.INCONCLUSIVE


def aggregate_paths(
    summaries: Sequence[PathSummary],
    epsilons: Sequence[float],
    master_seed: int,
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
        d_matrix=d,
        nonfinite_values=sum(s.nonfinite_values for s in ordered),
        nonfinite_paths=sum(s.nonfinite_values > 0 for s in ordered),
    )


def run_ensemble(spec, threads: int = 1) -> ConvergenceReport:
    """Run the ``spec.n_paths`` paths of an :class:`~slln_lab.mixture.ExperimentSpec`,
    aggregate them at its checkpoints and epsilons, and give the verdict.

    Paths use per-path derived streams, so the report is a pure function of
    the spec no matter how many workers execute it.  At one worker
    :func:`_run_paths` runs them all in this process; otherwise each of
    ``workers = min(threads, n_paths)`` pool workers runs the share
    ``range(w, n_paths, workers)``.  Any path error propagates; partial
    reports are never produced.  The spec checked its ``n_paths`` when built;
    ``threads`` below 1 or above :data:`MAX_THREADS` raises ``ValueError``
    before any path runs or any worker starts.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be at most {MAX_THREADS}, got {threads}")
    workers = min(threads, spec.n_paths)
    if workers <= 1:
        summaries = _run_paths(spec, range(spec.n_paths))
    else:
        import concurrent.futures as cf

        shares = [range(w, spec.n_paths, workers) for w in range(workers)]
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = [s for share in pool.map(_run_paths, [spec] * workers, shares) for s in share]
    report = aggregate_paths(summaries, spec.epsilons, spec.seed)
    report.verdict = verdict(report, spec.epsilon_target, spec.fraction_target)
    report.epsilon_target = spec.epsilon_target
    report.fraction_target = spec.fraction_target
    return report


def _run_paths(spec, indices: Sequence[int]) -> list[PathSummary]:
    """The summaries of the paths ``indices`` of ``spec``, all run on one
    :class:`~slln_lab.mixture.PathWorkspace` built here."""
    from . import mixture  # local import: mixture depends on this module

    workspace = mixture.path_workspace(spec)
    return [mixture.run_path(spec.with_path(i), spec.checkpoints, workspace) for i in indices]
