"""Ensemble convergence diagnostics.

Almost-sure convergence of the running averages is proxied by suffix-sup
deviations: D(n) = max over m in [n, N] of |S_m / m|.  D is nonincreasing
in n by construction, so an ensemble whose D quantiles shrink across
checkpoints is the finite-horizon witness of a strong law.  Verdicts are
read off ensemble quantiles, never off a single path.

A path is reduced to its checkpoint statistics a chunk at a time: the
averages there, and maxima of |S_m/m| whose reverse max :func:`suffix_sup`
reads as D.  A span of chunks of parity X values is reduced a block at a
time by :func:`_reduce_blocks`, which evaluates |S_m/m| index by index only
in the blocks that can set a maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .generators import _parity_extremes, _parity_prefix_table

DEFAULT_CHECKPOINTS = (10 ** 3, 10 ** 4, 10 ** 5, 5 * 10 ** 5, 10 ** 6)
DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.02, 0.01)
MAX_THREADS = 64  # worker processes an ensemble may start


def suffix_sup(deviations: np.ndarray, checkpoints: Sequence[int]) -> np.ndarray:
    """D at each checkpoint from a complete |S_m/m| buffer (m = 1..N): the
    buffer's reverse running max, read at the checkpoints, which may come in
    any order, repeat or be none.  NaN propagates like a value above every
    other.  Any buffer whose max from a checkpoint's position on is D there
    gives the same D: :func:`~slln_lab.mixture.run_path` passes a short array
    of chunk and rest-of-chunk maxima, each checkpoint naming its own entry.
    """
    buf = np.asarray(deviations, dtype=np.float64)
    if buf.ndim != 1 or buf.size == 0:
        raise ValueError("deviation buffer must be a nonempty 1-d array")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if np.any(cps < 1) or np.any(cps > buf.size):
        raise ValueError("checkpoints must lie in [1, len(buffer)]")
    return np.maximum.accumulate(buf[::-1])[::-1][cps - 1]


_EXACT = 2.0 ** 53  # from here on, not every integer is a float


def _exact_limit(total: float) -> float:
    """2**(q + 53), q <= 0 the exponent of the lowest set bit of ``total``
    (0 for an integer, ±0 included), for a ``total`` below 2**53 in
    magnitude, as every S of a chunk reduced by blocks is.
    A multiple of 2**q below it in magnitude is a float, and so is ``total``."""
    if total.is_integer():
        return _EXACT
    mantissa, exponent = math.frexp(total)
    digits = int(abs(mantissa) * _EXACT)  # total = ±digits * 2**(exponent - 53)
    return math.ldexp(1.0, exponent + (digits & -digits).bit_length() - 1)


def _reduce_blocks(blocks: tuple[np.ndarray, int], bits: int, at: np.ndarray, y: np.ndarray, total: float,
                   s0: int, size: int, cp_at: np.ndarray, averages: np.ndarray, maxima: np.ndarray) -> float:
    """Reduce the *chunk* of ``size`` indices after ``s0``, a span of one or
    more chunks of ``run_path``, as :func:`~slln_lab.mixture._reduce_values` does, from the sign
    codes of its X values (``blocks``, as :meth:`~slln_lab.generators.XSampler.blocks` gives them)
    and its heavy draws ``y`` at the offsets ``at``, after the S ``total``
    of the chunks before; return the S at its end.  Every float is the one
    the strictly left-to-right sum gives, and no array is as long as the
    chunk: five floats per parity block are kept to the end, and the values
    evaluated index by index are taken ``_EVALUATED`` at a time.

    The X values fall in *pieces*, one per parity block: piece j holds the
    X values ``edges[j] + 1 .. edges[j + 1]`` of the chunk, a whole block
    but for a first one cut by the chunk's start and a last one cut by its
    end, and ``sums[j]``, the X sum before it, is an exact integer from the
    block totals.  S is exact from each of the :func:`_anchors`.

    Rounding to nearest is monotone, so no value of a piece within one
    anchor's run exceeds U = fl(fl(|S before it| + its greatest |running
    sum|) / n of its first value), and fl(|S_n|/n) at its last value is
    exact.  In each checkpoint segment (the chunk's start to the first
    checkpoint, and each checkpoint to the next) the greatest of those last
    values is a value of the segment, so a piece is evaluated index by
    index (:func:`_piece_values`) only when its U exceeds it, or when the
    bound does not cover it: a piece cut by the chunk's seams, or holding an
    anchor or a checkpoint.  The inserts' values are read off their anchors.
    """
    codes, first = blocks
    table = _parity_prefix_table(bits)
    length, count, nx = table.shape[1] - 1, codes.size, size - at.size
    edges = np.arange(-first, count * length - first + 1, length, dtype=np.float64)
    edges[0], edges[-1] = 0.0, nx
    head, tail = int(edges[1]), nx - int(edges[-2])  # the values of the first and of the last piece
    sums = np.empty(count + 1)  # the block totals, then in place their running sums from 0
    sums[0] = 0.0
    totals = table[:, -1].take(codes, out=sums[1:], mode="clip")  # "clip" writes straight into out
    totals[0] = table[codes[0], first + head] - table[codes[0], first]
    if count > 1:
        totals[-1] = table[codes[-1], tail]
    np.cumsum(totals, out=totals)
    low_of, high_of, reach_of = _parity_extremes(bits)
    anchors, of_inserts = _anchors(codes, first, edges, sums, table, low_of, high_of, at, y, total)
    last, s, last_sum, _ = anchors[-1]
    end = s if nx == last else float(s + (sums[-1] - last_sum))

    # per boundary, |S| and n before the X value after it, past any inserts there
    if len(anchors) == 1:
        anchor_arrays, held = None, []
        starts = np.add(sums, total)
        n_starts = edges + (s0 + 1.0)
    else:
        anchor_arrays = x_at, s_at, sum_at, inserts_at = np.array(anchors).T
        of = edges.searchsorted(x_at)  # the first boundary each anchor is the anchor of
        sizes = _sizes(of, count + 1)
        starts = sums - sum_at.repeat(sizes)
        starts += s_at.repeat(sizes)
        n_starts = edges + (inserts_at + (s0 + 1.0)).repeat(sizes)
        held = of[edges[of] > x_at] - 1  # the pieces holding an anchor
    np.abs(starts, out=starts)
    bounds = reach_of.take(codes)
    bounds += starts[:-1]
    bounds /= n_starts[:-1]
    # then, in place, |S| and n at the last X value of each piece
    after, n_last = starts[1:], n_starts[1:]
    n_last -= 1.0
    if anchor_arrays is not None:  # a piece that ends right before an anchor ends in the anchor before it
        on_edge = np.flatnonzero((edges[of] == x_at) & (of > 0))
        if on_edge.size:
            b, prior = of[on_edge], x_at.searchsorted(x_at[on_edge]) - 1
            after[b - 1] = np.abs(s_at[prior] + (sums[b] - sum_at[prior]))
            n_last[b - 1] = edges[b] + inserts_at[prior] + float(s0)
    last_values = np.divide(after, n_last, out=after)
    # the first piece that ends in each checkpoint's segment, the one after the X values before it; the
    # bound does not cover it, nor a piece cut by the chunk's seams or holding an anchor
    x_before = cp_at - at.searchsorted(cp_at)
    seg_starts = np.where(x_before < nx, (x_before + first) // length, count)
    for pieces in (seg_starts[seg_starts < count], held, [0] if head < length else [],
                   [count - 1] if tail < length else []):
        bounds[pieces] = np.inf
    cp_n = cp_at + (s0 + 1.0)
    n_at = at + (s0 + 1.0)
    at_values = s_at[of_inserts] / n_at if at.size else n_at
    evaluated = (codes, first, edges, sums, table, total, anchor_arrays, s0)
    if not cp_n.size:  # one segment, the chunk
        found = last_values.max()
        for values, _ in _evaluated(np.flatnonzero(bounds > found), length, evaluated):
            found = max(found, np.abs(values).max())
        maxima[0] = max(found, np.abs(at_values).max(initial=0.0))
        return end
    seg_starts = np.append(0, seg_starts)
    seg_sizes = _sizes(seg_starts, count)
    found = np.maximum.reduceat(np.append(last_values, 0.0), seg_starts)
    found[seg_sizes == 0] = 0.0
    for values, n in _evaluated(np.flatnonzero(bounds > found.repeat(seg_sizes)), length, evaluated):
        at_cp = n.searchsorted(cp_n)
        hit = n.take(at_cp, mode="clip") == cp_n  # every checkpoint but an insert's is in one batch
        averages[hit] = values[at_cp[hit]]
        values = np.append(values, 0.0)  # a sentinel past the last value
        np.abs(values, out=values)
        starts = np.append(0, at_cp)
        in_batch = np.maximum.reduceat(values, starts)
        in_batch[_sizes(starts, n.size) == 0] = 0.0
        np.maximum(found, in_batch, out=found)
    if at.size:  # the inserts' values, and the checkpoints at them
        of_cps = n_at.searchsorted(cp_n)
        is_at = n_at.take(of_cps, mode="clip") == cp_n
        averages[is_at] = at_values[of_cps[is_at]]
        np.maximum.at(found, cp_n.searchsorted(n_at, side="right"), np.abs(at_values))
    maxima[0] = found.max()
    maxima[1:] = found[1:]
    return end


def _anchors(codes, first, edges, sums, table, low_of, high_of, at, y, total) -> tuple[list, list]:
    """The anchors of a chunk of :func:`_reduce_blocks`, in order, each
    (X count A, S after it, X sum to it, inserts up to it), and the index
    of each insert's.

    From an anchor at A, where S is T, S after X value c is T + (X sum to
    c - X sum to A), one exact add, while it stays below
    :func:`_exact_limit` of T.  The anchors are the chunk's start, each
    insert (its one float add) and each *rounding event*, the first value
    at which that exact sum reaches the limit: the one add that rounds
    there is the one the sequential add makes.  An event is looked for in
    the pieces whose S at their start is within a block of the limit, by
    their blocks' least and greatest running sums, and then found in the
    first of them that reaches it.
    """
    length = table.shape[1] - 1
    anchors, of_inserts = [(0, total, 0.0, 0)], []

    def run_to(stop: int) -> None:
        # add the rounding events among the X values after the last anchor, up to stop
        x_count, s, x_sum, inserts = anchors[-1]
        start = x_count
        while start < stop:
            limit = _exact_limit(s)
            if abs(s) + (stop - x_count) < limit:  # X values are ±1
                return
            j0 = (start + first) // length  # the pieces of values start + 1 .. stop, and their starts
            near = sums[j0:(stop - 1 + first) // length + 1]
            if s + (near.max() - x_sum) < limit - length and s + (near.min() - x_sum) > length - limit:
                return
            near = np.flatnonzero(np.abs(s + (near - x_sum)) >= limit - length) + j0
            if not near.size:
                return
            offset, code = sums[near] - x_sum, codes[near]
            hit = (s + (offset + high_of[code]) >= limit) | (s + (offset + low_of[code]) <= -limit)
            hit[0] |= near[0] == 0 and first > 0  # the values of a first piece cut by the chunk's start decide
            if not hit.any():
                return
            j = int(near[hit.argmax()])
            row, col = table[codes[j]], (first if j == 0 else 0) - int(edges[j])  # X value c is in column col + c
            lo, hi = max(start, int(edges[j])), min(stop, int(edges[j + 1]))  # its values lo + 1 .. hi
            steps = row[col + lo + 1:col + hi + 1] + (sums[j] - row[col + int(edges[j])] - x_sum)
            reached = np.abs(s + steps) >= limit
            if not reached.any():
                start = hi
                continue
            event = int(reached.argmax())
            x_count = start = lo + event + 1
            s, x_sum = float(s + steps[event]), x_sum + float(steps[event])
            anchors.append((x_count, s, x_sum, inserts))

    for x_count, value in zip((at - np.arange(at.size)).tolist(), y.tolist()):  # the X values before each insert
        run_to(x_count)
        last, s, last_sum, inserts = anchors[-1]
        j = max(x_count - 1 + first, 0) // length  # the piece of X value x_count, and its column there
        col = (first if j == 0 else 0) + x_count - int(edges[j])
        x_sum = float(sums[j] + (table[codes[j], col] - table[codes[j], col - x_count + int(edges[j])]))
        s = s if x_count == last else s + (x_sum - last_sum)  # no X value between: no add, so -0.0 stays
        of_inserts.append(len(anchors))
        anchors.append((x_count, s + value, x_sum, inserts + 1))
    run_to(int(edges[-1]))
    return anchors, of_inserts


def _sizes(starts: np.ndarray, end: int) -> np.ndarray:
    """The sizes of the groups that start at ``starts`` (sorted) and end at ``end``."""
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:]
    sizes[-1] = end
    sizes -= starts
    return sizes


_EVALUATED = 2 ** 14  # the values of the pieces evaluated at a time


def _evaluated(pieces: np.ndarray, length: int, evaluated: tuple):
    """:func:`_piece_values` of the ``pieces`` (rows of ``length`` values)
    and the rest of its arguments ``evaluated``, at most ``_EVALUATED``
    values at a time, so that no array grows with the span."""
    step = max(1, _EVALUATED // length)
    for lo in range(0, pieces.size, step):
        yield _piece_values(pieces[lo:lo + step], *evaluated)


def _piece_values(pieces, codes, first, edges, sums, table, total, anchors, s0) -> tuple[np.ndarray, np.ndarray]:
    """S_n/n and n at every X value of the ``pieces`` of
    :func:`_reduce_blocks`, in the order of n: a row of 2**bits - 1 per
    piece, in which a cut piece repeats its first or last value where its
    block has no value of the chunk.  ``anchors`` is None for the one
    anchor at the chunk's start, where S is ``total``."""
    code = codes.take(pieces)
    x_sum = table[:, 1:].take(code, axis=0)
    offset = sums.take(pieces)
    x_count = edges.take(pieces)[:, None] + np.arange(1.0, table.shape[1])
    if pieces.size and pieces[0] == 0 and first:  # the first piece starts at column first of its block
        offset[0] -= table[codes[0], first]
        x_count[0] -= first
        x_sum[0, :first], x_count[0, :first] = x_sum[0, first], x_count[0, first]
    end = int(edges[-1] - edges[-2]) + (first if codes.size == 1 else 0)  # the last piece ends before column end
    if pieces.size and pieces[-1] == codes.size - 1:
        x_sum[-1, end:], x_count[-1, end:] = x_sum[-1, end - 1], x_count[-1, end - 1]
    x_sum += offset[:, None]
    if anchors is None:
        x_sum += total
    else:
        x_at, s_at, sum_at, inserts_at = anchors
        of = x_at.searchsorted(x_count)
        of -= 1
        x_sum -= sum_at[of]
        x_sum += s_at[of]
        x_count += inserts_at[of]
    x_count += s0
    x_sum /= x_count
    return x_sum.ravel(), x_count.ravel()


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
