"""Assembly of the observed sequence from its two ingredient streams.

Position n emits a heavy draw when alpha_n = 1 and a well-behaved draw when
alpha_n = 0.  Each path owns three derived streams: the X stream is consumed
in order at the alpha_n = 0 positions, the Y stream in order at the
alpha_n = 1 positions, and COMONOTONE paths take one SHARED uniform for all
their heavy draws.  The exponent of an insert is the schedule value at its
global position.

:func:`run_path` is the one engine: it makes a path one chunk of
``_CHUNK`` indices at a time and reduces each chunk in place to the
checkpoint statistics before making the next.  Its running sum S_n is, bit
for bit, what adding Z_1, Z_2, ... strictly left to right in double
precision gives, as one whole-horizon ``np.cumsum`` would.  When the X
values are parity signs read off a table and a chunk has few inserts, each
run of them between two inserts is summed from exact integer running sums,
which the table gives a block at a time (:func:`_run_sums` says when that
is the sequential add); otherwise the chunk's heavy draws are spliced into
its X values and the chunk is summed by ``np.cumsum``.  What is the same
on every path of a spec in one process, the insert offsets of each chunk,
1/a_n at them and the chunk buffers, is a :class:`PathWorkspace`, built
once from one pass of :meth:`SparsityPattern.chunks`; the spec itself
holds no state.

An :class:`ExperimentSpec` describes one experiment: the recipe every path
runs from, plus the ensemble around the paths.  It is what a JSON config
decodes to, it checks itself whenever it is built, and every entry point
(``run_path``, ``run_ensemble``, ``verify_hypotheses``, the CLI) takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .diagnostics import DEFAULT_CHECKPOINTS, DEFAULT_EPSILONS, PathSummary, suffix_sup
from .errors import ConfigError, FieldError, as_float, as_int, as_object, keyed, known_keys
from .generators import DependenceMode, TailEnvelope, XFamily, XSampler, draw_heavy, reciprocal_exponents
from .rng import Channel, StreamKey, UniformStream, derive_stream
from .schedules import _CHUNK, MomentSchedule, SparsityMode, SparsityPattern

MAX_HORIZON = 10 ** 7  # bounds a path's run time; a path's workspace keeps 8 bytes of 1/a_n per insert
MAX_PATHS = 10 ** 5  # bounds an ensemble's run time and its per-path summaries
MAX_PATH_CHECKPOINTS = 10 ** 7  # bounds n_paths * len(checkpoints): the summaries' arrays and the D matrix

_TOP_LEVEL_KEYS = frozenset({
    "name", "seed", "horizon", "n_paths", "x", "y", "schedule", "sparsity",
    "checkpoints", "epsilons", "verdict", "infrequency_threshold",
})


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: the recipe of its paths and the ensemble around them.

    Round-trips losslessly through JSON.  ``path_index`` is not part of the
    JSON: it picks one path of the ensemble (see :meth:`with_path`).  An
    AUTO ``pattern`` follows the schedule it was built with, so replace the
    two together.  Every construction, by ``replace`` or :meth:`with_path` too, runs
    ``__post_init__``, whose checkpoint rule is :func:`run_path`'s; every entry point trusts it.
    """

    x_family: XFamily
    envelope: TailEnvelope
    dependence: DependenceMode
    schedule: MomentSchedule
    pattern: SparsityPattern
    horizon: int
    checkpoints: tuple[int, ...]
    seed: int = 0
    path_index: int = 0
    name: str = "experiment"
    n_paths: int = 100
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    epsilon_target: float = 0.05
    fraction_target: float = 0.10
    infrequency_threshold: float | None = None

    def with_path(self, path_index: int) -> "ExperimentSpec":
        """Same recipe, different derived streams; the pattern and schedule
        are shared, so a workspace built for one path serves every path."""
        return replace(self, path_index=path_index)

    def mixed_config(self) -> "ExperimentSpec":
        # the benchmark under bench/ calls this; the spec is its own path recipe
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "horizon": self.horizon,
            "n_paths": self.n_paths,
            "x": self.x_family.to_dict(),
            "y": {"envelope": self.envelope.to_dict(), "dependence": self.dependence.value},
            "schedule": self.schedule.to_dict(),
            "sparsity": self.pattern.to_dict(),
            "checkpoints": list(self.checkpoints),
            "epsilons": list(self.epsilons),
            "verdict": {
                "epsilon_target": self.epsilon_target,
                "fraction_target": self.fraction_target,
            },
            "infrequency_threshold": self.infrequency_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Parse; missing keys take their defaults, unknown keys are rejected in every
        section, an ``epsilon_target`` not in ``epsilons`` joins them, and the constructor checks."""
        try:
            known_keys(data, _TOP_LEVEL_KEYS)
            schedule = keyed("schedule", lambda d: MomentSchedule.from_dict(as_object(d)), data.get("schedule", {}))
            x_family = keyed("x", lambda d: XFamily.from_dict(as_object(d)),
                             data.get("x", {"family": "parity_rademacher"}))
            y = keyed("y", lambda d: known_keys(as_object(d), ("envelope", "dependence")), data.get("y", {}))
            envelope = keyed("y.envelope", lambda d: TailEnvelope.from_dict(as_object(d)),
                             y.get("envelope", {"kind": "pareto", "gamma": 2.0}))
            dependence = keyed("y.dependence", DependenceMode, y.get("dependence", "independent"))
            pattern = keyed("sparsity", lambda d: SparsityPattern.from_dict(as_object(d), schedule),
                            data.get("sparsity", {}))
            horizon = keyed("horizon", as_int, data.get("horizon", 10 ** 6))
            checkpoints = keyed("checkpoints", _list_of(as_int),
                                data.get("checkpoints", _clip_checkpoints(DEFAULT_CHECKPOINTS, horizon)))
            epsilons = keyed("epsilons", _list_of(as_float), data.get("epsilons", cls.epsilons))
            verdict_cfg = keyed("verdict", lambda d: known_keys(as_object(d), ("epsilon_target", "fraction_target")),
                                data.get("verdict", {}))
            epsilon_target = keyed("verdict.epsilon_target", as_float,
                                   verdict_cfg.get("epsilon_target", cls.epsilon_target))
            if epsilon_target not in epsilons:
                epsilons = tuple(sorted((*epsilons, epsilon_target), reverse=True))  # a repeat stays, to be refused
            threshold = data.get("infrequency_threshold", cls.infrequency_threshold)
            name = data.get("name", cls.name)
            if not isinstance(name, str):
                raise ConfigError(f"name: expected a string, got {type(name).__name__}")
            return cls(
                x_family=x_family,
                envelope=envelope,
                dependence=dependence,
                schedule=schedule,
                pattern=pattern,
                horizon=horizon,
                seed=keyed("seed", as_int, data.get("seed", cls.seed)),
                name=name,
                n_paths=keyed("n_paths", as_int, data.get("n_paths", cls.n_paths)),
                checkpoints=checkpoints,
                epsilons=epsilons,
                epsilon_target=epsilon_target,
                fraction_target=keyed("verdict.fraction_target", as_float,
                                      verdict_cfg.get("fraction_target", cls.fraction_target)),
                infrequency_threshold=(
                    None if threshold is None else keyed("infrequency_threshold", as_float, threshold)
                ),
            )
        except FieldError as exc:
            raise ConfigError(str(exc)) from exc

    def __post_init__(self) -> None:
        """Raise :class:`ConfigError`, naming the field, if one is out of range."""
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]")
        # 2**block_bits - 1 > MAX_HORIZON, decided without building 2**block_bits
        if self.x_family.block_bits >= (MAX_HORIZON + 1).bit_length():
            raise ConfigError(
                f"x.params.block_bits: parity blocks of 2**block_bits - 1 values may not exceed {MAX_HORIZON}"
            )
        if not 2 <= self.n_paths <= MAX_PATHS:
            raise ConfigError(f"n_paths must lie in [2, {MAX_PATHS}]")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.path_index:
            raise ConfigError("path_index must be nonnegative")
        explicit = self.pattern.explicit
        if self.pattern.mode is SparsityMode.EXPLICIT and len(explicit) < self.horizon:
            raise ConfigError(
                f"sparsity.alpha has {len(explicit)} entries, fewer than the horizon {self.horizon}"
            )
        if self.n_paths * _checkpoint_array(self.checkpoints, self.horizon).size > MAX_PATH_CHECKPOINTS:
            raise ConfigError(f"n_paths * len(checkpoints) must be at most {MAX_PATH_CHECKPOINTS}")
        if not all(0 < e for e in self.epsilons):
            raise ConfigError("epsilons must be positive")
        if len({f"{e:g}" for e in self.epsilons}) < len(self.epsilons):  # as deviations.csv names their columns
            raise ConfigError("epsilons must be unique")
        if self.epsilon_target not in self.epsilons:
            raise ConfigError("verdict.epsilon_target must be one of epsilons")
        if not 0 < self.fraction_target <= 1:
            raise ConfigError("fraction_target must lie in (0, 1]")
        if self.infrequency_threshold is not None and not 0 < self.infrequency_threshold < math.inf:
            raise ConfigError("infrequency_threshold: must be positive and finite")

    validate = __post_init__  # the benchmark under bench/ calls it


def _list_of(convert):
    """Parser of a JSON list into a tuple of ``convert``-ed items."""
    def parse(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a list, got {type(values).__name__}")
        return tuple(convert(v) for v in values)
    return parse


def _checkpoint_array(checkpoints: Sequence[int], horizon: int) -> np.ndarray:
    """``checkpoints`` as int64 if ints (JSON's: no bool, float, NumPy int), sorted, unique and in [1, horizon]."""
    if not {int}.issuperset(map(type, checkpoints)):
        raise ConfigError("checkpoints must be integers")
    try:
        cps = np.fromiter(checkpoints, np.int64, len(checkpoints))
    except OverflowError:  # past int64, so past the horizon
        raise ConfigError("checkpoints must lie in [1, horizon]") from None
    if not np.all(cps[1:] > cps[:-1]):
        raise ConfigError("checkpoints must be sorted and unique")
    if not (cps.size and 1 <= cps[0] and cps[-1] <= horizon):
        raise ConfigError("checkpoints must lie in [1, horizon]")
    return cps


def _clip_checkpoints(checkpoints: Sequence[int], horizon: int) -> tuple[int, ...]:
    """The checkpoints up to ``horizon``, ending at ``horizon``."""
    kept = [c for c in checkpoints if c <= horizon]
    if not kept or kept[-1] != horizon:
        kept.append(horizon)
    return tuple(kept)


@dataclass(frozen=True)
class PathWorkspace:
    """What every path of one spec reuses in one process: the ``pattern``,
    ``schedule`` and ``horizon`` it was built for; ``layout``, one entry
    ``(at, inv_exponents)`` per chunk of ``_CHUNK`` indices, the offsets of
    its inserts (None when all its indices are) and 1/a_n at them;
    ``insert_count``; ``ones``, 1.0 up to the chunk length, the n of a chunk
    less its offset; and the scratch buffers a path overwrites, ``chunk``
    for a chunk of Z_n, ``heavy`` for the draws spliced into one and
    ``divisor`` for the n of one.  Only the layout grows with the horizon:
    8 bytes of 1/a_n per insert, and 8 of offset per insert in a chunk that
    is not all inserts.
    """

    pattern: SparsityPattern
    schedule: MomentSchedule
    horizon: int
    layout: tuple[tuple[np.ndarray | None, np.ndarray], ...]
    insert_count: int
    chunk: np.ndarray
    heavy: np.ndarray
    ones: np.ndarray
    divisor: np.ndarray


def path_workspace(spec: ExperimentSpec) -> PathWorkspace:
    """The workspace of ``spec``, from one pass of its pattern's chunks;
    raises :class:`InvalidExponent` if an insert's exponent lies outside
    (0, 1]."""
    def entry(n: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        at = np.flatnonzero(alpha)
        at = None if at.size == n.size else at  # all inserts: a_n needs no gather
        return at, reciprocal_exponents(spec.schedule.value(n if at is None else n[at]))

    # in a generator's scope, no name keeps the chunk buffers once the pass ends
    layout = tuple(entry(n, alpha) for _, n, alpha, _ in spec.pattern.chunks(spec.horizon))
    spliced = max((inv.size for at, inv in layout if at is not None), default=0)
    size = min(_CHUNK, spec.horizon)
    return PathWorkspace(spec.pattern, spec.schedule, spec.horizon, layout,
                         sum(inv.size for _, inv in layout), np.empty(size), np.empty(spliced),
                         np.arange(1, size + 1, dtype=np.float64), np.empty(size))


def _samplers(config: ExperimentSpec):
    """The X sampler of one path, and ``heavy(inv_exponents, out)``, its
    next heavy draws, written into ``out`` and returned."""
    def stream(channel: Channel) -> UniformStream:
        return derive_stream(StreamKey(config.seed, config.path_index, channel))

    shared_u = stream(Channel.SHARED).next() if config.dependence is DependenceMode.COMONOTONE else None
    y_stream = stream(Channel.Y)

    def heavy(inv_exponents: np.ndarray, out: np.ndarray) -> np.ndarray:
        return draw_heavy(config.envelope, config.dependence, inv_exponents, out, stream=y_stream, shared_u=shared_u)

    return XSampler(config.x_family, stream(Channel.X)), heavy


def _path_chunks(config: ExperimentSpec,
                 workspace: PathWorkspace) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray, XSampler]]:
    """The draws of one path, a chunk of ``_CHUNK`` indices at a time.

    Yields ``(s0, z, at, y, x)`` for Z_{s0+1} .. Z_{s0+z.size}: ``z`` is
    ``workspace.chunk``, which the next chunk overwrites.  A chunk of
    inserts only has its heavy draws in ``z`` and ``at`` None.  Otherwise
    ``y`` holds the heavy draws at the offsets ``at``, and its
    z.size - at.size X values are the next ones of the sampler ``x``,
    drawn before the next chunk: as values, by :func:`_values`, or as
    running sums.
    """
    x, heavy = _samplers(config)
    for s0, (at, inv_exponents) in zip(range(0, config.horizon, _CHUNK), workspace.layout):
        z = workspace.chunk[:min(_CHUNK, config.horizon - s0)]
        if at is None:
            y = heavy(inv_exponents, z)
        else:
            y = heavy(inv_exponents, workspace.heavy[:at.size]) if at.size else workspace.heavy[:0]
        yield s0, z, at, y, x


def _values(z: np.ndarray, at: np.ndarray | None, y: np.ndarray, x: XSampler) -> np.ndarray:
    """The values of a chunk of :func:`_path_chunks`, written into ``z``
    and returned: its X values drawn into the front of it, where the X
    stream left off, and its heavy draws spliced in."""
    if at is not None:
        x.fill(z[:z.size - at.size])
        if at.size:
            _splice(z, at, y)
    return z


def _splice(z: np.ndarray, inserts: np.ndarray, y: np.ndarray) -> None:
    """Move the X values at the front of ``z`` right, in order, onto the
    positions that are not in ``inserts`` (sorted, nonempty), and put
    ``y`` at the inserts.

    The value at a position p that is not an insert comes from p - k, k
    the inserts before p.  The values past the last insert shift by all of
    them, as one slice copy, and those before the first stay; only those
    between the first and last insert need a mask.
    """
    k, first, last = inserts.size, int(inserts[0]), int(inserts[-1])
    # slice copies handle overlapping memory; a masked assignment does not
    z[last + 1:] = z[last + 1 - k:z.size - k]
    x_slot = np.ones(last - first, dtype=bool)  # positions first + 1 .. last
    x_slot[inserts[1:] - (first + 1)] = False
    z[first + 1:last + 1][x_slot] = z[first:last + 1 - k].copy()
    z[inserts] = y


def _peak(values: np.ndarray) -> tuple[float, int]:
    """max |v| over ``values`` (its sign may be lost on a zero; NaN
    propagates), and how many of them are not finite."""
    peak = np.maximum(values.max(), -values.min())
    return peak, 0 if math.isfinite(peak) else values.size - int(np.count_nonzero(np.isfinite(values)))


def _cumsum(z: np.ndarray, total: float) -> None:
    """S over the chunk of values ``z``, in place, after the S ``total``
    of the chunks before: adding ``total`` to its first value is the add a
    whole-horizon cumsum makes there."""
    z[0] += total
    z.cumsum(out=z)


# Block sums take a Python step per insert, some microseconds, where a
# splice and a cumsum take some nanoseconds per value.  On a 2-core Xeon the
# two cost the same at about 64 random inserts in a chunk of 2**16; past this
# many, a chunk is spliced and summed by np.cumsum.
_BLOCK_SUM_INSERTS = 48


def _sum_chunks(config: ExperimentSpec, workspace: PathWorkspace) -> Iterator[tuple[int, np.ndarray, float, int]]:
    """S_n of one path, a chunk at a time: yields ``(s0, s, peak,
    nonfinite)``, ``s`` holding S_{s0+1} .. in ``workspace.chunk`` and the
    rest the :func:`_peak` of the chunk's values.

    A chunk with X values of a family :attr:`~XFamily.sums_by_table` and
    at most ``_BLOCK_SUM_INSERTS`` inserts is summed by :func:`_block_sums`;
    any other chunk's values are summed by ``np.cumsum``.
    """
    by_blocks = config.x_family.sums_by_table
    total = -0.0  # the identity of float addition, so that a -0.0 Z_1 stays S_1
    for s0, z, at, y, x in _path_chunks(config, workspace):
        if by_blocks and at is not None and at.size <= _BLOCK_SUM_INSERTS:
            peak, nonfinite = _block_sums(x.fill_sums(workspace.divisor[:z.size - at.size]), at, y, total, z)
        else:
            peak, nonfinite = _peak(_values(z, at, y, x))
            _cumsum(z, total)
        total = float(z[-1])
        yield s0, z, peak, nonfinite


def _block_sums(running: np.ndarray, at: np.ndarray, y: np.ndarray, total: float, out: np.ndarray) -> tuple[float, int]:
    """S over one chunk, written into ``out``, after the S ``total`` of the
    chunks before, from ``running``, the running sums of its X values from
    0, and its heavy draws ``y`` at the offsets ``at``.  Each insert is one
    add, and each run of X values between inserts is summed by
    :func:`_run_sums`.  Returns the :func:`_peak` of the chunk's values:
    max(1, max |y|), and the heavy draws that are not finite.
    """
    peak, nonfinite = _peak(y) if y.size else (1.0, 0)
    start, prev = 0, 0.0  # the first position of the run, and the running X sum before it
    for k, (p, value) in enumerate(zip(at.tolist(), y.tolist())):
        if p > start:
            total = _run_sums(running[start - k:p - k], prev, total, out[start:p])
            prev = running[p - k - 1]
        total += value
        out[p] = total
        start = p + 1
    if start < out.size:
        _run_sums(running[start - at.size:], prev, total, out[start:])
    return np.maximum(peak, 1.0), nonfinite


_EXACT = 2.0 ** 53  # from here on, not every integer is a float


def _exact_limit(total: float) -> float:
    """2**(q + 53), q <= 0 the exponent of the lowest set bit of ``total``
    (0 for an integer, ±0 included), finite and below 2**53 in magnitude.
    A multiple of 2**q below it in magnitude is a float."""
    if total.is_integer():
        return _EXACT
    mantissa, exponent = math.frexp(total)
    digits = int(abs(mantissa) * _EXACT)  # total = ±digits * 2**(exponent - 53)
    return math.ldexp(1.0, exponent + (digits & -digits).bit_length() - 1)


def _run_sums(running: np.ndarray, prev: float, total: float, out: np.ndarray) -> float:
    """S over one run of X values, written into ``out`` and the last returned.

    ``running`` holds the running X sums to each value of the run and
    ``prev`` the one before it, so the run's partial sums are d_j =
    running[j] - prev, exact integers, and S_j is what adding its values
    to ``total`` left to right gives.  While |total + d_j| stays below
    :func:`_exact_limit` of ``total``, every add is exact and S_j = total
    + d_j, one ``np.add``.  At the first j where the rounded sum reaches
    the limit, it is the one rounding the sequential add makes there, and
    the run starts again from it.  A total that is not finite or at least
    2**53 in magnitude takes :func:`_sequential_sums` for the rest.
    """
    j = 0
    while True:
        if not abs(total) < _EXACT:  # NaN too
            _sequential_sums(running[j:], prev, total, out[j:])
            return float(out[-1])
        limit, rest = _exact_limit(total), out[j:]
        offset = total - prev
        if abs(offset) < limit:  # a multiple of 2**q below the limit: exact
            np.add(running[j:], offset, out=rest)
        else:
            np.subtract(running[j:], prev, out=rest)
            rest += total
        # X values are ±1, so |d_j| <= rest.size
        if abs(total) + rest.size < limit or (rest.max() < limit and rest.min() > -limit):
            return float(out[-1])
        event = int(np.argmax(np.abs(rest) >= limit))
        j += event + 1
        total, prev = float(rest[event]), running[j - 1]
        if j == out.size:
            return total


def _sequential_sums(running: np.ndarray, prev: float, total: float, out: np.ndarray) -> None:
    """``out`` as :func:`_run_sums` writes it, by adding the run's values,
    running[j] - running[j-1] (running[-1] = ``prev``), to ``total`` left
    to right with ``np.cumsum``."""
    out[0] = total + (running[0] - prev)
    np.subtract(running[1:], running[:-1], out=out[1:])
    out.cumsum(out=out)


def run_path(config: ExperimentSpec, checkpoints: Sequence[int],
             workspace: PathWorkspace | None = None) -> PathSummary:
    """Simulate one path to its horizon and summarize it at the checkpoints.

    ``workspace`` is the :func:`path_workspace` of any path of the same
    spec (one that shares its pattern and schedule objects, as
    :meth:`ExperimentSpec.with_path` does), so the paths of an ensemble can
    share one; None builds one.

    Each chunk of S_n, from :func:`_sum_chunks`, is reduced in place
    before the next is made: S_n/n, read at
    the checkpoints; then |S_n/n|.  Its max over the chunk goes into
    ``maxima``, followed by one ``np.maximum.reduceat`` entry per checkpoint
    in the chunk, the max from it to the next one (the last one's to the
    chunk's end).  The max of ``maxima`` from a checkpoint's entry on, the
    reverse max that :func:`suffix_sup` takes, is then D there.  Every float
    is the one the whole-horizon reduction gives.  The checkpoints, which
    need not be the spec's, follow the spec's rule, :func:`_checkpoint_array`.
    """
    horizon = config.horizon
    cps = _checkpoint_array(checkpoints, horizon)
    if workspace is None:
        workspace = path_workspace(config)
    elif (workspace.horizon != horizon or workspace.pattern is not config.pattern
          or workspace.schedule is not config.schedule):
        raise ValueError("workspace was built for another spec")

    running_avg = np.empty(cps.size)
    chunk_of = (cps - 1) // _CHUNK
    # per chunk, its max and then its checkpoints' entries, so no entry reaches back into its chunk
    maxima = np.empty(len(workspace.layout) + cps.size)
    entries = chunk_of + np.arange(2, cps.size + 2)  # 1-based: chunk m's max and i entries come before entry i
    peaks, nonfinite = [], 0
    for m, (s0, z, peak, chunk_nonfinite) in enumerate(_sum_chunks(config, workspace)):
        peaks.append(peak)
        nonfinite += chunk_nonfinite
        z /= np.add(workspace.ones[:z.size], s0, out=workspace.divisor[:z.size])  # n, exact: n < 2**53
        final_avg = z[-1]
        c0, c1 = np.searchsorted(cps, (s0, s0 + z.size), side="right")
        at = cps[c0:c1] - 1 - s0
        running_avg[c0:c1] = z[at]
        np.abs(z, out=z)
        maxima[m + c0] = z.max()
        maxima[m + c0 + 1:m + c1 + 1] = np.maximum.reduceat(z, at)
    return PathSummary(
        path_index=config.path_index,
        horizon=horizon,
        checkpoints=cps,
        running_avg=running_avg,
        deviation_sup=suffix_sup(maxima, entries),
        insert_count=workspace.insert_count,
        # abs turns a -0.0 peak into 0.0, and NaN propagates
        max_abs_value=float(abs(np.max(peaks))),
        final_avg=float(final_avg),
        nonfinite_values=nonfinite,
    )
