"""Assembly of the observed sequence from its two ingredient streams.

Position n emits a heavy draw when alpha_n = 1 and a well-behaved draw when
alpha_n = 0.  Each path owns three derived streams: the X stream is consumed
in order at the alpha_n = 0 positions, the Y stream in order at the
alpha_n = 1 positions, and COMONOTONE paths take one SHARED uniform for all
their heavy draws.  The exponent of an insert is the schedule value at its
global position.

:func:`run_path` is the one engine: it samples the whole horizon at once,
splices the heavy draws into the well-behaved block and reduces one
in-place buffer to the checkpoint statistics.  Its running sum is one
``np.cumsum``, which adds strictly left to right in double precision.  What
is the same on every path of a spec in one process, the insert indices,
1/a_n at them and the buffer, is a :class:`PathWorkspace`, built once; the
spec itself holds no state.

An :class:`ExperimentSpec` describes one experiment: the recipe every path
runs from, plus the ensemble around the paths.  It is what a JSON config
decodes to, and every entry point (``run_path``, ``run_ensemble``,
``verify_hypotheses``, the CLI) takes it as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diagnostics import DEFAULT_CHECKPOINTS, DEFAULT_EPSILONS, PathSummary, suffix_sup
from .errors import ConfigError, FieldError, as_float, as_int, as_object, keyed, known_keys
from .generators import DependenceMode, TailEnvelope, XFamily, draw_heavy, reciprocal_exponents
from .rng import Channel, StreamKey, UniformStream, derive_stream
from .schedules import _CHUNK, MomentSchedule, SparsityMode, SparsityPattern

MAX_HORIZON = 10 ** 7  # a process holds one float64 buffer of this length, PathWorkspace.buf

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
    two together.
    """

    x_family: XFamily
    envelope: TailEnvelope
    dependence: DependenceMode
    schedule: MomentSchedule
    pattern: SparsityPattern
    horizon: int
    seed: int = 0
    path_index: int = 0
    name: str = "experiment"
    n_paths: int = 100
    checkpoints: tuple[int, ...] = ()
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
        """Parse and validate; missing keys take their defaults, unknown
        keys are rejected in every section."""
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
                epsilons = tuple(sorted(set(epsilons) | {epsilon_target}, reverse=True))
            threshold = data.get("infrequency_threshold", cls.infrequency_threshold)
            name = data.get("name", cls.name)
            if not isinstance(name, str):
                raise ConfigError(f"name: expected a string, got {type(name).__name__}")
            spec = cls(
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
        spec.validate()
        return spec

    def validate(self) -> None:
        """Raise :class:`ConfigError`, naming the field, if one is out of range."""
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]")
        # 2**block_bits - 1 > MAX_HORIZON, decided without building 2**block_bits
        if self.x_family.block_bits >= (MAX_HORIZON + 1).bit_length():
            raise ConfigError(
                f"x.params.block_bits: parity blocks of 2**block_bits - 1 values may not exceed {MAX_HORIZON}"
            )
        if self.n_paths < 2:
            raise ConfigError("n_paths must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        explicit = self.pattern.explicit
        if self.pattern.mode is SparsityMode.EXPLICIT and len(explicit) < self.horizon:
            raise ConfigError(
                f"sparsity.alpha has {len(explicit)} entries, fewer than the horizon {self.horizon}"
            )
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ConfigError("checkpoints must be sorted and unique")
        if not self.checkpoints or self.checkpoints[0] < 1 or self.checkpoints[-1] > self.horizon:
            raise ConfigError("checkpoints must lie in [1, horizon]")
        if not all(0 < e for e in self.epsilons):
            raise ConfigError("epsilons must be positive")
        if not 0 < self.fraction_target <= 1:
            raise ConfigError("fraction_target must lie in (0, 1]")
        if self.infrequency_threshold is not None and not 0 < self.infrequency_threshold < math.inf:
            raise ConfigError("infrequency_threshold: must be positive and finite")


def _list_of(convert):
    """Parser of a JSON list into a tuple of ``convert``-ed items."""
    def parse(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a list, got {type(values).__name__}")
        return tuple(convert(v) for v in values)
    return parse


def _clip_checkpoints(checkpoints: Sequence[int], horizon: int) -> tuple[int, ...]:
    """The checkpoints up to ``horizon``, ending at ``horizon``."""
    kept = [c for c in checkpoints if c <= horizon]
    if not kept or kept[-1] != horizon:
        kept.append(horizon)
    return tuple(kept)


@dataclass(frozen=True)
class PathWorkspace:
    """What every path of one spec reuses in one process: the ``pattern``
    and ``schedule`` it was built from; ``inserts``, the 0-based insert
    indices, read-only; ``buf``, scratch space of horizon float64 values
    that a path overwrites; and ``inv_exponents``, 1/a_n at the inserts."""

    pattern: SparsityPattern
    schedule: MomentSchedule
    inserts: np.ndarray
    buf: np.ndarray
    inv_exponents: np.ndarray


def path_workspace(spec: ExperimentSpec) -> PathWorkspace:
    """The workspace of ``spec``; raises :class:`InvalidExponent` if an
    insert's exponent lies outside (0, 1]."""
    inserts = np.flatnonzero(spec.pattern.alpha(spec.horizon))
    inserts.flags.writeable = False
    inv_exponents = np.empty(inserts.size, dtype=np.float64)
    for s0 in range(0, inserts.size, _CHUNK):  # chunk-sized temporaries, however many inserts
        inv_exponents[s0:s0 + _CHUNK] = reciprocal_exponents(spec.schedule.value(inserts[s0:s0 + _CHUNK] + 1))
    return PathWorkspace(spec.pattern, spec.schedule, inserts, np.empty(spec.horizon, dtype=np.float64),
                         inv_exponents)


def _emit_values(config: ExperimentSpec, workspace: PathWorkspace) -> tuple[np.ndarray, int]:
    """All horizon values of one path, in ``workspace.buf``, and its insert count.

    When every index is an insert, the heavy draws are drawn straight into
    the buffer.  Otherwise the X block is drawn into the front of the
    buffer, spread right to the positions that are not inserts, and the
    heavy draws are dropped into the gaps.
    """
    horizon, buf, inserts = config.horizon, workspace.buf, workspace.inserts
    n_insert = inserts.size

    def stream(channel: Channel) -> UniformStream:
        return derive_stream(StreamKey(config.seed, config.path_index, channel))

    shared_u = stream(Channel.SHARED).next() if config.dependence is DependenceMode.COMONOTONE else None
    y = buf if n_insert == horizon else np.empty(n_insert, dtype=np.float64)
    draw_heavy(config.envelope, config.dependence, workspace.inv_exponents, y,
               stream=stream(Channel.Y), shared_u=shared_u)
    if n_insert < horizon:
        config.x_family.sample_block(horizon - n_insert, stream(Channel.X), out=buf[:horizon - n_insert])
        _spread(buf, inserts)
        buf[inserts] = y
    return buf, n_insert


def _spread(buf: np.ndarray, inserts: np.ndarray) -> None:
    """Move the values at the front of ``buf`` right, in order, onto the
    positions that are not in ``inserts``.

    The value at a position p that is not an insert comes from p - k, k
    the inserts before p.  Chunks go from the last, so the source of a
    chunk, which lies at or before it, is still unmoved.  Within a chunk,
    the values past its last insert and those before its first each shift
    by one k, as one slice copy; only those between its first and last
    insert need a mask.  The work is O(horizon) however many inserts
    there are, with no Python step per insert.
    """
    horizon = buf.size
    starts = list(range(0, horizon, _CHUNK))
    before = np.searchsorted(inserts, starts + [horizon]).tolist()
    for j in reversed(range(len(starts))):
        s0, s1, k0, k1 = starts[j], min(starts[j] + _CHUNK, horizon), before[j], before[j + 1]
        if k1 == 0:  # no insert before s1: this chunk and those before it are in place
            break
        if k1 > k0:
            first, last = int(inserts[k0]), int(inserts[k1 - 1])
            # slice copies handle overlapping memory; a masked assignment does not
            buf[last + 1:s1] = buf[last + 1 - k1:s1 - k1]
            x_slot = np.ones(last - first, dtype=bool)  # positions first + 1 .. last
            x_slot[inserts[k0 + 1:k1] - (first + 1)] = False
            buf[first + 1:last + 1][x_slot] = buf[first - k0:last + 1 - k1].copy()
            s1 = first
        buf[s0:s1] = buf[s0 - k0:s1 - k0]


def run_path(config: ExperimentSpec, checkpoints: Sequence[int],
             workspace: PathWorkspace | None = None) -> PathSummary:
    """Simulate one path to its horizon and summarize it at the checkpoints.

    ``workspace`` is the :func:`path_workspace` of any path of the same
    spec (one that shares its pattern and schedule objects, as
    :meth:`ExperimentSpec.with_path` does), so the paths of an ensemble can
    share one; None builds one.  The
    values are accumulated in place: its buffer holds Z_n, then S_n, then
    S_n/n, then |S_n/n| for the suffix-sup reduction.
    """
    horizon = config.horizon
    cps = np.asarray(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if cps.size == 0:
        raise ValueError("at least one checkpoint is required")
    if cps[0] < 1 or cps[-1] > horizon:
        raise ValueError("checkpoints must lie in [1, horizon]")
    if workspace is None:
        workspace = path_workspace(config)
    elif (workspace.buf.shape != (horizon,) or workspace.pattern is not config.pattern
          or workspace.schedule is not config.schedule):
        raise ValueError("workspace was built for another spec")

    buf, insert_count = _emit_values(config, workspace)
    # max(hi, -lo) is max |Z_n|; abs turns a -0.0 into 0.0, NaN propagates
    max_abs_value = float(abs(np.maximum(buf.max(), -buf.min())))
    # counted only on a path that has one: a finite path pays no extra pass
    nonfinite = 0 if math.isfinite(max_abs_value) else horizon - int(np.count_nonzero(np.isfinite(buf)))
    np.cumsum(buf, out=buf)
    n = np.arange(1, min(_CHUNK, horizon) + 1, dtype=np.float64)  # n in a chunk, less its offset
    for s0 in range(0, horizon, _CHUNK):
        chunk = buf[s0:s0 + _CHUNK]
        chunk /= n[:chunk.size] + s0  # exact: n < 2**53
    running_avg = buf[cps - 1]
    final_avg = float(buf[-1])
    np.abs(buf, out=buf)
    return PathSummary(
        path_index=config.path_index,
        horizon=horizon,
        checkpoints=cps,
        running_avg=running_avg,
        deviation_sup=suffix_sup(buf, cps),
        insert_count=insert_count,
        max_abs_value=max_abs_value,
        final_avg=final_avg,
        nonfinite_values=nonfinite,
    )
