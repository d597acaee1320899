"""Assembly of the observed sequence from its two ingredient streams.

Position n emits a heavy draw when alpha_n = 1 and a well-behaved draw when
alpha_n = 0.  Each path owns three derived streams: the X stream is consumed
in order at the alpha_n = 0 positions, the Y stream in order at the
alpha_n = 1 positions, and COMONOTONE paths take one SHARED uniform for all
their heavy draws.  The exponent of an insert is the schedule value at its
global position.

:func:`run_path` is the one engine: it samples the whole horizon at once,
evaluates exponents at the insert indices only (cached on the pattern per
horizon), splices the heavy draws into the well-behaved block and reduces
one in-place buffer to the checkpoint statistics.  Its running sum is one
``np.cumsum``, which adds strictly left to right in double precision.

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
from .errors import ConfigError, ScheduleRejected
from .generators import DependenceMode, TailEnvelope, XFamily, sample_y
from .rng import Channel, StreamKey, UniformStream, derive_stream
from .schedules import MomentSchedule, SparsityMode, SparsityPattern, validate_schedule

MAX_HORIZON = 10 ** 7  # run_path holds a few float64 buffers of this length

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
        """Same recipe, different derived streams; the pattern cache is shared."""
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
        top-level keys are rejected."""
        unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        schedule = _parse("schedule", MomentSchedule.from_dict, data.get("schedule", {}))
        x_family = _parse("x", XFamily.from_dict, data.get("x", {"family": "parity_rademacher"}))
        y = _parse("y", _object, data.get("y", {}))
        envelope = _parse("y", TailEnvelope.from_dict, y.get("envelope", {"kind": "pareto", "gamma": 2.0}))
        dependence = _parse("y", DependenceMode, y.get("dependence", "independent"))
        pattern = _parse("sparsity", SparsityPattern.from_dict, data.get("sparsity", {}), schedule)
        horizon = _parse("horizon", int, data.get("horizon", 10 ** 6))
        checkpoints = _parse("checkpoints", _list_of(int),
                             data.get("checkpoints", _clip_checkpoints(DEFAULT_CHECKPOINTS, horizon)))
        epsilons = _parse("epsilons", _list_of(float), data.get("epsilons", cls.epsilons))
        verdict_cfg = _parse("verdict", _object, data.get("verdict", {}))
        epsilon_target = _parse("verdict.epsilon_target", float,
                                verdict_cfg.get("epsilon_target", cls.epsilon_target))
        if epsilon_target not in epsilons:
            epsilons = tuple(sorted(set(epsilons) | {epsilon_target}, reverse=True))
        threshold = data.get("infrequency_threshold", cls.infrequency_threshold)
        spec = cls(
            x_family=x_family,
            envelope=envelope,
            dependence=dependence,
            schedule=schedule,
            pattern=pattern,
            horizon=horizon,
            seed=_parse("seed", int, data.get("seed", cls.seed)),
            name=str(data.get("name", cls.name)),
            n_paths=_parse("n_paths", int, data.get("n_paths", cls.n_paths)),
            checkpoints=checkpoints,
            epsilons=epsilons,
            epsilon_target=epsilon_target,
            fraction_target=_parse("verdict.fraction_target", float,
                                   verdict_cfg.get("fraction_target", cls.fraction_target)),
            infrequency_threshold=(
                None if threshold is None else _parse("infrequency_threshold", float, threshold)
            ),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        """Raise :class:`ConfigError`, naming the field, if one is out of range."""
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]")
        # 2**block_bits - 1 > MAX_HORIZON, decided without building 2**block_bits
        if self.x_family.block_bits >= (MAX_HORIZON + 1).bit_length():
            raise ConfigError(f"x: parity blocks of 2**block_bits - 1 values may not exceed {MAX_HORIZON}")
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
        try:
            validate_schedule(self.schedule, min(max(self.horizon, 3), 10 ** 5))
        except ScheduleRejected as exc:
            raise ConfigError(f"schedule: {exc}") from exc


def _parse(field: str, build, *args):
    """``build(*args)``, with any failure reported as a ConfigError on ``field``."""
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError, ScheduleRejected) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _object(value) -> dict:
    """A JSON object, as is."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


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


def _emit_values(config: ExperimentSpec) -> tuple[np.ndarray, int]:
    """All horizon values of one path, and its insert count.

    Exponents are evaluated at the insert indices only; the heavy draws
    are then spliced into the well-behaved block.
    """
    horizon = config.horizon
    inserts = config.pattern.insert_indices(horizon)
    n_insert = inserts.size

    def stream(channel: Channel) -> UniformStream:
        return derive_stream(StreamKey(config.seed, config.path_index, channel))

    x = config.x_family.sample_block(horizon - n_insert, stream(Channel.X))
    shared_u = stream(Channel.SHARED).next() if config.dependence is DependenceMode.COMONOTONE else None
    y = sample_y(config.envelope, config.dependence, config.schedule.value(inserts + 1),
                 stream=stream(Channel.Y), shared_u=shared_u)
    if n_insert == horizon:
        return y, n_insert
    return np.insert(x, inserts - np.arange(n_insert), y), n_insert


def run_path(config: ExperimentSpec, checkpoints: Sequence[int]) -> PathSummary:
    """Simulate one path to its horizon and summarize it at the checkpoints.

    The values are accumulated in place: one buffer holds Z_n, then S_n,
    then S_n/n, then |S_n/n| for the suffix-sup reduction.
    """
    horizon = config.horizon
    cps = np.asarray(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if cps.size == 0:
        raise ValueError("at least one checkpoint is required")
    if cps[0] < 1 or cps[-1] > horizon:
        raise ValueError("checkpoints must lie in [1, horizon]")

    buf, insert_count = _emit_values(config)
    # max(hi, -lo) is max |Z_n|; abs turns a -0.0 into 0.0, NaN propagates
    max_abs_value = float(abs(np.maximum(buf.max(), -buf.min())))
    np.cumsum(buf, out=buf)
    buf /= np.arange(1, horizon + 1, dtype=np.float64)
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
    )
