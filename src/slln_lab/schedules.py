"""Moment-exponent schedules and sparsity patterns.

A :class:`MomentSchedule` supplies the vanishing exponent sequence a_n used
both to transform heavy-tailed draws (y = v ** (1/a_n)) and to budget how
often they may appear.  A :class:`SparsityPattern` is the nonrandom 0/1
sequence deciding which global indices receive a heavy draw; ``phi`` counts
inserts, ``psi`` counts the remaining (well-behaved) positions.

Exponents are defined on the GLOBAL index: the k-th insert inherits the
exponent of the position it lands on.  Small indices clamp to the value at
``floor_index`` because the defining formulas only make sense once ln n
(or ln ln n) is safely positive; only asymptotics matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ScheduleRejected, SearchExhausted

_POSITION_SEARCH_CAP = 10 ** 280


class ScheduleForm(Enum):
    INV_SQRT_LOG = "inv_sqrt_log"          # a_n = 1 / sqrt(ln n),   n >= 3
    LOGLOG_OVER_LOG = "loglog_over_log"    # a_n = ln ln n / ln n,   n >= 16
    CONSTANT = "constant"                  # a_n = a in (0, 1]
    INV_LOG = "inv_log"                    # a_n = 1 / ln n, n >= 3: designed
                                           # violation, a_n * ln n never grows


_DEFAULT_FLOOR = {
    ScheduleForm.INV_SQRT_LOG: 3,
    ScheduleForm.LOGLOG_OVER_LOG: 16,
    ScheduleForm.CONSTANT: 1,
    ScheduleForm.INV_LOG: 3,
}


@dataclass(frozen=True)
class MomentSchedule:
    """Nonincreasing exponent sequence a_n in (0, 1]."""

    form: ScheduleForm
    constant_a: float | None = None
    floor_index: int | None = None

    def __post_init__(self) -> None:
        if self.form is ScheduleForm.CONSTANT:
            if self.constant_a is None:
                raise ScheduleRejected("CONSTANT form requires constant_a")
            if not 0.0 < self.constant_a <= 1.0:
                raise ScheduleRejected(f"a out of (0,1]: {self.constant_a}")
        elif self.constant_a is not None:
            raise ScheduleRejected("constant_a only applies to the CONSTANT form")
        if self.floor_index is not None and not (isinstance(self.floor_index, int) and self.floor_index >= 1):
            raise ScheduleRejected(f"floor_index must be an integer >= 1: {self.floor_index}")

    @property
    def floor(self) -> int:
        return self.floor_index if self.floor_index is not None else _DEFAULT_FLOOR[self.form]

    def value(self, n):
        """a_n for scalar or array ``n`` (n >= 1); clamped below ``floor``."""
        scalar = np.isscalar(n)
        idx = np.maximum(np.asarray(n, dtype=np.float64), float(self.floor))
        if self.form is ScheduleForm.CONSTANT:
            out = np.full_like(idx, self.constant_a)
        elif self.form is ScheduleForm.INV_SQRT_LOG:
            out = 1.0 / np.sqrt(np.log(idx))
        elif self.form is ScheduleForm.LOGLOG_OVER_LOG:
            ln = np.log(idx)
            out = np.log(ln) / ln
        else:  # INV_LOG
            out = 1.0 / np.log(idx)
        return float(out) if scalar else out

    def to_dict(self) -> dict:
        out: dict = {"form": self.form.value}
        if self.constant_a is not None:
            out["constant_a"] = self.constant_a
        if self.floor_index is not None:
            out["floor_index"] = self.floor_index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MomentSchedule":
        return cls(
            form=ScheduleForm(data.get("form", "inv_sqrt_log")),
            constant_a=data.get("constant_a"),
            floor_index=data.get("floor_index"),
        )


@dataclass
class ScheduleValidation:
    ok: bool
    growth_ok: bool
    first_index_reaching: int | None
    growth_target: float
    horizon: int
    value_at_horizon: float
    detail: str


def validate_schedule(schedule: MomentSchedule, horizon: int, growth_target: float = 3.0) -> ScheduleValidation:
    """Check positivity, range, monotonicity, and unbounded a_n * ln n.

    Raises :class:`ScheduleRejected` on a positivity/range/monotonicity
    violation.  The growth check never raises: it reports the first index n
    with a_n * ln n >= ``growth_target``, or its absence within ``horizon``.
    CONSTANT schedules pass the growth check by construction.
    """
    if horizon < 3:
        raise ValueError("horizon must be >= 3")
    n = np.arange(1, horizon + 1, dtype=np.float64)
    a = schedule.value(n)
    if not np.all((a > 0.0) & (a <= 1.0)):
        raise ScheduleRejected("a_n outside (0, 1] on [1, horizon]")
    if np.any(np.diff(a) > 0.0):
        raise ScheduleRejected("a_n is not nonincreasing on [1, horizon]")

    growth = a * np.log(n)
    first: int | None = None
    hit = np.nonzero(growth >= growth_target)[0]
    if hit.size:
        first = int(hit[0]) + 1
    growth_ok = schedule.form is ScheduleForm.CONSTANT or first is not None
    at_horizon = float(growth[-1])
    if first is not None:
        detail = f"a_n*ln n reaches {growth_target} at n={first}"
    else:
        detail = (
            f"a_n*ln n never reaches {growth_target} on [1, {horizon}]"
            f" (value {at_horizon:.6g} at horizon)"
        )
    return ScheduleValidation(
        ok=True,
        growth_ok=growth_ok,
        first_index_reaching=first,
        growth_target=growth_target,
        horizon=horizon,
        value_at_horizon=at_horizon,
        detail=detail,
    )


class SparsityMode(Enum):
    AUTO = "auto"
    ALL_ZERO = "all_zero"
    ALL_ONE = "all_one"
    EXPLICIT = "explicit_list"


def _auto_targets(schedule: MomentSchedule, c: float, horizon: int) -> np.ndarray:
    # np.power, not exp(a*ln n): pow(x, 1.0) is exact, so integer targets
    # (the a=1 boundary case) land on integers; _phi_closed must evaluate
    # the identical float expression
    n = np.arange(1, horizon + 1, dtype=np.float64)
    return np.ceil(c * np.power(n, schedule.value(n)))


@dataclass
class SparsityPattern:
    """Nonrandom 0/1 insertion pattern with running counts.

    AUTO mode fires an insert exactly when ceil(c * n**a_n) increments, so
    phi_n tracks ceil(c * n**a_n) and the sup of phi_n / n**a_n stays below
    c + 1.  The alpha array and its insert indices are materialized lazily
    per horizon and cached.
    """

    mode: SparsityMode
    c: float = 1.0
    schedule: MomentSchedule | None = None
    explicit: tuple[int, ...] | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError("target constant c must be positive and finite")
        if self.mode is SparsityMode.AUTO and self.schedule is None:
            raise ValueError("AUTO mode requires a schedule")
        if self.mode is SparsityMode.EXPLICIT:
            if self.explicit is None:
                raise ValueError("EXPLICIT mode requires the alpha list")
            if any(v not in (0, 1) for v in self.explicit):
                raise ValueError("explicit alpha entries must be 0 or 1")

    def alpha(self, horizon: int) -> np.ndarray:
        """alpha_1..alpha_horizon as a uint8 array."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        cached = self._cache.get("alpha")
        if cached is None or cached.size < horizon:
            cached = self._cache["alpha"] = self._build_alpha(horizon)
        return cached[:horizon]

    def insert_indices(self, horizon: int) -> np.ndarray:
        """0-based positions of the inserts among the first ``horizon``
        indices, ``np.flatnonzero`` of alpha; read-only, cached next to it."""
        cached = self._cache.get("inserts")
        if cached is None or cached[0] != horizon:
            indices = np.flatnonzero(self.alpha(horizon))
            indices.flags.writeable = False
            cached = self._cache["inserts"] = (horizon, indices)
        return cached[1]

    def phi(self, horizon: int) -> np.ndarray:
        """Running insert count phi_1..phi_horizon.

        Built from a fresh alpha and not cached: a spec keeps its pattern
        for as long as its caller keeps the spec, and only the simulation
        reads alpha often enough to be worth keeping.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return np.cumsum(self._build_alpha(horizon), dtype=np.int64)

    def psi(self, horizon: int) -> np.ndarray:
        """Running count of non-insert positions, n - phi_n."""
        return np.arange(1, horizon + 1, dtype=np.int64) - self.phi(horizon)

    def _build_alpha(self, horizon: int) -> np.ndarray:
        if self.mode is SparsityMode.ALL_ZERO:
            return np.zeros(horizon, dtype=np.uint8)
        if self.mode is SparsityMode.ALL_ONE:
            return np.ones(horizon, dtype=np.uint8)
        if self.mode is SparsityMode.EXPLICIT:
            if len(self.explicit) < horizon:
                raise ValueError("explicit alpha list shorter than horizon")
            return np.asarray(self.explicit[:horizon], dtype=np.uint8)
        targets = _auto_targets(self.schedule, self.c, horizon)
        alpha = np.empty(horizon, dtype=np.uint8)
        # first insert at n=1 only when c >= 1 (ceil(c) >= 1 holds for any c > 0)
        alpha[0] = 1 if self.c >= 1.0 else 0
        if horizon > 1:
            alpha[1:] = (np.diff(targets) > 0).astype(np.uint8)
        return alpha

    def to_dict(self) -> dict:
        out = {"mode": self.mode.value, "c": self.c}
        if self.explicit is not None:
            out["alpha"] = list(self.explicit)
        return out

    @classmethod
    def from_dict(cls, data: dict, schedule: MomentSchedule) -> "SparsityPattern":
        """``schedule`` drives the AUTO mode and is ignored by the others."""
        mode = SparsityMode(data.get("mode", "auto"))
        return cls(
            mode=mode,
            c=float(data.get("c", 1.0)),
            schedule=schedule if mode is SparsityMode.AUTO else None,
            explicit=tuple(data["alpha"]) if "alpha" in data else None,
        )


def build_sparsity(schedule: MomentSchedule, c: float, horizon: int | None = None) -> SparsityPattern:
    """AUTO pattern targeting phi_n ~ ceil(c * n**a_n); ``horizon`` pre-warms the cache."""
    pattern = SparsityPattern(mode=SparsityMode.AUTO, c=c, schedule=schedule)
    if horizon is not None:
        pattern.alpha(horizon)
    return pattern


def sparsity_ratio_sup(pattern: SparsityPattern, schedule: MomentSchedule, horizon: int) -> float:
    """max over n <= horizon of phi_n / n**a_n."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return float(ratio_running_max(pattern, schedule, horizon)[-1])


def ratio_running_max(pattern: SparsityPattern, schedule: MomentSchedule, horizon: int) -> np.ndarray:
    """Running max of phi_n / n**a_n (used by the infrequency verifier)."""
    n = np.arange(1, horizon + 1, dtype=np.float64)
    ratios = pattern.phi(horizon) / np.power(n, schedule.value(n))
    return np.maximum.accumulate(ratios)


def _phi_closed(schedule: MomentSchedule, c: float, n: int) -> int:
    """phi_n of the AUTO pattern, evaluated without materializing arrays.

    Exact only while the ceiling target advances in single steps, which the
    built-in forms guarantee for c <= 1 (their continuous targets move by
    less than 1 per index). Callers enforce the c <= 1 precondition.
    """
    a = schedule.value(n)
    target = int(np.ceil(c * np.power(float(n), a)))
    return target - 1 + (1 if c >= 1.0 else 0)


def y_insertion_positions(schedule: MomentSchedule, c: float, count: int) -> list[int]:
    """Global indices of the first ``count`` inserts of the AUTO pattern.

    Positions are found by bisection on the closed form of phi, so they can
    lie far beyond any materializable horizon (the k-th insert of the
    inverse-sqrt-log schedule sits near exp((ln k)**2)).  Requires c <= 1;
    larger targets can advance the ceiling by more than one per index, and
    then phi has no closed form.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("insert positions require 0 < c <= 1")
    positions: list[int] = []
    lo = 1
    for k in range(1, count + 1):
        hi = max(lo, 2)
        while _phi_closed(schedule, c, hi) < k:
            hi *= 4
            if hi > _POSITION_SEARCH_CAP:
                raise SearchExhausted(f"insert position {k} beyond cap {_POSITION_SEARCH_CAP:.2e}")
        lo_k = lo
        while lo_k < hi:
            mid = (lo_k + hi) // 2
            if _phi_closed(schedule, c, mid) >= k:
                hi = mid
            else:
                lo_k = mid + 1
        positions.append(lo_k)
        lo = lo_k  # positions are nondecreasing in k; restart from the last hit
    return positions
