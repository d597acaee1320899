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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import FieldError, ScheduleRejected, SearchExhausted, as_float, as_int, keyed

_POSITION_SEARCH_CAP = 10 ** 280
_SEARCH_BLOCK = 1024


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
        least = 1 if self.form is ScheduleForm.CONSTANT else 3  # the log forms need ln n > 1
        floor = self.floor_index
        if floor is not None and (isinstance(floor, bool) or not isinstance(floor, int) or floor < least):
            raise ScheduleRejected(f"floor_index must be an integer >= {least} for {self.form.value}: {floor}")

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
        form = keyed("form", ScheduleForm, data.get("form", "inv_sqrt_log"))
        # built one key at a time, so a failed check names its key
        constant_a = data.get("constant_a")
        schedule = keyed("constant_a", lambda a: cls(form, None if a is None else as_float(a)), constant_a)
        floor_index = data.get("floor_index")
        if floor_index is None:
            return schedule
        return keyed("floor_index", lambda f: replace(schedule, floor_index=as_int(f)), floor_index)


@dataclass
class ScheduleValidation:
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


def _targets(schedule: MomentSchedule, c: float, n: np.ndarray) -> np.ndarray:
    """ceil(c * n**a_n) on a float64 array ``n``: the AUTO pattern's target.

    np.power, not exp(a*ln n): pow(x, 1.0) is exact, so integer targets (the
    a=1 boundary case) land on integers.  The pattern and the insert-position
    search both evaluate this one expression.
    """
    return np.ceil(c * np.power(n, schedule.value(n)))


@dataclass(frozen=True)
class SparsityPattern:
    """Nonrandom 0/1 insertion pattern with running counts.

    AUTO mode fires an insert exactly when ceil(c * n**a_n) increments, so
    phi_n tracks ceil(c * n**a_n) and the sup of phi_n / n**a_n stays below
    c + 1.  The pattern is a plain value: alpha is built anew on each
    call, and what the paths of a simulation reuse (the insert indices)
    is kept in their :class:`~slln_lab.mixture.PathWorkspace`.
    """

    mode: SparsityMode
    c: float = 1.0
    schedule: MomentSchedule | None = None
    explicit: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # the checks of one field name it by its JSON key
        if not 0.0 < self.c < math.inf:
            raise FieldError("c", "target constant c must be positive and finite")
        if self.mode is SparsityMode.AUTO and self.schedule is None:
            raise ValueError("AUTO mode requires a schedule")
        if self.mode is SparsityMode.EXPLICIT:
            if self.explicit is None:
                raise FieldError("alpha", "EXPLICIT mode requires the alpha list")
            if any(v not in (0, 1) for v in self.explicit):
                raise FieldError("alpha", "explicit alpha entries must be 0 or 1")

    def alpha(self, horizon: int) -> np.ndarray:
        """alpha_1..alpha_horizon as a uint8 array."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.mode is SparsityMode.ALL_ZERO:
            return np.zeros(horizon, dtype=np.uint8)
        if self.mode is SparsityMode.ALL_ONE:
            return np.ones(horizon, dtype=np.uint8)
        if self.mode is SparsityMode.EXPLICIT:
            if len(self.explicit) < horizon:
                raise ValueError("explicit alpha list shorter than horizon")
            return np.asarray(self.explicit[:horizon], dtype=np.uint8)
        targets = _targets(self.schedule, self.c, np.arange(1, horizon + 1, dtype=np.float64))
        alpha = np.empty(horizon, dtype=np.uint8)
        # first insert at n=1 only when c >= 1 (ceil(c) >= 1 holds for any c > 0)
        alpha[0] = 1 if self.c >= 1.0 else 0
        if horizon > 1:
            alpha[1:] = (np.diff(targets) > 0).astype(np.uint8)
        return alpha

    def phi(self, horizon: int) -> np.ndarray:
        """Running insert count phi_1..phi_horizon."""
        return np.cumsum(self.alpha(horizon), dtype=np.int64)

    def psi(self, horizon: int) -> np.ndarray:
        """Running count of non-insert positions, n - phi_n."""
        return np.arange(1, horizon + 1, dtype=np.int64) - self.phi(horizon)

    def to_dict(self) -> dict:
        out = {"mode": self.mode.value, "c": self.c}
        if self.explicit is not None:
            out["alpha"] = list(self.explicit)
        return out

    @classmethod
    def from_dict(cls, data: dict, schedule: MomentSchedule) -> "SparsityPattern":
        """``schedule`` drives the AUTO mode and is ignored by the others."""
        mode = keyed("mode", SparsityMode, data.get("mode", "auto"))
        explicit = None
        if "alpha" in data:
            explicit = keyed("alpha", lambda alpha: tuple(as_int(v) for v in alpha), data["alpha"])
        return cls(
            mode=mode,
            c=keyed("c", as_float, data.get("c", 1.0)),
            schedule=schedule if mode is SparsityMode.AUTO else None,
            explicit=explicit,
        )


def build_sparsity(schedule: MomentSchedule, c: float) -> SparsityPattern:
    """AUTO pattern targeting phi_n ~ ceil(c * n**a_n)."""
    return SparsityPattern(mode=SparsityMode.AUTO, c=c, schedule=schedule)


def ratio_running_max(pattern: SparsityPattern, schedule: MomentSchedule, horizon: int) -> np.ndarray:
    """Running max of phi_n / n**a_n (used by the infrequency verifier)."""
    n = np.arange(1, horizon + 1, dtype=np.float64)
    ratios = pattern.phi(horizon) / np.power(n, schedule.value(n))
    return np.maximum.accumulate(ratios)


def y_insertion_positions(schedule: MomentSchedule, c: float, count: int) -> list[int]:
    """Global indices of the first ``count`` inserts of the AUTO pattern.

    The positions can lie far beyond any materializable horizon (the k-th
    insert of the inverse-sqrt-log schedule sits near exp((ln k)**2)), so
    they come from a search on the closed form of phi instead of alpha.
    Requires c <= 1: there the ceiling target advances by at most one per
    index, and phi_n = ceil(c * n**a_n) - 1, plus 1 when c = 1.  Larger
    targets can skip a count, and then phi has no closed form.

    phi is evaluated at float(n), so past 2**53 distinct n share one float.
    The k-th position is defined by a sequential search: from lo_k =
    pos_{k-1} (lo_1 = 1), grow hi by a factor of 4 from max(lo_k, 2) until
    phi(hi) >= k, then bisect the integers of [lo_k, hi].  Where rounding
    makes phi non-monotone, the result is the transition this bisection
    lands on: for inv_sqrt_log at c = 1, phi steps from 319 to 320 at both
    n = 272164683111954 and n = 272164683111956, and pos_320 is the first.

    The searches run in lockstep, one vectorized phi evaluation per step
    for every k of a block still searching.  The search for k depends on the one for
    k-1 only through lo_k, so the positions are iterated to a fixed point:
    round 1 searches every k from lo = 1, each later round searches again
    the k whose predecessor changed in the round before, from lo_k =
    pos_{k-1} as it then stands.  When nothing changes, pos_k =
    search(k, pos_{k-1}) holds for every k, which is the sequential
    recurrence.  After round r the first r positions are final, so at most
    count + 1 rounds run.

    Raises :class:`SearchExhausted` for the first k whose search, started
    from its final lo_k, grows hi past the cap.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("insert positions require 0 < c <= 1")
    # phi_n >= k  <=>  target_n >= k + 1 - [c = 1]
    need = np.arange(1, count + 1, dtype=np.float64) + (0.0 if c >= 1.0 else 1.0)
    # Python ints in object arrays: positions pass int64 long before the cap;
    # 0 marks a search that passed the cap
    positions = _search(schedule, c, need, np.ones(count, dtype=object))
    redo = np.arange(1, count)  # 0-based: the k - 1 to search again
    while True:
        # positions below the first one searched again are final
        exhausted = np.flatnonzero(positions[:redo[0] if redo.size else count] == 0)
        if exhausted.size:
            raise SearchExhausted(f"insert position {exhausted[0] + 1} beyond cap {_POSITION_SEARCH_CAP:.2e}")
        if not redo.size:
            return positions.tolist()
        lo = positions[redo - 1]
        found = np.zeros(redo.size, dtype=object)
        live = lo > 0
        found[live] = _search(schedule, c, need[redo[live]], lo[live])
        changed = redo[found != positions[redo]]
        positions[redo] = found
        redo = changed[changed < count - 1] + 1


def _search(schedule: MomentSchedule, c: float, need: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """For each i, the first n found from ``lo[i]`` with target_n >= ``need[i]``,
    by the sequential search of :func:`y_insertion_positions` (0 past the cap).

    Runs ``_SEARCH_BLOCK`` searches at a time: each holds three or four
    Python ints, so a block of 1024 keeps them near 0.2 MiB, and measured
    the search is no slower than with 1e4 searches in one block.
    """
    if lo.size > _SEARCH_BLOCK:
        blocks = range(0, lo.size, _SEARCH_BLOCK)
        return np.concatenate([_search(schedule, c, need[s:s + _SEARCH_BLOCK], lo[s:s + _SEARCH_BLOCK])
                               for s in blocks])

    def reached(n: np.ndarray, i: np.ndarray) -> np.ndarray:
        return _targets(schedule, c, n.astype(np.float64)) >= need[i]

    lo = lo.copy()
    hi = np.maximum(lo, 2)
    i = np.flatnonzero(~reached(hi, np.arange(lo.size)))
    while i.size:
        hi[i] *= 4
        past = hi[i] > _POSITION_SEARCH_CAP
        lo[i[past]] = 0
        hi[i[past]] = 0
        i = i[~past]
        i = i[~reached(hi[i], i)]
    i = np.flatnonzero(lo < hi)
    while i.size:
        mid = (lo[i] + hi[i]) // 2
        ge = reached(mid, i)
        hi[i[ge]] = mid[ge]
        lo[i[~ge]] = mid[~ge] + 1
        i = i[lo[i] < hi[i]]
    return lo
