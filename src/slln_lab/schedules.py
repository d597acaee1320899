"""Moment-exponent schedules and sparsity patterns.

A :class:`MomentSchedule` supplies the vanishing exponent sequence a_n used
both to transform heavy-tailed draws (y = v ** (1/a_n)) and to budget how
often they may appear.  A :class:`SparsityPattern` is the nonrandom 0/1
sequence deciding which global indices receive a heavy draw; ``phi`` counts
the inserts.

Exponents are defined on the GLOBAL index: the k-th insert inherits the
exponent of the position it lands on.  Small indices clamp to the value at
``floor_index`` because the defining formulas only make sense once ln n
(or ln ln n) is safely positive; only asymptotics matter.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import FieldError, SearchExhausted, as_float, as_int, keyed, known_keys

_CHUNK = 2 ** 16  # values per step of a pass that is cut into chunks
_POSITION_SEARCH_CAP = 10 ** 280
_CAP_FLOAT = math.nextafter(float(_POSITION_SEARCH_CAP), 0.0)  # float(10**280) rounds up past it
_SEARCH_BLOCK = 1024


class ScheduleForm(Enum):
    INV_SQRT_LOG = "inv_sqrt_log"          # a_n = 1 / sqrt(ln n),   n >= 3
    LOGLOG_OVER_LOG = "loglog_over_log"    # a_n = ln ln n / ln n,   n >= 15
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
    """Nonincreasing exponent sequence a_n in (0, 1] at every n >= 1; the
    constructor is the one check of that."""

    form: ScheduleForm
    constant_a: float | None = None
    floor_index: int | None = None

    def __post_init__(self) -> None:
        # the checks of one field name it by its JSON key
        if self.form is ScheduleForm.CONSTANT:
            if self.constant_a is None:
                raise FieldError("constant_a", "CONSTANT form requires constant_a")
            if not 0.0 < self.constant_a <= 1.0:
                raise FieldError("constant_a", f"a out of (0,1]: {self.constant_a}")
        elif self.constant_a is not None:
            raise FieldError("constant_a", "constant_a only applies to the CONSTANT form")
        # the least floor that keeps a_n in (0, 1] and nonincreasing: 1/ln 2 > 1,
        # and ln ln n / ln n peaks at n = e**e ~ 15.2, with a_15 = 0.367877 > a_16
        least = {ScheduleForm.CONSTANT: 1, ScheduleForm.LOGLOG_OVER_LOG: 15}.get(self.form, 3)
        floor = self.floor_index
        if floor is None:
            return
        if isinstance(floor, bool) or not isinstance(floor, int) or floor < least:
            raise FieldError("floor_index",
                             f"floor_index must be an integer >= {least} for {self.form.value}: {floor}")
        if floor > 10 ** 300:  # float(floor) stays finite
            raise FieldError("floor_index", f"floor_index must be at most 10**300, got {floor.bit_length()} bits")

    @property
    def floor(self) -> int:
        return self.floor_index if self.floor_index is not None else _DEFAULT_FLOOR[self.form]

    def value(self, n, out: np.ndarray | None = None):
        """a_n for scalar or array ``n`` (n >= 1); clamped below ``floor``.
        ``out`` (which may be ``n`` itself) receives an array's values."""
        scalar = np.isscalar(n)
        n = np.asarray(n, dtype=np.float64)
        idx = np.maximum(n, float(self.floor), out=np.empty_like(n) if out is None else out)
        if self.form is ScheduleForm.CONSTANT:
            idx.fill(self.constant_a)
        elif self.form is ScheduleForm.INV_SQRT_LOG:
            np.divide(1.0, np.sqrt(np.log(idx, out=idx), out=idx), out=idx)
        elif self.form is ScheduleForm.LOGLOG_OVER_LOG:
            ln = np.log(idx, out=idx)
            np.divide(np.log(ln), ln, out=idx)
        else:  # INV_LOG
            np.divide(1.0, np.log(idx, out=idx), out=idx)
        return float(idx) if scalar else idx

    def to_dict(self) -> dict:
        out: dict = {"form": self.form.value}
        if self.constant_a is not None:
            out["constant_a"] = self.constant_a
        if self.floor_index is not None:
            out["floor_index"] = self.floor_index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MomentSchedule":
        known_keys(data, ("form", "constant_a", "floor_index"))
        a, floor = data.get("constant_a"), data.get("floor_index")
        return cls(keyed("form", ScheduleForm, data.get("form", "inv_sqrt_log")),
                   None if a is None else keyed("constant_a", as_float, a),
                   None if floor is None else keyed("floor_index", as_int, floor))


def validate_schedule(schedule: MomentSchedule, horizon: int) -> None:
    # the benchmark under bench/ calls this; the constructor checks a schedule
    pass


def least_index(holds, lo: int, cap: int | None = None) -> int | None:
    """The least n in [lo, cap] with ``holds(n)``, for a ``holds`` that
    stays true once true; None when ``holds(cap)`` is false or cap < lo.
    ``cap`` None sets no upper end; ``lo`` must be at least 1.

    Doubles hi from lo, clipped to cap, until holds(hi), then bisects the
    integers after the last hi that failed.
    """
    if cap is not None and cap < lo:
        return None
    start = hi = lo
    while not holds(hi):
        if hi == cap:
            return None
        start = hi + 1
        hi = 2 * hi if cap is None else min(2 * hi, cap)
    return start + bisect_left(range(start, hi), True, key=holds)


class SparsityMode(Enum):
    AUTO = "auto"
    ALL_ZERO = "all_zero"
    ALL_ONE = "all_one"
    EXPLICIT = "explicit_list"


def _targets(schedule: MomentSchedule, c: float, n: np.ndarray) -> np.ndarray:
    """ceil(c * n**a_n) on a float64 array ``n``: the AUTO pattern's target.

    np.power, not exp(a*ln n): pow(x, 1.0) is exact, so integer targets (the
    a=1 boundary case) land on integers.  The insert-position search
    evaluates it; :meth:`SparsityPattern.chunks` writes the same ufuncs in
    the same order itself, into its reused buffers, so the two give the
    same targets.
    """
    return np.ceil(c * np.power(n, schedule.value(n)))


@dataclass(frozen=True)
class SparsityPattern:
    """Nonrandom 0/1 insertion pattern with running counts.

    AUTO mode fires an insert exactly when ceil(c * n**a_n) increments, so
    phi_n tracks ceil(c * n**a_n) and the sup of phi_n / n**a_n stays below
    c + 1.  The pattern is a plain value.  :meth:`chunks` is its one pass
    over the indices, which :meth:`alpha`, the path workspace and the
    INFREQUENCY hypothesis all read; what the paths of a simulation reuse
    (the insert offsets and 1/a_n at them) is kept in their
    :class:`~slln_lab.mixture.PathWorkspace`.
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

    def chunks(self, horizon: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray | None]]:
        """The pattern over indices 1..horizon, ``_CHUNK`` indices at a time.

        Yields ``(s0, n, alpha, power)`` for the chunk of indices s0 + 1 ..
        s0 + n.size: ``n`` holds them as float64, ``alpha`` their alpha_n
        as uint8, and ``power`` n**a_n as ``np.power`` gives it for an AUTO
        pattern (None for the other modes).  The arrays are buffers the
        next chunk overwrites, and the caller may overwrite them too.

        An AUTO insert falls wherever the target ceil(c * n**a_n)
        increments, the target carried across chunk seams; at n = 1 there
        is one only when c >= 1 (ceil(c) >= 1 holds for any c > 0).
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.mode is SparsityMode.EXPLICIT and len(self.explicit) < horizon:
            raise ValueError("explicit alpha list shorter than horizon")
        size, auto = min(_CHUNK, horizon), self.mode is SparsityMode.AUTO
        # n less its offset, n, and for AUTO n**a_n and the target, in one block: freeing it lifts glibc's
        # trim threshold above what a path allocates, so a path's buffers are not faulted in on every path
        ones, n_buf, *auto_buf = np.empty((4 if auto else 2, size))
        np.cumsum(np.broadcast_to(1.0, size), out=ones)  # 1 .. size, exact, with no temporary
        (power_buf, targets_buf), alpha_buf = auto_buf or (None, None), np.empty(size, dtype=np.uint8)
        last, power = None, None
        for s0 in range(0, horizon, _CHUNK):
            m = min(_CHUNK, horizon - s0)
            n, alpha = np.add(ones[:m], s0, out=n_buf[:m]), alpha_buf[:m]  # exact: n < 2**53
            if self.mode is SparsityMode.EXPLICIT:
                alpha[:] = self.explicit[s0:s0 + m]
            elif not auto:
                alpha.fill(self.mode is SparsityMode.ALL_ONE)
            else:
                power = np.power(n, self.schedule.value(n, out=power_buf[:m]), out=power_buf[:m])
                targets = np.ceil(np.multiply(power, self.c, out=targets_buf[:m]), out=targets_buf[:m])
                alpha[0] = self.c >= 1.0 if last is None else targets[0] > last
                np.greater(targets[1:], targets[:-1], out=alpha[1:])
                last = float(targets[-1])
            yield s0, n, alpha, power

    def alpha(self, horizon: int) -> np.ndarray:
        """alpha_1..alpha_horizon as a uint8 array."""
        return np.concatenate([alpha.copy() for _, _, alpha, _ in self.chunks(horizon)])

    def phi(self, horizon: int) -> np.ndarray:
        """Running insert count phi_1..phi_horizon."""
        return np.cumsum(self.alpha(horizon), dtype=np.int64)

    def to_dict(self) -> dict:
        out = {"mode": self.mode.value, "c": self.c}
        if self.mode is SparsityMode.EXPLICIT:  # the one mode from_dict reads alpha in
            out["alpha"] = list(self.explicit)
        return out

    @classmethod
    def from_dict(cls, data: dict, schedule: MomentSchedule) -> "SparsityPattern":
        """``schedule`` drives the AUTO mode and is ignored by the others."""
        mode = keyed("mode", SparsityMode, data.get("mode", "auto"))
        known_keys(data, ("mode", "c", "alpha") if mode is SparsityMode.EXPLICIT else ("mode", "c"))
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


def y_insertion_positions(schedule: MomentSchedule, c: float, count: int) -> list[int]:
    """Global indices of the first ``count`` inserts of the AUTO pattern.

    The positions can lie far beyond any materializable horizon (the k-th
    insert of the inverse-sqrt-log schedule sits near exp((ln k)**2)), so
    they come from a search on the closed form of phi instead of alpha.
    Requires c <= 1: there the ceiling target advances by at most one per
    index, and phi_n = ceil(c * n**a_n) - 1, plus 1 when c = 1.  Larger
    targets can skip a count, and then phi has no closed form.

    phi is evaluated in float64 arithmetic, so rounding can make it
    non-monotone: past 2**53 distinct n share one float(n), and well below
    2**53 the rounding of c * n**a_n alone does it.  The k-th position is
    defined by a sequential search: from lo_k = pos_{k-1} (lo_1 = 1), grow
    hi by a factor of 4 from max(lo_k, 2) until phi(hi) >= k, then bisect
    the integers of [lo_k, hi].  Where phi is non-monotone, the result is
    the transition this bisection lands on: for inv_sqrt_log at c = 1, phi
    steps from 319 to 320 at both n = 272164683111954 and n =
    272164683111956 (about 2.7e14, below 2**53 ~ 9.0e15), and pos_320 is the
    first.  These integers are the contract, at every size: the tests pin
    the first 1e4 inv_sqrt_log positions at c = 1 by their sha256
    (703a5b1b...).  The exact transitions of c * n**a_n differ from them by
    about 3e-14 relative, far below the 1e-3 convergence diagnostic of the
    weighted series.

    The searches run in lockstep, one vectorized phi evaluation per step
    for every k of a block still searching.  The search for k depends on the one for
    k-1 only through lo_k, so the positions are iterated to a fixed point.
    Round 1 searches k = 1 from 1 and every later k from the float
    estimate of pos_{k-1} (:func:`_estimates`), then marks for search
    again every k + 1 whose pos_k differs from its estimate.  Each later
    round searches again the k whose predecessor changed in the round
    before, from lo_k = pos_{k-1} as it then stands.  When nothing is left
    to search again, pos_k = search(k, pos_{k-1}) holds for every k, which
    is the sequential recurrence, whatever the estimates were: they only
    decide how many rounds it takes.  After round r the first r positions
    are final, so at most count rounds run.

    Raises :class:`SearchExhausted` for the first k whose search, started
    from its final lo_k, grows hi past the cap.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("insert positions require 0 < c <= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    # phi_n >= k  <=>  target_n >= k + 1 - [c = 1]
    need = np.arange(1, count + 1, dtype=np.float64) + (0.0 if c >= 1.0 else 1.0)
    # Python ints in object arrays: positions pass int64 long before the cap;
    # 0 marks a search that passed the cap
    estimates = _estimates(schedule, c, need)
    lo = np.roll(estimates, 1)  # k from the estimate of pos_{k-1}, k = 1 from 1
    lo[:1] = 1
    positions = _search(schedule, c, need, lo)
    redo = np.flatnonzero(positions[:-1] != estimates[:-1]) + 1  # 0-based: the k - 1 to search again
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


def _estimates(schedule: MomentSchedule, c: float, need: np.ndarray) -> np.ndarray:
    """For each i, an estimate in float64 arithmetic of the first n with
    target_n >= ``need[i]``.

    Bisects the int64 bit patterns of the floats in [1, the cap], which
    order as the floats do, for the least f with target_f >= need[i]; then
    returns the least integer m with float(m) >= f, as Python ints.  Where
    the target is monotone this is the position the sequential search
    finds.
    """
    lo = np.full(need.size, np.float64(1.0).view(np.int64))
    hi = np.full(need.size, np.float64(_CAP_FLOAT).view(np.int64))
    while (open_ := lo < hi).any():
        mid = lo + (hi - lo) // 2  # (lo + hi) // 2 overflows int64
        ge = _targets(schedule, c, mid.view(np.float64)) >= need
        hi = np.where(ge, mid, hi)
        lo = np.where(ge | ~open_, lo, mid + 1)
    return _least_integers_reaching(lo.view(np.float64))


def _reaching(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least integers m with float(m) >= f, for a float64 array f >= 1,
    as m = a * 2**t + b: uint64 a < 2**55, int t >= 0 and bool b.

    Up to 2**53 m is ceil(f).  Past it a * 2**t is the integer midway to
    the float below f, which rounds to f when f's significand is even (a
    tie goes to the even significand) and to the float below when it is
    odd; then b adds 1.
    """
    above = f > 2.0 ** 53
    t = np.where(above, np.frexp(f - np.nextafter(f, 0.0))[1] - 2, 0)  # 2**t is half the gap below f
    a = np.ceil(np.ldexp(f, -t)).astype(np.uint64) - above
    return a, t, np.ldexp(a.astype(np.float64), t) < f


def _least_integers_reaching(f: np.ndarray) -> np.ndarray:
    """:func:`_reaching` as Python ints in an object array."""
    a, t, b = _reaching(f)
    return (a.astype(object) << t.astype(object)) + b.astype(object)


def _least_limbs_reaching(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_reaching` as limbs, for f below 2**128."""
    a, t, b = _reaching(f)
    low = t < 64
    t_low = np.minimum(t, 63).astype(np.uint64)
    high = np.where(low, (a >> 1) >> (63 - t_low), a << (np.maximum(t, 64) - 64).astype(np.uint64))
    return high, np.where(low, a << t_low, 0) + b  # bit 0 of a << t is clear unless t = 0, where a < 2**55


# The limb search holds lo, hi and mid as two uint64 limbs, high and low,
# each below _LIMB_CEILING, so that lo + hi stays below 2**128; a row whose
# hi * 4 would reach the ceiling finishes on Python ints.
_LIMB_CEILING = 2 ** 127
_GROWTH_LIMIT = np.uint64(_LIMB_CEILING >> 66)  # the high limb of a hi whose hi * 4 reaches the ceiling


def _split(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An object array of ints in [0, 2**128) as its high and low limbs."""
    return (n >> 64).astype(np.uint64), (n & (2 ** 64 - 1)).astype(np.uint64)


def _join(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    return (high.astype(object) << 64) | low.astype(object)


def _limbs_float(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """float(high * 2**64 + low), rounded as Python's float(int) rounds it.

    Drops the low s bits, s the bit length of the high limb, and keeps the
    top 64 with a sticky bit in bit 0 for any dropped bit that is set: they
    round to 53 bits as the whole integer does, so their cast, to nearest
    with ties to even, scaled by 2**s is the float.  frexp gives s, or
    s + 1 where float(high) rounded up to a power of two, which keeps 63
    bits, still more than rounding reads; 65 is clipped to 64, as shifts
    of 64 or more are not portable.  A high limb of 0 is the cast of the
    low one.
    """
    s = np.minimum(np.maximum(np.frexp(high.astype(np.float64))[1], 1), 64)
    shift = s.astype(np.uint64)
    top = (high << (64 - shift)) | ((low >> (shift - 1)) >> 1) | ((low << (64 - shift)) != 0)
    return np.where(high == 0, low.astype(np.float64), np.ldexp(top.astype(np.float64), s))


def _midpoint(lo_high, lo_low, hi_high, hi_low) -> tuple[np.ndarray, np.ndarray]:
    """(lo + hi) // 2 on limbs, for lo + hi below 2**128."""
    low = lo_low + hi_low
    high = lo_high + hi_high + (low < lo_low)  # the carry
    return high >> 1, (low >> 1) | (high << 63)


def _plus_one(high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    low = low + 1
    return high + (low == 0), low


def _less(a_high, a_low, b_high, b_low) -> np.ndarray:
    return (a_high < b_high) | ((a_high == b_high) & (a_low < b_low))


def _search(schedule: MomentSchedule, c: float, need: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """For each i, the first n found from ``lo[i]`` with target_n >= ``need[i]``,
    by the sequential search of :func:`y_insertion_positions` (0 past the cap).

    The predicate reads only float(n), and int-to-float rounding is
    monotone, so the bisection is decided well before hi - lo reaches 0.
    Beside lo and hi the search keeps fhi = float(hi) and a lower bound
    flo on float(lo): float(lo) for the start, float(lo - 1) once lo =
    mid + 1, both from the midpoint floats the predicate computes anyway.
    Once float(hi) is at most the float above flo, the integers left lie in
    at most two rounding cells, and reached(hi) holds.  An lo in flo's cell
    is not reached: it is the start, from which hi had to grow, or mid + 1
    with the float of an unreached mid.  Any other lo is the first integer
    of the cell above flo's, which is hi's.  Either way the bisection ends
    at the least integer whose float is float(hi), and the search returns
    it at once.  For the inv_sqrt_log positions at c = 1 and k_max = 1e4 (123
    bits at the end) this cuts the target evaluations of all search rounds
    from 1.43 M to 0.77 M, and moves no position.

    A search whose lo is below ``_LIMB_CEILING`` runs on two uint64 limbs
    per integer (:func:`_midpoint`, :func:`_plus_one`, :func:`_less` and
    :func:`_limbs_float`: the multiple-precision add, shift and compare of
    Knuth, TAOCP vol. 2, 4.3.1) until its hi would grow to the ceiling;
    from there, and from an lo at or past it, the search runs on Python
    ints in object arrays (:func:`_search_ints`).  Both take the same steps.

    Runs ``_SEARCH_BLOCK`` searches at a time, which bounds the arrays a
    step allocates.  For the inv_sqrt_log positions at c = 1 and k_max =
    1e4, the weighted-series benchmark on a shared 2-core Xeon peaks at
    42.5 MiB RSS in blocks of 1024 and at 44.7 MiB in one block of 1e4;
    the one block would save about a sixth of its 0.15 s.
    """
    if lo.size > _SEARCH_BLOCK:
        blocks = range(0, lo.size, _SEARCH_BLOCK)
        return np.concatenate([_search(schedule, c, need[s:s + _SEARCH_BLOCK], lo[s:s + _SEARCH_BLOCK])
                               for s in blocks])

    def unreached(f: np.ndarray, i: np.ndarray) -> np.ndarray:
        return ~(_targets(schedule, c, f) >= need[i])

    found, hi = lo.copy(), np.maximum(lo, 2)
    rows = np.flatnonzero(lo < _LIMB_CEILING)
    lo_high, lo_low = _split(lo[rows])
    hi_high, hi_low = _split(hi[rows])
    fhi = _limbs_float(hi_high, hi_low)
    i = np.flatnonzero(unreached(fhi, rows))
    crossing = np.zeros(rows.size, dtype=bool)
    while i.size:
        ceiling = hi_high[i] >= _GROWTH_LIMIT
        crossing[i[ceiling]] = True
        i = i[~ceiling]
        hi_high[i] = (hi_high[i] << 2) | (hi_low[i] >> 62)
        hi_low[i] <<= 2
        fhi[i] = _limbs_float(hi_high[i], hi_low[i])
        i = i[unreached(fhi[i], rows[i])]
    # the searches still bisecting, with their bounds and need, compacted as they finish
    i = np.flatnonzero(~crossing & _less(lo_high, lo_low, hi_high, hi_low))
    lh, ll, hh, hl, fh, nd = (a[i] for a in (lo_high, lo_low, hi_high, hi_low, fhi, need[rows]))
    fl = _limbs_float(lh, ll)
    while i.size:
        mid_high, mid_low = _midpoint(lh, ll, hh, hl)
        fmid = _limbs_float(mid_high, mid_low)
        ge = _targets(schedule, c, fmid) >= nd
        next_high, next_low = _plus_one(mid_high, mid_low)
        hh, hl, fh = np.where(ge, mid_high, hh), np.where(ge, mid_low, hl), np.where(ge, fmid, fh)
        lh, ll, fl = np.where(ge, lh, next_high), np.where(ge, ll, next_low), np.where(ge, fl, fmid)
        done = ~_less(lh, ll, hh, hl)
        cells = ~done & (np.nextafter(fl, np.inf) >= fh)
        if cells.any():
            lh[cells], ll[cells] = _least_limbs_reaching(fh[cells])
            done |= cells
        if done.any():
            lo_high[i[done]], lo_low[i[done]] = lh[done], ll[done]
            keep = ~done
            i, lh, ll, hh, hl, fl, fh, nd = (a[keep] for a in (i, lh, ll, hh, hl, fl, fh, nd))
    found[rows] = _join(lo_high, lo_low)
    hi[rows[crossing]] = _join(hi_high[crossing], hi_low[crossing])
    wide = np.concatenate([np.flatnonzero(lo >= _LIMB_CEILING), rows[crossing]])
    found[wide] = _search_ints(schedule, c, need[wide], lo[wide], hi[wide])
    return found


def _search_ints(schedule: MomentSchedule, c: float, need: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """:func:`_search` on Python ints in object arrays, from hi, which is
    max(lo, 2) or an unreached hi the limb search grew to its ceiling."""
    def reached(n: np.ndarray, i: np.ndarray) -> np.ndarray:
        return _targets(schedule, c, n.astype(np.float64)) >= need[i]

    lo, hi = lo.copy(), hi.copy()
    i = np.flatnonzero(~reached(hi, np.arange(lo.size)))
    while i.size:
        hi[i] *= 4
        past = hi[i] > _POSITION_SEARCH_CAP
        lo[i[past]] = 0
        hi[i[past]] = 0
        i = i[~past]
        i = i[~reached(hi[i], i)]
    # fhi is float(hi) and flo a lower bound on float(lo)
    flo = lo.astype(np.float64)
    fhi = hi.astype(np.float64)
    i = np.flatnonzero(lo < hi)
    while i.size:
        mid = (lo[i] + hi[i]) // 2
        fmid = mid.astype(np.float64)
        ge = _targets(schedule, c, fmid) >= need[i]
        hi[i[ge]] = mid[ge]
        fhi[i[ge]] = fmid[ge]
        lo[i[~ge]] = mid[~ge] + 1
        flo[i[~ge]] = fmid[~ge]
        i = i[lo[i] < hi[i]]
        cells = np.nextafter(flo[i], np.inf) >= fhi[i]
        if cells.any():
            lo[i[cells]] = _least_integers_reaching(fhi[i[cells]])
            i = i[~cells]
    return lo
