"""Verification of every standing assumption behind the limit theorem.

Each check produces a numeric witness (a constant, a sup, a first index)
rather than a bare boolean.  For identically distributed built-in families
the Cesaro-averaged tail sup collapses analytically: the average of n-n0+1
identical tails over n positions is maximized in the n->infinity limit,
where it equals the single-draw tail, so the constant reduces to E|X|
regardless of the start index.  Resolving the sup analytically avoids the
systematic under-estimation a truncated numerical sup would commit.

Every constant is a closed form: E|X| from :meth:`XFamily.mean_abs`, the
envelope integral from :meth:`TailEnvelope.integral`.  No value passes
through a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral
from .generators import XFamily, infinite_mean_onset
from .schedules import ScheduleForm, SparsityMode, _auto_alpha, _exponent_chunks

_GROWTH_TARGET = 3.0  # A_LN_N: the first n with a_n * ln n at least this witnesses the growth


@dataclass
class HypothesisEntry:
    id: str
    status: str  # PASS / FAIL / N-A
    value: float
    detail: str


@dataclass
class HypothesisReport:
    entries: list[HypothesisEntry]

    def entry(self, entry_id: str) -> HypothesisEntry:
        for e in self.entries:
            if e.id == entry_id:
                return e
        raise KeyError(entry_id)

    def all_pass(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"id": e.id, "status": e.status, "value": e.value, "detail": e.detail}
                for e in self.entries
            ],
            "all_pass": self.all_pass(),
        }


def cesaro_tail_constant(family: XFamily) -> float:
    """Integral of the sup of Cesaro-averaged tails: E|X|, in closed form.

    Raises :class:`DivergentIntegral` when E|X| is infinite (the designed
    infinite-mean family).
    """
    if not family.has_finite_mean():
        raise DivergentIntegral(
            f"tail integral beyond any budget: Pareto shape {family.shape} has no mean"
        )
    return family.mean_abs()


def verify_hypotheses(config, infrequency_threshold: float | None = None) -> HypothesisReport:
    """Run every hypothesis check against one experiment spec.

    ``infrequency_threshold`` defaults to the spec's own, then to 10 * c.
    The index-wise checks read one evaluation of a_n over the config
    horizon capped at 10**6, so a large simulation config can be vetted
    quickly; it runs a chunk of indices at a time, so its temporaries stay
    chunk-sized.  A_LN_N takes at least 3 indices; INFREQUENCY takes only
    the indices where the pattern is defined.
    """
    pattern, schedule = config.pattern, config.schedule
    threshold = config.infrequency_threshold if infrequency_threshold is None else infrequency_threshold
    if threshold is None:
        threshold = 10.0 * pattern.c
    horizon = min(config.horizon, 10 ** 6)
    span = max(horizon, 3)
    entries: list[HypothesisEntry] = []

    family = config.x_family
    if family.has_finite_mean():
        entries.append(
            HypothesisEntry("CENTERING", "PASS", 0.0, "family is centered by construction")
        )
    else:
        entries.append(
            HypothesisEntry(
                "CENTERING", "FAIL", math.nan,
                f"Pareto shape {family.shape}: no finite mean, centering impossible",
            )
        )

    try:
        c_n0 = cesaro_tail_constant(family)
        entries.append(
            HypothesisEntry(
                "CESARO_TAIL", "PASS", c_n0,
                f"tail integral from start index 1 equals E|X| = {c_n0:.12g}",
            )
        )
    except DivergentIntegral as exc:
        entries.append(HypothesisEntry("CESARO_TAIL", "FAIL", math.inf, str(exc)))

    # the base variable has the envelope as survival, so its mean is the
    # envelope integral; the onset is where a transformed draw loses it
    mean_v = config.envelope.integral()
    onset = infinite_mean_onset(config.envelope, schedule)
    detail = f"mean of the base variable = envelope integral = {mean_v:.12g}"
    if onset is not None:
        detail += f"; transformed draws lose their mean from index {onset}"
    entries.append(HypothesisEntry("V_MOMENT", "PASS" if math.isfinite(mean_v) else "FAIL", mean_v, detail))
    entries.append(HypothesisEntry("ENVELOPE", "PASS", mean_v, "nonincreasing envelope with finite integral"))

    # an AUTO pattern built from another schedule keeps its own inserts
    own_alpha = pattern.mode is SparsityMode.AUTO and pattern.schedule == schedule
    alpha = None if own_alpha else pattern.alpha(horizon)
    decade = max(horizon // 10, 1) - 1  # INFREQUENCY: a new max past this index counts
    # carried across chunks: the first n with a_n*ln n at the target and
    # a_n*ln n at the chunk's end (A_LN_N); the AUTO target, phi and the
    # running max of phi_n / n**a_n at the chunk's end, and the running
    # max at the decade index (INFREQUENCY)
    hit = growth_last = target = running_max = decade_max = None
    phi_last = s0 = 0
    for n, a in _exponent_chunks(schedule, span):
        if hit is None:
            growth = np.log(n)
            growth *= a
            reached = np.flatnonzero(growth >= _GROWTH_TARGET)
            if reached.size:
                hit = s0 + int(reached[0]) + 1
            growth_last = growth[-1]
        power = np.power(n, a, out=a)[:horizon - s0]  # s0 < horizon: span > horizon only below 3
        if own_alpha:
            chunk = np.empty(power.size, dtype=np.uint8)
            target = _auto_alpha(pattern.c, power, target, chunk)
        else:
            chunk = alpha[s0:s0 + power.size]
        phi = np.cumsum(chunk, dtype=np.int64)
        phi += phi_last
        phi_last = phi[-1]
        running = phi / power
        if running_max is not None:
            # the step one accumulate over the whole horizon takes, NaN included
            running[0] = np.maximum(running_max, running[0])
        np.maximum.accumulate(running, out=running)
        running_max = running[-1]
        if s0 <= decade < s0 + running.size:
            decade_max = running[decade - s0]
        s0 += n.size
    if hit is not None:
        growth_entry = HypothesisEntry(
            "A_LN_N", "PASS", float(hit), f"a_n*ln n reaches {_GROWTH_TARGET} at n={hit}"
        )
    else:
        growth_entry = HypothesisEntry(
            "A_LN_N", "PASS" if schedule.form is ScheduleForm.CONSTANT else "FAIL", math.inf,
            f"a_n*ln n never reaches {_GROWTH_TARGET} on [1, {span}] (value {growth_last:.6g} at horizon)",
        )
    sup_ratio = float(running_max)
    new_max = bool(running_max > decade_max)
    entries.append(
        HypothesisEntry(
            "INFREQUENCY", "PASS" if not new_max or sup_ratio <= threshold else "FAIL", sup_ratio,
            f"sup ratio {sup_ratio:.6g} vs threshold {threshold:.6g} (new max in last decade: {new_max})",
        )
    )
    entries.append(growth_entry)
    return HypothesisReport(entries)
