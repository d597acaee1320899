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
from .schedules import ScheduleForm, least_index

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
    The index-wise checks read the config horizon capped at 10**6, so a
    large simulation config can be vetted quickly.  INFREQUENCY reads one
    pass of :meth:`SparsityPattern.chunks` over it, which gives n**a_n too
    for an AUTO pattern of the spec's schedule.  A_LN_N searches at least 3 indices for the first n
    with a_n * ln n at its target: a_n * ln n never decreases (below the
    floor it is a_floor * ln n, past it sqrt(ln n), ln ln n, a * ln n or 1).
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

    def growth(n: int) -> float:  # a_n * ln n
        return np.log(n) * schedule.value(n)

    hit = least_index(lambda n: growth(n) >= _GROWTH_TARGET, 1, span)
    if hit is not None:
        growth_entry = HypothesisEntry(
            "A_LN_N", "PASS", float(hit), f"a_n*ln n reaches {_GROWTH_TARGET} at n={hit}"
        )
    else:
        growth_entry = HypothesisEntry(
            "A_LN_N", "PASS" if schedule.form is ScheduleForm.CONSTANT else "FAIL", math.inf,
            f"a_n*ln n never reaches {_GROWTH_TARGET} on [1, {span}] (value {growth(span):.6g} at horizon)",
        )

    decade = max(horizon // 10, 1) - 1  # a new max past this index counts
    # carried across chunks: phi at the chunk's end, the max of phi_n / n**a_n
    # so far and the max up to the decade index; the maxima propagate NaN
    phi_last = 0
    sup = decade_max = -math.inf
    for s0, n, alpha, power in pattern.chunks(horizon):
        if power is None or pattern.schedule != schedule:  # an AUTO pattern of another schedule keeps its inserts
            power = np.power(n, schedule.value(n), out=n)
        phi = np.cumsum(alpha, dtype=np.int64)
        phi += phi_last
        phi_last = phi[-1]
        ratio = phi / power
        if s0 <= decade < s0 + ratio.size:
            decade_max = np.maximum(sup, ratio[:decade - s0 + 1].max())
        sup = np.maximum(sup, ratio.max())
    sup_ratio = float(sup)
    new_max = bool(sup > decade_max)
    entries.append(
        HypothesisEntry(
            "INFREQUENCY", "PASS" if not new_max or sup_ratio <= threshold else "FAIL", sup_ratio,
            f"sup ratio {sup_ratio:.6g} vs threshold {threshold:.6g} (new max in last decade: {new_max})",
        )
    )
    entries.append(growth_entry)
    return HypothesisReport(entries)
