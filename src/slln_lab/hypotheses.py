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

from .errors import DivergentIntegral
from .generators import TailEnvelope, XFamily, infinite_mean_onset
from .schedules import MomentSchedule, SparsityPattern, ratio_running_max, validate_schedule


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


@dataclass
class VMomentReport:
    status: str
    mean_v: float
    infinite_mean_onset_index: int | None
    detail: str


def v_moment_check(envelope: TailEnvelope, schedule: MomentSchedule | None = None) -> VMomentReport:
    """Finiteness of the base-variable mean (exact for the extremal law).

    The base variable is nonnegative with survival equal to the envelope, so
    its mean is the envelope integral.  When a schedule is supplied, also
    reports the first index whose transformed draw loses its mean.
    """
    mean_v = envelope.integral()
    onset = infinite_mean_onset(envelope, schedule) if schedule is not None else None
    detail = f"mean of the base variable = envelope integral = {mean_v:.12g}"
    if onset is not None:
        detail += f"; transformed draws lose their mean from index {onset}"
    return VMomentReport(
        status="PASS" if math.isfinite(mean_v) else "FAIL",
        mean_v=mean_v,
        infinite_mean_onset_index=onset,
        detail=detail,
    )


@dataclass
class InfrequencyReport:
    status: str
    sup_ratio: float
    threshold: float
    new_max_in_last_decade: bool
    horizon: int


def infrequency_check(
    pattern: SparsityPattern,
    schedule: MomentSchedule,
    horizon: int,
    threshold: float | None = None,
) -> InfrequencyReport:
    """Boundedness witness for phi_n / n**a_n over [1, horizon].

    PASS if the running max stops growing over the last decade of indices or
    stays below the threshold (default 10 * c).
    """
    if threshold is None:
        threshold = 10.0 * pattern.c
    running = ratio_running_max(pattern, schedule, horizon)
    sup_ratio = float(running[-1])
    decade_start = max(horizon // 10, 1)
    new_max = bool(running[-1] > running[decade_start - 1])
    ok = (not new_max) or sup_ratio <= threshold
    return InfrequencyReport(
        status="PASS" if ok else "FAIL",
        sup_ratio=sup_ratio,
        threshold=threshold,
        new_max_in_last_decade=new_max,
        horizon=horizon,
    )


def verify_hypotheses(config, infrequency_threshold: float | None = None) -> HypothesisReport:
    """Run every hypothesis check against one experiment spec.

    ``infrequency_threshold`` defaults to the spec's own.  The index-wise
    checks run to the config horizon capped at 10**6, so a large simulation
    config can be vetted quickly.
    """
    if infrequency_threshold is None:
        infrequency_threshold = config.infrequency_threshold
    horizon = max(min(config.horizon, 10 ** 6), 3)
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

    vres = v_moment_check(config.envelope, config.schedule)
    entries.append(HypothesisEntry("V_MOMENT", vres.status, vres.mean_v, vres.detail))

    entries.append(
        HypothesisEntry(
            "ENVELOPE", "PASS", config.envelope.integral(), "nonincreasing envelope with finite integral"
        )
    )

    ifr = infrequency_check(config.pattern, config.schedule, horizon, infrequency_threshold)
    entries.append(
        HypothesisEntry(
            "INFREQUENCY", ifr.status, ifr.sup_ratio,
            f"sup ratio {ifr.sup_ratio:.6g} vs threshold {ifr.threshold:.6g}"
            f" (new max in last decade: {ifr.new_max_in_last_decade})",
        )
    )

    sched = validate_schedule(config.schedule, horizon)
    growth_value = (
        float(sched.first_index_reaching) if sched.first_index_reaching is not None else math.inf
    )
    entries.append(
        HypothesisEntry(
            "A_LN_N", "PASS" if sched.growth_ok else "FAIL", growth_value, sched.detail
        )
    )
    return HypothesisReport(entries)
