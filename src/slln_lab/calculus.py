"""Numerical witnesses for the chain of series bounds behind the heavy part.

The core object is the truncated power moment of the envelope-dominated
base variable v: with w_n = min(v, n),

    E w_n**p = integral_0^n p s**(p-1) G(s) ds + n**p G(n)

(G is the envelope; equality holds for the extremal law).  Summing over n
with weight n**-p gives two series, here called A (the integral part) and
B (the boundary part), each of which must stay under its closed-form bound:

    A <= p/(p-1) * C,   B <= integral_2^inf G <= C,   A + B <= (2p-1)/(p-1) * C,

where C is the envelope integral.  Every series is evaluated as an exact
partial sum plus an analytic remainder bound (never bare truncation), using
the tail estimate  sum_{n>=m} n**-p <= (m-1)**(1-p) / (p-1).

A value above its bound raises :class:`~slln_lab.errors.BoundViolation`.
The inequalities are theorems for the built-in envelopes, but the value is
an upper assembly: at a small truncation the remainder bound alone can
exceed the series bound (series A on Pareto(1.5) at p = 10 for every
truncation up to 7, on Pareto(1.1) at p = 10 up to 39).  At the default
truncation a violation means a bug.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundViolation, SearchExhausted
from .generators import _CHUNK, DependenceMode, EnvelopeKind, TailEnvelope, draw_heavy, reciprocal_exponents
from .rng import Channel, StreamKey, derive_stream
from .schedules import MomentSchedule, y_insertion_positions

BOUND_TOL = 1e-8  # slack below which a bound counts as violated
DEFAULT_TRUNCATION = 10 ** 6
DEFAULT_PS = (1.01, 1.5, 2.0, 3.0, 10.0)


def envelope_power_integral(envelope: TailEnvelope, n, p: float, out: np.ndarray | None = None):
    """Closed form of integral_0^x p s**(p-1) G(s) ds for scalar or array x >= 0.

    ``out`` (which may be ``n`` itself) receives the values of an array ``n``;
    None allocates it.  A scalar ``n`` gives a float.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    scalar = np.isscalar(n)
    x = np.asarray(n, dtype=np.float64)
    if not np.all(x >= 0):  # NaN fails too
        raise ValueError("upper limit must be >= 0")
    value = np.empty_like(x) if out is None else out
    if envelope.kind is EnvelopeKind.EXP:
        import scipy.special as sp  # local import: it takes about 0.3 s to load, and only EXP needs it

        sp.gammainc(p, x, out=value)
        value *= sp.gamma(p + 1.0)
    else:
        g = envelope.gamma
        low = x <= 1.0
        head = np.power(x[low], p)  # taken before ``value``, which may be ``x``, is overwritten
        np.maximum(x, 1.0, out=value)
        if abs(p - g) < 1e-12:
            np.log(value, out=value)
            value *= p
        else:
            np.power(value, p - g, out=value)
            value -= 1.0
            value *= p / (p - g)
        value += 1.0
        value[low] = head
    return float(value) if scalar else value


def truncated_power_moment(envelope: TailEnvelope, n: float, p: float) -> float:
    """E min(v, n)**p in closed form: body integral plus boundary term n**p G(n)."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if not np.all(n >= 0):  # NaN fails too
        raise ValueError("n must be >= 0")
    x = float(n)
    return envelope_power_integral(envelope, x, p) + x ** p * envelope.survival(x)


@dataclass
class BoundCheck:
    """One evaluated series against its analytic bound."""

    name: str
    envelope: TailEnvelope
    p: float | None
    value: float          # partial sum + analytic remainder bound
    partial: float
    remainder: float
    bound: float
    truncation: int

    @property
    def envelope_label(self) -> str:
        if self.envelope.kind is EnvelopeKind.EXP:
            return "exp"
        return f"pareto({self.envelope.gamma:g})"

    @property
    def slack(self) -> float:
        return self.bound - self.value

    def enforce(self) -> "BoundCheck":
        if self.value > self.bound + BOUND_TOL:
            raise BoundViolation(
                f"{self.name}[{self.envelope_label}, p={self.p}]: "
                f"value {self.value!r} (partial sum {self.partial!r} + remainder {self.remainder!r} "
                f"at truncation {self.truncation}) exceeds bound {self.bound!r}"
            )
        return self


def _zeta_tail_bound(m: float, p: float) -> float:
    """sum_{n>=m} n**-p <= (m-1)**(1-p) / (p-1) for p > 1, m >= 2."""
    return (m - 1.0) ** (1.0 - p) / (p - 1.0)


def _body_remainder(envelope: TailEnvelope, t: float, p: float) -> float:
    """Bound on sum_{n>t} n**-p I(n): the s <= t part of each integral against
    the zeta tail from t+1, plus the s > t part against the envelope tail."""
    head = envelope_power_integral(envelope, t, p) * _zeta_tail_bound(t + 1.0, p)
    far = p / (p - 1.0) * ((t + 1.0) / t) ** (p - 1.0) * envelope.tail_integral(t)
    return head + far


def _partial_sum(fill, truncation: int) -> float:
    """sum_{n=3}^{truncation} of the terms ``fill(n, dest)`` writes into ``dest``.

    ``n`` runs over the float indices a chunk of ``_CHUNK`` at a time.  The
    terms fill one array that is summed once, so the result is the float
    ``np.sum`` gives over the whole-range expression (the same pairwise tree).
    """
    if truncation < 3:
        raise ValueError("truncation must be >= 3")
    terms = np.empty(truncation - 2)
    steps = np.arange(_CHUNK, dtype=np.float64)
    n = np.empty(_CHUNK)
    for s0 in range(0, terms.size, _CHUNK):
        dest = terms[s0:s0 + _CHUNK]
        fill(np.add(steps[:dest.size], s0 + 3, out=n[:dest.size]), dest)
    return float(np.sum(terms))


def series_bound_A(
    envelope: TailEnvelope, p: float, truncation: int = DEFAULT_TRUNCATION
) -> BoundCheck:
    """Weighted series of body integrals: sum_{n>=3} n**-p I(n) vs p/(p-1) * C.

    Remainder past the truncation point T comes from swapping the sum and the
    integral: contributions with s <= T pair with the zeta tail from T+1,
    contributions with s > T are bounded by p/(p-1) * (1+1/T)**(p-1) times
    the envelope tail integral from T.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    weights = np.empty(_CHUNK)

    def fill(n: np.ndarray, dest: np.ndarray) -> None:
        envelope_power_integral(envelope, n, p, out=dest)
        dest *= np.power(n, -p, out=weights[:n.size])

    partial = _partial_sum(fill, truncation)
    remainder = _body_remainder(envelope, float(truncation), p)
    return BoundCheck(
        name="series_A",
        envelope=envelope,
        p=p,
        value=partial + remainder,
        partial=partial,
        remainder=remainder,
        bound=p / (p - 1.0) * envelope.integral(),
        truncation=truncation,
    ).enforce()


def series_bound_B(envelope: TailEnvelope, truncation: int = DEFAULT_TRUNCATION) -> BoundCheck:
    """Boundary series sum_{n>=3} G(n) vs the envelope integral.

    The nonincreasing envelope gives G(n) <= integral_{n-1}^n G, so the
    series is below the envelope integral from 2 (recorded as the partial
    bound) and in particular below the full integral, which is asserted.
    """
    partial = _partial_sum(lambda n, dest: envelope.survival(n, out=dest), truncation)
    remainder = envelope.tail_integral(float(truncation))
    return BoundCheck(
        name="series_B",
        envelope=envelope,
        p=None,
        value=partial + remainder,
        partial=partial,
        remainder=remainder,
        bound=envelope.integral(),
        truncation=truncation,
    ).enforce()


def combined_series_bound(a: BoundCheck, b: BoundCheck) -> BoundCheck:
    """A + B against (2p-1)/(p-1) times the envelope integral.

    Sums the given checks of series A and series B, which must belong to one
    envelope and one truncation; neither series is evaluated again.
    """
    if (a.name, b.name) != ("series_A", "series_B"):
        raise ValueError(f"expected a series_A and a series_B check, got {a.name} and {b.name}")
    if a.envelope != b.envelope:
        raise ValueError(f"checks of {a.envelope!r} and {b.envelope!r} belong to different envelopes")
    if a.truncation != b.truncation:
        raise ValueError(f"checks at truncations {a.truncation} and {b.truncation} differ")
    return BoundCheck(
        name="series_A_plus_B",
        envelope=a.envelope,
        p=a.p,
        value=a.value + b.value,
        partial=a.partial + b.partial,
        remainder=a.remainder + b.remainder,
        bound=(2.0 * a.p - 1.0) / (a.p - 1.0) * a.envelope.integral(),
        truncation=a.truncation,
    ).enforce()


def bound_suite(
    envelopes: Sequence[TailEnvelope] | None = None,
    ps: Sequence[float] = DEFAULT_PS,
    truncation: int = DEFAULT_TRUNCATION,
) -> list[dict]:
    """All three bound checks over the envelope/exponent grid, as CSV-ready rows.

    A is evaluated once per (envelope, p) and B once per envelope, shared
    across p.  B runs after the envelope's first A, so the checks run in the
    order A(p1), B, A+B(p1), A(p2), A+B(p2), ... and the first violation
    raised is the first in that order.
    """
    if envelopes is None:
        envelopes = (TailEnvelope.exponential(), TailEnvelope.pareto(1.5), TailEnvelope.pareto(2.0))
    rows = []
    for env in envelopes:
        b = None
        for p in ps:
            a = series_bound_A(env, p, truncation)
            b = b or series_bound_B(env, truncation)
            c = combined_series_bound(a, b)
            rows.append({"envelope": a.envelope_label, "p": p,
                         "A": a.value, "bound_A": a.bound, "slack_A": a.slack,
                         "B": b.value, "bound_B": b.bound, "slack_B": b.slack,
                         "combined": c.value, "bound_combined": c.bound, "slack_combined": c.slack})
    return rows


def block_tail_bound(envelope: TailEnvelope, n_start: int, p: float) -> float:
    """Analytic upper bound on sum_{n > n_start} E min(v,n)**p / n**p."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if n_start < 1:
        raise ValueError("n_start must be >= 1")
    t = float(n_start)
    boundary = envelope.tail_integral(t)  # sum_{n>t} G(n) <= integral_t^inf G
    return _body_remainder(envelope, t, p) + boundary


@dataclass
class BlockSchedule:
    """Strictly increasing block boundaries with their exponents.

    ``boundaries[k-1]`` is the least index whose series tail bound drops
    below 1/k**2 at exponent ``exponents[k-1]``; ``step_exponent`` is the
    piecewise-constant exponent map induced by the blocks.
    """

    boundaries: list[int]
    exponents: list[float]
    tail_bounds: list[float]

    def step_exponent(self, n: int) -> float:
        """Exponent in force at index n (first block's exponent before it)."""
        return self.exponents[max(bisect_left(self.boundaries, n) - 1, 0)]


def build_block_schedule(
    envelope: TailEnvelope,
    schedule: MomentSchedule,
    k_max: int,
    search_cap: int = 10 ** 12,
) -> BlockSchedule:
    """Find the least block boundaries making each tail bound drop below 1/k**2.

    The k-th exponent is the reciprocal of the schedule value at index k and
    must exceed 1.  Boundaries are forced strictly increasing.  Raises
    :class:`SearchExhausted` past ``search_cap`` (the construction only
    promises existence, not smallness).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    boundaries: list[int] = []
    exponents: list[float] = []
    tails: list[float] = []
    prev = 0
    for k in range(1, k_max + 1):
        a_k = schedule.value(k)
        if a_k >= 1.0:
            raise ValueError(f"schedule value at index {k} is {a_k}; exponent 1/a must exceed 1")
        p_k = 1.0 / a_k
        target = 1.0 / k ** 2
        lo = prev + 1
        if block_tail_bound(envelope, lo, p_k) < target:
            found = lo
        else:
            hi = lo
            while block_tail_bound(envelope, hi, p_k) >= target:
                hi *= 2
                if hi > search_cap:
                    raise SearchExhausted(
                        f"block boundary {k} not found below cap {search_cap}"
                    )
            lo = max(lo, hi // 2)
            found = lo + bisect_left(range(lo, hi), True, key=lambda m: block_tail_bound(envelope, m, p_k) < target)
        boundaries.append(found)
        exponents.append(p_k)
        tails.append(block_tail_bound(envelope, found, p_k))
        prev = found
    return BlockSchedule(boundaries=boundaries, exponents=exponents, tail_bounds=tails)


@dataclass
class WeightedSeriesResult:
    partial_sums: np.ndarray
    total: float
    last_decade_increment: float  # relative
    converged: bool


def weighted_y_series(y_abs: np.ndarray, exponents: np.ndarray) -> WeightedSeriesResult:
    """Partial sums of sum_k |y_k| / k**(1/a_k), with a convergence diagnostic.

    The diagnostic compares the mass added over the last decade of indices
    to the total: a relative increment under 1e-3 counts as numerically
    converged.
    """
    y = np.asarray(y_abs, dtype=np.float64)
    a = np.asarray(exponents, dtype=np.float64)
    if y.shape != a.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("y values and exponents must be matching nonempty 1-d arrays")
    if np.any(y < 0):
        raise ValueError("y values must be absolute values")
    return _weighted_series(y, _series_weights(1.0 / a))


def _series_weights(inv_exponents: np.ndarray) -> np.ndarray:
    """k ** (1/a_k) for k = 1, 2, ...: the weights of the heavy series."""
    return np.power(np.arange(1, inv_exponents.size + 1, dtype=np.float64), inv_exponents)


def _weighted_series(y: np.ndarray, weights: np.ndarray) -> WeightedSeriesResult:
    sums = np.cumsum(y / weights)
    total = float(sums[-1])
    decade_start = max(y.size // 10, 1)
    if total > 0.0:
        increment = float((sums[-1] - sums[decade_start - 1]) / sums[-1])
    else:
        increment = 0.0
    return WeightedSeriesResult(
        partial_sums=sums,
        total=total,
        last_decade_increment=increment,
        converged=increment < 1e-3,
    )


@dataclass
class WeightedSeriesEnsemble:
    n_paths: int
    k_max: int
    fraction_converged: float
    increments: np.ndarray


def weighted_y_series_ensemble(
    envelope: TailEnvelope,
    schedule: MomentSchedule,
    c: float,
    k_max: int,
    n_paths: int,
    master_seed: int = 0,
) -> WeightedSeriesEnsemble:
    """Convergence rate of the weighted heavy series across simulated paths.

    Exponents come from the insert positions of the AUTO sparsity pattern
    (found in closed form, far beyond any materializable horizon); each path
    draws its base variables independently from its own derived stream.
    The exponents, and the weights they give, are the same on every path.
    """
    positions = np.asarray(y_insertion_positions(schedule, c, k_max), dtype=np.float64)
    inv_exponents = reciprocal_exponents(schedule.value(positions))
    weights = _series_weights(inv_exponents)
    y = np.empty(inv_exponents.size, dtype=np.float64)
    increments = np.empty(n_paths, dtype=np.float64)
    converged = 0
    for i in range(n_paths):
        stream = derive_stream(StreamKey(master_seed, i, Channel.Y))
        res = _weighted_series(draw_heavy(envelope, DependenceMode.INDEPENDENT, inv_exponents, y, stream=stream),
                               weights)
        increments[i] = res.last_decade_increment
        converged += int(res.converged)
    return WeightedSeriesEnsemble(
        n_paths=n_paths,
        k_max=k_max,
        fraction_converged=converged / n_paths,
        increments=increments,
    )


@dataclass
class KroneckerReport:
    """Numeric reading of the series-to-average conversion.

    ``status`` is PASS when the weighted series looks Cauchy over the last
    decade and the rescaled partial sums have dropped, both below 1e-2;
    PREMISE_FAILED when the series itself is not Cauchy (no conclusion is
    asserted then); FAIL otherwise.
    """

    status: str
    tail_size: float
    premise_cauchy: bool
    scaled_average_final: float
    scaled_average_decade_ago: float
    n_terms: int


def kronecker_check(x: np.ndarray, weights: np.ndarray) -> KroneckerReport:
    """Check: if sum x_n / b_n converges and b_n grows, (1/b_N) sum x_n shrinks."""
    xs = np.asarray(x, dtype=np.float64)
    b = np.asarray(weights, dtype=np.float64)
    if xs.shape != b.shape or xs.ndim != 1 or xs.size < 10:
        raise ValueError("need matching 1-d arrays with at least 10 terms")
    if np.any(b <= 0) or np.any(np.diff(b) < 0):
        raise ValueError("weights must be positive and nondecreasing")
    series = np.cumsum(xs / b)
    n = xs.size
    decade_start = max(n // 10, 1)
    tail_size = float(np.max(np.abs(series[decade_start - 1:] - series[-1])))
    premise = tail_size < 1e-2
    scaled = np.abs(np.cumsum(xs)) / b
    final = float(scaled[-1])
    ago = float(scaled[decade_start - 1])
    if not premise:
        status = "PREMISE_FAILED"
    elif final < 1e-2:
        status = "PASS"
    else:
        status = "FAIL"
    return KroneckerReport(
        status=status,
        tail_size=tail_size,
        premise_cauchy=premise,
        scaled_average_final=final,
        scaled_average_decade_ago=ago,
        n_terms=n,
    )
