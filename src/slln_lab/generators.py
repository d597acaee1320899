"""Samplers for the two ingredient sequences.

The well-behaved part is drawn from an :class:`XFamily`: centered, with a
closed-form tail of |X|, and pairwise independent (the parity family is the
canonical pairwise-but-not-mutually-independent construction).  The heavy
part is built from a :class:`TailEnvelope`: a base variable v is drawn with
survival function exactly equal to the envelope (the tightest admissible
law, which makes every downstream bound sharp and testable), then raised to
the power 1/a for a vanishing exponent a.

All sampling consumes uniforms from :class:`~slln_lab.rng.UniformStream`
objects in a fixed order, so drawing whole blocks in several calls gives
the same values as one call for all of them.  :func:`sample_y` is the one
place a heavy draw is raised to its power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidExponent
from .rng import UniformStream
from .schedules import MomentSchedule


class XKind(Enum):
    IID_UNIFORM = "iid_uniform"
    IID_SHIFTED_EXP = "iid_shifted_exp"
    PARITY_RADEMACHER = "parity_rademacher"
    IID_PARETO_CENTERED = "iid_pareto_centered"


@dataclass(frozen=True)
class XFamily:
    """Descriptor of one built-in family for the well-behaved sequence.

    ``half_width`` applies to IID_UNIFORM, ``rate`` to IID_SHIFTED_EXP,
    ``block_bits`` to PARITY_RADEMACHER, ``shape`` to IID_PARETO_CENTERED.
    A Pareto shape of 1 (or below) is the designed infinite-mean
    counterexample: the draw is left uncentered because no finite mean
    exists to subtract.
    """

    kind: XKind
    half_width: float = 1.0
    rate: float = 1.0
    block_bits: int = 2
    shape: float = 2.0

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if self.kind is XKind.IID_UNIFORM and not 0.0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if self.kind is XKind.IID_SHIFTED_EXP and not 0.0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if self.kind is XKind.PARITY_RADEMACHER and self.block_bits < 1:
            raise ValueError("block_bits must be >= 1")
        if self.kind is XKind.IID_PARETO_CENTERED and not 0.0 < self.shape < math.inf:
            raise ValueError("shape must be positive and finite")

    @classmethod
    def uniform(cls, half_width: float = 1.0) -> "XFamily":
        return cls(XKind.IID_UNIFORM, half_width=half_width)

    @classmethod
    def shifted_exp(cls, rate: float = 1.0) -> "XFamily":
        return cls(XKind.IID_SHIFTED_EXP, rate=rate)

    @classmethod
    def parity(cls, block_bits: int = 2) -> "XFamily":
        return cls(XKind.PARITY_RADEMACHER, block_bits=block_bits)

    @classmethod
    def pareto_centered(cls, shape: float = 2.0) -> "XFamily":
        return cls(XKind.IID_PARETO_CENTERED, shape=shape)

    def to_dict(self) -> dict:
        params: dict = {}
        if self.kind is XKind.IID_UNIFORM:
            params["half_width"] = self.half_width
        elif self.kind is XKind.IID_SHIFTED_EXP:
            params["rate"] = self.rate
        elif self.kind is XKind.PARITY_RADEMACHER:
            params["block_bits"] = self.block_bits
        else:
            params["shape"] = self.shape
        return {"family": self.kind.value, "params": params}

    @classmethod
    def from_dict(cls, data: dict) -> "XFamily":
        kind = XKind(data["family"])
        params = data.get("params", {})
        if kind is XKind.IID_UNIFORM:
            return cls.uniform(float(params.get("half_width", 1.0)))
        if kind is XKind.IID_SHIFTED_EXP:
            return cls.shifted_exp(float(params.get("rate", 1.0)))
        if kind is XKind.PARITY_RADEMACHER:
            return cls.parity(int(params.get("block_bits", 2)))
        return cls.pareto_centered(float(params.get("shape", 2.0)))

    # ---- analytic structure -------------------------------------------------

    @property
    def block_length(self) -> int:
        """Values emitted per parity block (1 for the other kinds)."""
        if self.kind is XKind.PARITY_RADEMACHER:
            return 2 ** self.block_bits - 1
        return 1

    @property
    def pareto_shift(self) -> float:
        """Centering shift for the Pareto family (0 when the mean is infinite)."""
        if self.kind is not XKind.IID_PARETO_CENTERED:
            raise ValueError("pareto_shift only applies to the Pareto family")
        if self.shape > 1.0:
            return self.shape / (self.shape - 1.0)
        return 0.0

    def has_finite_mean(self) -> bool:
        if self.kind is XKind.IID_PARETO_CENTERED:
            return self.shape > 1.0
        return True

    def mean(self) -> float:
        """Analytic mean; NaN for the infinite-mean counterexample."""
        return 0.0 if self.has_finite_mean() else math.nan

    def mean_abs(self) -> float:
        """E|X| in closed form (inf for the counterexample shape)."""
        if self.kind is XKind.IID_UNIFORM:
            return self.half_width / 2.0
        if self.kind is XKind.IID_SHIFTED_EXP:
            return 2.0 / (self.rate * math.e)
        if self.kind is XKind.PARITY_RADEMACHER:
            return 1.0
        if self.shape <= 1.0:
            return math.inf
        m = self.pareto_shift
        return 2.0 * m ** (1.0 - self.shape) / (self.shape - 1.0)

    def sigma(self) -> float | None:
        """Standard deviation, or None when the variance is infinite."""
        if self.kind is XKind.IID_UNIFORM:
            return self.half_width / math.sqrt(3.0)
        if self.kind is XKind.IID_SHIFTED_EXP:
            return 1.0 / self.rate
        if self.kind is XKind.PARITY_RADEMACHER:
            return 1.0
        if self.shape > 2.0:
            b = self.shape
            return math.sqrt(b / ((b - 1.0) ** 2 * (b - 2.0)))
        return None

    def tail(self, x):
        """P(|X| > x) for scalar or array x >= 0, in closed form."""
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("tail is defined for x >= 0")
        if self.kind is XKind.IID_UNIFORM:
            out = np.clip(1.0 - x / self.half_width, 0.0, 1.0)
        elif self.kind is XKind.IID_SHIFTED_EXP:
            m = 1.0 / self.rate
            upper = np.exp(-self.rate * (x + m))
            lower = np.where(x < m, 1.0 - np.exp(-self.rate * np.maximum(m - x, 0.0)), 0.0)
            out = upper + lower
        elif self.kind is XKind.PARITY_RADEMACHER:
            out = np.where(x < 1.0, 1.0, 0.0)
        else:
            b = self.shape
            if b > 1.0:
                m = self.pareto_shift
                upper = np.power(m + x, -b)
                lower = np.where(m - x > 1.0, 1.0 - np.power(np.maximum(m - x, 1.0), -b), 0.0)
                out = upper + lower
            else:
                out = np.where(x < 1.0, 1.0, np.power(np.maximum(x, 1.0), -b))
        return float(out) if scalar else out

    def tail_breakpoints(self) -> list[float]:
        """Kinks of the tail function, for piecewise quadrature."""
        if self.kind is XKind.IID_UNIFORM:
            return [0.0, self.half_width]
        if self.kind is XKind.IID_SHIFTED_EXP:
            return [0.0, 1.0 / self.rate]
        if self.kind is XKind.PARITY_RADEMACHER:
            return [0.0, 1.0]
        if self.shape > 1.0:
            return [0.0, max(self.pareto_shift - 1.0, 0.0)]
        return [0.0, 1.0]

    def tail_integral_remainder(self, cutoff: float) -> float:
        """Closed-form integral of the tail over [cutoff, inf); inf if divergent."""
        if self.kind is XKind.IID_UNIFORM:
            if cutoff >= self.half_width:
                return 0.0
            return (self.half_width - cutoff) ** 2 / (2.0 * self.half_width)
        if self.kind is XKind.IID_SHIFTED_EXP:
            m = 1.0 / self.rate
            # integral of exp(-rate*(x+m)) from cutoff, plus the bounded lower piece
            upper = math.exp(-self.rate * (cutoff + m)) / self.rate
            if cutoff >= m:
                return upper
            lower = (m - cutoff) - (1.0 - math.exp(-self.rate * (m - cutoff))) / self.rate
            return upper + lower
        if self.kind is XKind.PARITY_RADEMACHER:
            return max(0.0, 1.0 - cutoff)
        b = self.shape
        if b <= 1.0:
            return math.inf
        m = self.pareto_shift
        upper = (m + cutoff) ** (1.0 - b) / (b - 1.0)
        if cutoff >= m - 1.0:
            return upper
        raise ValueError("cutoff must sit past the last tail breakpoint")

    # ---- sampling -----------------------------------------------------------

    def sample_block(self, count: int, stream: UniformStream) -> np.ndarray:
        """Next ``count`` draws.

        The parity family consumes ``block_bits`` uniforms per block of
        2**block_bits - 1 emitted values; a trailing partial block is
        truncated (pairwise independence survives truncation).  Other kinds
        consume exactly one uniform per value.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        if self.kind is XKind.PARITY_RADEMACHER:
            return self._sample_parity(count, stream)
        u = stream.uniforms(count)
        if self.kind is XKind.IID_UNIFORM:
            return self.half_width * (2.0 * u - 1.0)
        if self.kind is XKind.IID_SHIFTED_EXP:
            return -np.log1p(-u) / self.rate - 1.0 / self.rate
        w = np.exp(-np.log1p(-u) / self.shape)
        if self.shape > 1.0:
            return w - self.pareto_shift
        return w

    def _sample_parity(self, count: int, stream: UniformStream) -> np.ndarray:
        # sign i of a block is -1 when its i-th uniform is below 1/2; the
        # block's sign bits, folded into an integer code, select its row
        bits = self.block_bits
        n_blocks = -(-count // self.block_length)
        negative = (stream.uniforms(n_blocks * bits) < 0.5).reshape(n_blocks, bits)
        codes = np.zeros(n_blocks, dtype=np.int64)
        for i in range(bits):
            codes |= negative[:, i].astype(np.int64) << i
        if 2 ** bits <= n_blocks:  # the table of every code is no larger than the output
            table = _parity_rows(np.arange(2 ** bits, dtype=np.int64), bits)
            values = np.take(table, codes, axis=0)
        else:
            values = _parity_rows(codes, bits)
        return values.reshape(-1)[:count]


def _parity_rows(codes: np.ndarray, bits: int) -> np.ndarray:
    """Parity block values for each code: entry (b, mask - 1) is the product
    of the signs in ``mask``, 1 - 2*(popcount(code_b & mask) & 1)."""
    ones = codes[:, None] & np.arange(1, 2 ** bits, dtype=np.int64)
    shift = 1
    while shift < bits:  # fold the set bits down: bit 0 ends up holding their parity
        ones ^= ones >> shift
        shift *= 2
    return 1.0 - 2.0 * (ones & 1)


@dataclass
class MeanCheck:
    status: str  # PASS / FAIL / N-A
    sample_mean: float
    band: float | None
    n_samples: int
    detail: str


def centered_mean_check(family: XFamily, n_samples: int, stream: UniformStream) -> MeanCheck:
    """Sample mean against its 3-sigma CLT band around 0.

    Families with infinite mean get status N/A (no band exists); families
    with finite mean but infinite variance fall back to the sample standard
    deviation, flagged in the detail text.
    """
    if n_samples < 10 ** 3:
        raise ValueError("n_samples must be at least 1000")
    if not family.has_finite_mean():
        return MeanCheck("N/A", math.nan, None, n_samples, "infinite-mean family: no centering exists")
    draws = family.sample_block(n_samples, stream)
    mean = float(draws.mean())
    sigma = family.sigma()
    detail = "analytic sigma"
    if sigma is None:
        sigma = float(draws.std())
        detail = "infinite variance: band from sample sigma (indicative only)"
    band = 3.0 * sigma / math.sqrt(n_samples)
    status = "PASS" if abs(mean) <= band else "FAIL"
    return MeanCheck(status, mean, band, n_samples, detail)


class EnvelopeKind(Enum):
    EXP = "exp"
    PARETO = "pareto"


@dataclass(frozen=True)
class TailEnvelope:
    """Nonincreasing integrable survival bound for the transformed heavy part.

    EXP:     survival(t) = exp(-t),            integral 1.
    PARETO:  survival(t) = min(1, t**-gamma),  integral 1 + 1/(gamma-1);
             support of the extremal law starts at t = 1.
    """

    kind: EnvelopeKind
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.kind is EnvelopeKind.PARETO and not 1.0 < self.gamma < math.inf:
            raise ValueError("pareto envelope requires a finite gamma > 1 for a finite integral")

    @classmethod
    def exponential(cls) -> "TailEnvelope":
        return cls(EnvelopeKind.EXP)

    @classmethod
    def pareto(cls, gamma: float) -> "TailEnvelope":
        return cls(EnvelopeKind.PARETO, gamma=gamma)

    def survival(self, t):
        """Envelope value at t >= 0."""
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("survival is defined for t >= 0")
        if self.kind is EnvelopeKind.EXP:
            out = np.exp(-t)
        else:
            out = np.where(t <= 1.0, 1.0, np.power(np.maximum(t, 1.0), -self.gamma))
        return float(out) if scalar else out

    def integral(self) -> float:
        """Total integral of the envelope (finite by construction)."""
        if self.kind is EnvelopeKind.EXP:
            return 1.0
        return 1.0 + 1.0 / (self.gamma - 1.0)

    def tail_integral(self, cutoff: float) -> float:
        """Integral of the envelope over [cutoff, inf), in closed form."""
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.kind is EnvelopeKind.EXP:
            return math.exp(-cutoff)
        if cutoff <= 1.0:
            return (1.0 - cutoff) + 1.0 / (self.gamma - 1.0)
        return cutoff ** (1.0 - self.gamma) / (self.gamma - 1.0)

    def survival_breakpoints(self) -> list[float]:
        if self.kind is EnvelopeKind.EXP:
            return [0.0]
        return [0.0, 1.0]

    def mean_v(self) -> float:
        """Mean of the extremal base variable (= the envelope integral)."""
        return self.integral()

    def median_v(self) -> float:
        if self.kind is EnvelopeKind.EXP:
            return math.log(2.0)
        return 2.0 ** (1.0 / self.gamma)

    def sample_v(self, u):
        """Inverse-CDF draw with survival exactly equal to the envelope."""
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=np.float64)
        if self.kind is EnvelopeKind.EXP:
            out = -np.log1p(-u)
        else:
            out = np.exp(-np.log1p(-u) / self.gamma)
        return float(out) if scalar else out

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.kind is EnvelopeKind.PARETO:
            out["gamma"] = self.gamma
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TailEnvelope":
        kind = EnvelopeKind(data["kind"])
        if kind is EnvelopeKind.PARETO:
            return cls(kind, gamma=float(data["gamma"]))
        return cls(kind)


class DependenceMode(Enum):
    INDEPENDENT = "independent"  # fresh base draw per insert
    COMONOTONE = "comonotone"    # one shared uniform drives every insert of a path


def sample_y(
    envelope: TailEnvelope,
    mode: DependenceMode,
    exponent,
    stream: UniformStream | None = None,
    shared_u: float | None = None,
):
    """Heavy draw(s) y = v ** (1/exponent).

    ``exponent`` may be a scalar or an array; the array length fixes the
    number of draws.  COMONOTONE mode requires ``shared_u`` and reuses it
    for every value, so all draws of a path are a monotone transform of one
    uniform.  INDEPENDENT mode consumes one uniform per value from
    ``stream``.
    """
    exps = np.asarray(exponent, dtype=np.float64)
    if np.any(exps <= 0.0) or np.any(exps > 1.0):
        raise InvalidExponent("exponents must lie in (0, 1]")
    count = exps.size
    if mode is DependenceMode.COMONOTONE:
        if shared_u is None:
            raise ValueError("COMONOTONE mode requires shared_u")
        v = envelope.sample_v(float(shared_u))
        out = np.power(v, 1.0 / exps) if exps.ndim else float(np.power(v, 1.0 / exps))
        return out
    if stream is None:
        raise ValueError("INDEPENDENT mode requires a stream")
    # the uniforms go straight in, so they are freed before the power is taken
    v = envelope.sample_v(stream.uniforms(count if exps.ndim else 1))
    out = np.power(v, 1.0 / exps.reshape(-1))
    return out if exps.ndim else float(out[0])


def infinite_mean_onset(envelope: TailEnvelope, schedule: MomentSchedule, horizon: int = 10 ** 9) -> int | None:
    """First index whose transformed draw has an infinite mean, if any.

    For a Pareto envelope the mean of v ** (1/a) is finite iff gamma * a > 1,
    so the onset is the first n with a_n <= 1/gamma.  Exponential envelopes
    keep all moments finite at every exponent.
    """
    if envelope.kind is EnvelopeKind.EXP:
        return None
    threshold = 1.0 / envelope.gamma
    if schedule.value(1) <= threshold:
        return 1
    if schedule.value(horizon) > threshold:
        return None
    lo, hi = 1, horizon
    while lo < hi:
        mid = (lo + hi) // 2
        if schedule.value(mid) <= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo

