"""Samplers for the two ingredient sequences.

The well-behaved part is drawn from an :class:`XFamily`: centered, with
E|X| in closed form, and pairwise independent (the parity family is the
canonical pairwise-but-not-mutually-independent construction).  The heavy
part is built from a :class:`TailEnvelope`: a base variable v is drawn with
survival function exactly equal to the envelope (the tightest admissible
law, which makes every downstream bound sharp and testable), then raised to
the power 1/a for a vanishing exponent a.

All sampling consumes uniforms from :class:`~slln_lab.rng.UniformStream`
objects in a fixed order, so drawing whole blocks in several calls gives
the same values as one call for all of them.  :func:`draw_heavy` is the one
place a heavy draw is raised to its power.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidExponent, as_float, as_int, keyed
from .rng import UniformStream
from .schedules import MomentSchedule

_CHUNK = 2 ** 16  # values per step of a pass that is cut into chunks


class XKind(Enum):
    IID_UNIFORM = "iid_uniform"
    IID_SHIFTED_EXP = "iid_shifted_exp"
    PARITY_RADEMACHER = "parity_rademacher"
    IID_PARETO_CENTERED = "iid_pareto_centered"


_PARAM = {  # the one parameter of each kind, named as in XFamily and in its JSON
    XKind.IID_UNIFORM: "half_width",
    XKind.IID_SHIFTED_EXP: "rate",
    XKind.PARITY_RADEMACHER: "block_bits",
    XKind.IID_PARETO_CENTERED: "shape",
}


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
        name = _PARAM[self.kind]
        return {"family": self.kind.value, "params": {name: getattr(self, name)}}

    @classmethod
    def from_dict(cls, data: dict) -> "XFamily":
        kind = keyed("family", XKind, data["family"])
        name, params = _PARAM[kind], data.get("params", {})
        if name not in params:
            return cls(kind)
        convert = as_int if kind is XKind.PARITY_RADEMACHER else as_float
        return keyed(f"params.{name}", lambda v: cls(kind, **{name: convert(v)}), params[name])

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

    def mean_abs(self) -> float:
        """E|X| in closed form; inf for a Pareto shape of 1 or below."""
        if self.kind is XKind.IID_UNIFORM:
            return self.half_width / 2.0
        if self.kind is XKind.IID_SHIFTED_EXP:
            return 2.0 / (math.e * self.rate)
        if self.kind is XKind.PARITY_RADEMACHER:
            return 1.0
        b = self.shape
        if b <= 1.0:
            return math.inf
        # E|W - m| = 2 E(W - m)+ with m = E W, and E(W - m)+ = m**(1-b) / (b-1)
        return 2.0 * self.pareto_shift ** (1.0 - b) / (b - 1.0)

    # ---- sampling -----------------------------------------------------------

    def sample_block(self, count: int, stream: UniformStream, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``count`` draws, written into ``out`` and returned.

        ``out`` is a contiguous float64 array of ``count`` values; None
        allocates one.  The parity family consumes ``block_bits`` uniforms
        per block of 2**block_bits - 1 emitted values; a trailing partial
        block is truncated (pairwise independence survives truncation).
        Other kinds consume exactly one uniform per value.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if out is None:
            out = np.empty(count, dtype=np.float64)
        elif out.shape != (count,) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a contiguous float64 array of count values")
        if count == 0:
            return out
        if self.kind is XKind.PARITY_RADEMACHER:
            return self._sample_parity(count, stream, out)
        u = stream.uniforms(count)
        if self.kind is XKind.IID_UNIFORM:  # half_width * (2u - 1)
            u *= 2.0
            u -= 1.0
            return np.multiply(self.half_width, u, out=out)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)  # -log1p(-u), a standard exponential draw
        if self.kind is XKind.IID_SHIFTED_EXP:
            u /= self.rate
            return np.subtract(u, 1.0 / self.rate, out=out)
        u /= self.shape
        if self.shape > 1.0:
            np.exp(u, out=u)
            return np.subtract(u, self.pareto_shift, out=out)
        return np.exp(u, out=out)

    def _sample_parity(self, count: int, stream: UniformStream, out: np.ndarray) -> np.ndarray:
        # sign i of a block is -1 when its i-th uniform is below 1/2; the
        # block's sign bits, folded into an integer code, select its row
        bits, length = self.block_bits, self.block_length
        n_blocks = -(-count // length)
        negative = stream.below_half(n_blocks * bits).reshape(n_blocks, bits)
        codes = np.zeros(n_blocks, dtype=np.int64)
        for i in range(bits):
            codes |= negative[:, i].astype(np.int64) << i
        if 2 ** bits > n_blocks:  # fewer blocks than codes: build their rows directly
            out[:] = _parity_rows(codes, bits).reshape(-1)[:count]
            return out
        table = _parity_rows(np.arange(2 ** bits, dtype=np.int64), bits)
        full = count // length
        # mode="clip" writes straight into out (codes are in range); "raise" would buffer it
        np.take(table, codes[:full], axis=0, out=out[:full * length].reshape(full, length), mode="clip")
        if full < n_blocks:
            out[full * length:] = table[codes[full], :count - full * length]
        return out


def _parity_rows(codes: np.ndarray, bits: int) -> np.ndarray:
    """Parity block values for each code: entry (b, mask - 1) is the product
    of the signs in ``mask``, 1 - 2*(popcount(code_b & mask) & 1)."""
    ones = codes[:, None] & np.arange(1, 2 ** bits, dtype=np.int64)
    shift = 1
    while shift < bits:  # fold the set bits down: bit 0 ends up holding their parity
        ones ^= ones >> shift
        shift *= 2
    return 1.0 - 2.0 * (ones & 1)


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

    def survival(self, t, out: np.ndarray | None = None):
        """Envelope value at t >= 0.

        ``out`` (which may be ``t`` itself) receives the values of an array
        ``t``; None allocates it.  A scalar ``t`` gives a float.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=np.float64)
        if not np.all(t >= 0):  # NaN fails too
            raise ValueError("survival is defined for t >= 0")
        value = np.empty_like(t) if out is None else out
        if self.kind is EnvelopeKind.EXP:
            np.exp(np.negative(t, out=value), out=value)
        else:
            np.power(np.maximum(t, 1.0, out=value), -self.gamma, out=value)  # 1.0 wherever t <= 1
        return float(value) if scalar else value

    def integral(self) -> float:
        """Total integral of the envelope (finite by construction)."""
        if self.kind is EnvelopeKind.EXP:
            return 1.0
        return 1.0 + 1.0 / (self.gamma - 1.0)

    def tail_integral(self, cutoff: float) -> float:
        """Integral of the envelope over [cutoff, inf), in closed form."""
        if not np.all(cutoff >= 0):  # NaN fails too
            raise ValueError("cutoff must be >= 0")
        if self.kind is EnvelopeKind.EXP:
            return math.exp(-cutoff)
        if cutoff <= 1.0:
            return (1.0 - cutoff) + 1.0 / (self.gamma - 1.0)
        return cutoff ** (1.0 - self.gamma) / (self.gamma - 1.0)

    def sample_v(self, u, out: np.ndarray | None = None):
        """Inverse-CDF draw with survival exactly equal to the envelope.

        ``out`` (which may be ``u`` itself) receives the draws; None
        allocates it.
        """
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=np.float64)
        v = np.negative(u, out=np.empty_like(u) if out is None else out)
        np.log1p(v, out=v)
        np.negative(v, out=v)  # -log1p(-u), a standard exponential draw
        if self.kind is EnvelopeKind.PARETO:
            v /= self.gamma
            np.exp(v, out=v)
        return float(v) if scalar else v

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.kind is EnvelopeKind.PARETO:
            out["gamma"] = self.gamma
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TailEnvelope":
        kind = keyed("kind", EnvelopeKind, data["kind"])
        if kind is EnvelopeKind.PARETO:
            return keyed("gamma", lambda gamma: cls(kind, gamma=as_float(gamma)), data["gamma"])
        return cls(kind)


class DependenceMode(Enum):
    INDEPENDENT = "independent"  # fresh base draw per insert
    COMONOTONE = "comonotone"    # one shared uniform drives every insert of a path


def reciprocal_exponents(exponent) -> np.ndarray:
    """1/a for each exponent a (scalar or array), after checking that every
    a lies in (0, 1]."""
    exps = np.asarray(exponent, dtype=np.float64)
    if np.any(exps <= 0.0) or np.any(exps > 1.0):
        raise InvalidExponent("exponents must lie in (0, 1]")
    return 1.0 / exps


def draw_heavy(
    envelope: TailEnvelope,
    mode: DependenceMode,
    inv_exponents: np.ndarray,
    out: np.ndarray,
    stream: UniformStream | None = None,
    shared_u: float | None = None,
) -> np.ndarray:
    """Heavy draws y = v ** (1/a), written into ``out`` and returned.

    ``inv_exponents`` holds 1/a for each draw, as :func:`reciprocal_exponents`
    returns it, and ``out`` is a float64 array of as many values.
    COMONOTONE mode requires ``shared_u`` and takes v from it for every
    draw, so all draws of a path are a monotone transform of one uniform.
    INDEPENDENT mode consumes one uniform per draw from ``stream``; a chunk
    at a time, the uniforms are drawn into ``out`` and turned into v and
    then y in place.
    """
    if out.shape != inv_exponents.shape:
        raise ValueError("out must hold one value per exponent")
    if mode is DependenceMode.COMONOTONE:
        if shared_u is None:
            raise ValueError("COMONOTONE mode requires shared_u")
        return np.power(envelope.sample_v(float(shared_u)), inv_exponents, out=out)
    if stream is None:
        raise ValueError("INDEPENDENT mode requires a stream")
    for s0 in range(0, out.size, _CHUNK):
        chunk = out[s0:s0 + _CHUNK]
        envelope.sample_v(stream.uniforms(chunk.size, chunk), out=chunk)
        np.power(chunk, inv_exponents[s0:s0 + _CHUNK], out=chunk)
    return out


def infinite_mean_onset(envelope: TailEnvelope, schedule: MomentSchedule) -> int | None:
    """First index up to 10**9 whose transformed draw has an infinite mean, if any.

    For a Pareto envelope the mean of v ** (1/a) is finite iff gamma * a > 1,
    so the onset is the first n with a_n <= 1/gamma.  Exponential envelopes
    keep all moments finite at every exponent.
    """
    if envelope.kind is EnvelopeKind.EXP:
        return None
    threshold = 1.0 / envelope.gamma
    if schedule.value(1) <= threshold:
        return 1
    if schedule.value(10 ** 9) > threshold:
        return None
    return 1 + bisect_left(range(1, 10 ** 9), True, key=lambda n: schedule.value(n) <= threshold)
