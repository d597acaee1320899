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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidExponent, as_float, as_int, as_object, keyed, known_keys, required
from .rng import UniformStream
from .schedules import _CHUNK, MomentSchedule, least_index


_TABLE_BITS = 8  # parity tables of up to 2**8 codes x 255 values are kept, one per block_bits


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
        known_keys(data, ("family", "params"))
        kind = keyed("family", XKind, required(data, "family"))
        name = _PARAM[kind]
        params = keyed("params", lambda p: known_keys(as_object(p), (name,)), data.get("params", {}))
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

    @property
    def sums_by_table(self) -> bool:
        """Whether its draws are summed a block at a time from a table: the
        parity family with ``block_bits <= _TABLE_BITS``, whose sign codes
        :meth:`sample_block` gives with ``codes=True``."""
        return self.kind is XKind.PARITY_RADEMACHER and self.block_bits <= _TABLE_BITS

    def sample_block(self, count: int, stream: UniformStream, out: np.ndarray | None = None, *,
                     codes: bool = False) -> np.ndarray:
        """Next ``count`` draws, written into ``out`` and returned.

        ``out`` is a contiguous float64 array of ``count`` values; None
        allocates one.  The parity family consumes ``block_bits`` uniforms
        per block of 2**block_bits - 1 emitted values; a trailing partial
        block is truncated (pairwise independence survives truncation).
        Other kinds consume exactly one uniform per value.

        With ``codes``, a family :attr:`sums_by_table` gives the sign codes
        of the ``count / block_length`` blocks instead, row c of
        :func:`_parity_table` being the values of code c, from the same
        uniforms; ``out``, if given, is a contiguous uint8 array of as many.
        Any other family, or a ``count`` that is not a whole number of
        blocks, raises ``ValueError`` before taking a uniform.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if codes and not self.sums_by_table:
            raise ValueError("sign codes need a parity family with a table")
        if codes and count % self.block_length:
            raise ValueError(f"sign codes take whole blocks: count must be a multiple of {self.block_length}")
        size, dtype = (count // self.block_length, np.uint8) if codes else (count, np.float64)
        if out is None:
            out = np.empty(size, dtype=dtype)
        elif out.shape != (size,) or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous {np.dtype(dtype).name} array of {size} values")
        if count == 0:
            return out
        if self.kind is XKind.PARITY_RADEMACHER:
            return self._sample_parity(count, stream, out, codes)
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

    def _sample_parity(self, count: int, stream: UniformStream, out: np.ndarray, codes: bool) -> np.ndarray:
        # sign i of a block is -1 when its i-th uniform is below 1/2; the
        # block's sign bits, folded into an integer code, select its values
        bits, length = self.block_bits, self.block_length
        n_blocks = -(-count // length)
        negative = stream.below_half(n_blocks * bits).reshape(n_blocks, bits)
        # bit i of a code is sign i; codes that fit in a byte are built on the bools' own bytes
        signs = negative.view(np.uint8) if bits <= _TABLE_BITS else negative.astype(np.int64)
        code = out if codes else np.empty(n_blocks, dtype=signs.dtype)
        np.copyto(code, signs[:, 0])
        for i in range(1, bits):
            code |= signs[:, i] << i
        if codes:
            return out
        full = count // length
        rows = out[:full * length].reshape(full, length)
        if bits <= _TABLE_BITS:
            # mode="clip" writes straight into out (codes are in range); "raise" would buffer it
            _parity_table(bits).take(code[:full], axis=0, out=rows, mode="clip")
        else:
            step = max(_CHUNK // length, 1)
            for b0 in range(0, full, step):
                ones = code[b0:min(b0 + step, full), None] & np.arange(1, length + 1, dtype=np.int64)
                _parity_signs(ones, bits, rows[b0:b0 + step])
        if full < n_blocks:
            _block_values(int(code[full]), 1, bits, out[full * length:])
        return out


@lru_cache(maxsize=_TABLE_BITS)
def _parity_table(bits: int) -> np.ndarray:
    """The values of the parity block of every code of ``bits`` sign bits,
    row c for code c: entry (c, mask - 1) is the product of the signs in
    ``mask``.  Read-only, as every caller shares it."""
    ones = np.arange(2 ** bits, dtype=np.int64)[:, None] & np.arange(1, 2 ** bits, dtype=np.int64)
    table = _parity_signs(ones, bits, np.empty(ones.shape))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=_TABLE_BITS)
def _parity_prefix_table(bits: int) -> np.ndarray:
    """Row c holds the running sums of row c of :func:`_parity_table` from
    0: entry (c, i) is the sum of its first i values, an exact small
    integer, and entry (c, 2**bits - 1) the block's total, which is
    2**bits - 1 for code 0 and -1 for any other.  Read-only, as every caller
    shares it."""
    table = np.zeros((2 ** bits, 2 ** bits))
    np.cumsum(_parity_table(bits), axis=1, out=table[:, 1:])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=_TABLE_BITS)
def _parity_extremes(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per code, the least and greatest running sum of its block, and the
    greatest magnitude of one: the min, max and max |.| over the columns
    1 .. 2**bits - 1 of :func:`_parity_prefix_table`.  Read-only."""
    sums = _parity_prefix_table(bits)[:, 1:]
    extremes = sums.min(axis=1), sums.max(axis=1), np.abs(sums).max(axis=1)
    for table in extremes:
        table.flags.writeable = False
    return extremes


def _block_values(code: int, first: int, bits: int, out: np.ndarray) -> None:
    """Values first .. first + out.size - 1 of the parity block with sign
    code ``code``, written into ``out``: value j is the parity of code & j."""
    if bits <= _TABLE_BITS:
        out[:] = _parity_table(bits)[code, first - 1:first - 1 + out.size]
    else:
        ones = np.arange(first, first + out.size, dtype=np.int64)
        ones &= code
        _parity_signs(ones, bits, out)


def _parity_signs(ones: np.ndarray, bits: int, out: np.ndarray) -> np.ndarray:
    """1 - 2*(popcount(o) & 1) for each o of ``ones`` (below 2**bits), written
    into ``out`` and returned; ``ones`` is overwritten."""
    shift = 1
    while shift < bits:  # fold the set bits down: bit 0 ends up holding their parity
        ones ^= ones >> shift
        shift *= 2
    ones &= 1
    np.multiply(ones, -2.0, out=out)
    out += 1.0
    return out


class XSampler:
    """The X draws of one stream, written a slice at a time.

    Successive :meth:`fill` calls give the values one
    :meth:`XFamily.sample_block` call for all of them gives, from the same
    uniforms in the same order; a :meth:`blocks` call in between takes the
    place of the :meth:`fill` of as many values.  A parity block that a
    slice cuts stays open: what is kept is its sign code and how many of its
    values are written, never the values, so the state is two integers
    however long the block (up to 2**23 - 1 values).
    """

    def __init__(self, family: XFamily, stream: UniformStream) -> None:
        self.family = family
        self.stream = stream
        self.code = 0    # sign code of the open parity block
        self.offset = 0  # its values already written; 0 when no block is open

    def fill(self, out: np.ndarray) -> np.ndarray:
        """The next ``out.size`` draws, written into ``out`` (contiguous
        float64) and returned."""
        family, count = self.family, out.size
        if family.kind is not XKind.PARITY_RADEMACHER:
            return family.sample_block(count, self.stream, out=out)
        head, full, tail = self._split(count)
        if head:
            _block_values(self.code, self.offset + 1, family.block_bits, out[:head])
        family.sample_block(full * family.block_length, self.stream, out=out[head:count - tail])
        if tail:
            _block_values(self._open(), 1, family.block_bits, out[count - tail:])
        self.offset = tail or (self.offset + head) % family.block_length
        return out

    def blocks(self, count: int) -> tuple[np.ndarray, int]:
        """The sign codes (uint8) of the parity blocks the next ``count``
        draws fall in, and the column of the first draw in the first: the
        uniforms :meth:`fill` would take, and the state it would leave.  A
        family that is not :attr:`XFamily.sums_by_table` raises
        ``ValueError``, as :meth:`XFamily.sample_block` does, and is left as
        it was."""
        family = self.family
        head, full, tail = self._split(count)
        whole = slice(bool(head), bool(head) + full)
        codes = np.empty(whole.stop + bool(tail), dtype=np.uint8)
        family.sample_block(full * family.block_length, self.stream, out=codes[whole], codes=True)
        first = self.offset if head else 0
        if head:
            codes[0] = self.code
        if tail:
            codes[-1] = self._open()
        self.offset = tail or (self.offset + head) % family.block_length
        return codes, first

    def _split(self, count: int) -> tuple[int, int, int]:
        """The next ``count`` draws as the rest of the open block, whole
        blocks and the head of a new one: how many of each."""
        length = self.family.block_length
        head = min(count, (length - self.offset) % length)
        full, tail = divmod(count - head, length)
        return head, full, tail

    def _open(self) -> int:
        """Open a new block, its sign bits drawn after those of the blocks
        before it, and return its code."""
        negative = self.stream.below_half(self.family.block_bits).tolist()
        self.code = sum(1 << i for i in range(self.family.block_bits) if negative[i])
        return self.code


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
        if not nonnegative(t):
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
        if not nonnegative(cutoff):
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
        kind = keyed("kind", EnvelopeKind, required(data, "kind"))
        known_keys(data, ("kind", "gamma") if kind is EnvelopeKind.PARETO else ("kind",))
        if kind is EnvelopeKind.PARETO:
            return keyed("gamma", lambda gamma: cls(kind, gamma=as_float(gamma)), required(data, "gamma"))
        return cls(kind)


class DependenceMode(Enum):
    INDEPENDENT = "independent"  # fresh base draw per insert
    COMONOTONE = "comonotone"    # one shared uniform drives every insert of a path


def nonnegative(x) -> bool:
    """Whether a number, or every entry of an array, is >= 0; NaN is not.

    For numbers and arrays, the same answer as np.all(x >= 0), without the
    4-5 us that costs on a float.
    """
    if isinstance(x, (int, float)):
        return x >= 0
    return np.asarray(x).min(initial=math.inf) >= 0


def reciprocal_exponents(exponent) -> np.ndarray:
    """1/a for each exponent a (scalar or array), after checking that every
    a lies in (0, 1]."""
    exps = np.asarray(exponent, dtype=np.float64)
    if not (np.all(exps > 0.0) and np.all(exps <= 1.0)):  # NaN fails too
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
    so the onset is the first n with a_n <= 1/gamma, which holds from there
    on, as a_n never rises.  Exponential envelopes
    keep all moments finite at every exponent.
    """
    if envelope.kind is EnvelopeKind.EXP:
        return None
    threshold = 1.0 / envelope.gamma
    return least_index(lambda n: schedule.value(n) <= threshold, 1, 10 ** 9)
