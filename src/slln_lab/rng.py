"""Deterministic, splittable uniform streams.

Every stochastic object in the package draws from a :class:`UniformStream`
derived from a :class:`StreamKey`.  Streams are counter-based (Philox), and
per-stream keys come from hashing ``(master_seed, path_index, channel)``
rather than from sequential jumping, so an ensemble produces bit-identical
results regardless of execution order or worker count.

Raw 64-bit outputs are folded to 53-bit-mantissa doubles in [0, 1) with the
fixed rule ``(word >> 11) * 2**-53``, which reproduces exactly across
platforms.  That double is below 1/2 exactly when the word is below 2**63,
so a sign needs no conversion at all (:meth:`UniformStream.below_half`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.random import Philox

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53_SCALE = 2.0 ** -53
_SHIFT11 = np.uint64(11)
_HALF_WORD = np.uint64(2 ** 63)  # the least word whose double is 1/2


def _splitmix64(value: int) -> int:
    """One SplitMix64 avalanche step (64-bit wrapping)."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Channel(Enum):
    """Logical sub-stream of one simulated path."""

    X = 0
    Y = 1
    SHARED = 2


@dataclass(frozen=True)
class StreamKey:
    """Identity of one uniform stream; equal keys give identical streams."""

    master_seed: int
    path_index: int
    channel: Channel

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.path_index < 0:
            raise ValueError("path_index must be nonnegative")

    def philox_words(self) -> tuple[int, int]:
        """Two 64-bit key words for the Philox counter generator."""
        h = _splitmix64(self.master_seed)
        h = _splitmix64(h ^ _splitmix64(self.path_index))
        h = _splitmix64(h ^ _splitmix64(self.channel.value))
        return _splitmix64(h), _splitmix64(h ^ _GOLDEN)


class UniformStream:
    """Stateful stream of doubles in [0, 1); single-owner, not thread-safe.

    Draw order is part of the contract: ``uniforms(a)`` followed by
    ``uniforms(b)`` yields the same values as one ``uniforms(a + b)`` call.
    """

    def __init__(self, key: StreamKey) -> None:
        self.key = key
        lo, hi = key.philox_words()
        self._bits = Philox(key=(lo | (hi << 64)))

    def uniforms(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``count`` uniforms, written into ``out`` and returned.

        ``out`` is a float64 array of ``count`` values; None allocates one.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if out is None:
            out = np.empty(count, dtype=np.float64)
        elif out.shape != (count,) or out.dtype != np.float64:
            raise ValueError("out must be a float64 array of count values")
        if count == 0:
            return out
        raw = self._bits.random_raw(count)
        raw >>= _SHIFT11
        return np.multiply(raw, _U53_SCALE, out=out)  # exact: raw < 2**53

    def below_half(self, count: int) -> np.ndarray:
        """``uniforms(count) < 0.5``, read off the raw words; it consumes
        the same ``count`` words, so draw order is kept."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._bits.random_raw(count) < _HALF_WORD

    def next(self) -> float:
        """Next single uniform."""
        return float(self.uniforms(1)[0])


def derive_stream(key: StreamKey) -> UniformStream:
    """Pure derivation: the stream is a function of the key alone."""
    return UniformStream(key)

