import math

import numpy as np
import pytest
import scipy.stats as stats

from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import _CHUNK


def test_same_key_same_stream():
    key = StreamKey(1, 0, Channel.X)
    a = derive_stream(key).uniforms(100)
    b = derive_stream(key).uniforms(100)
    assert np.array_equal(a, b)


def test_distinct_path_keys_differ():
    a = derive_stream(StreamKey(1, 0, Channel.X)).uniforms(10)
    b = derive_stream(StreamKey(1, 1, Channel.X)).uniforms(10)
    assert not np.array_equal(a, b)


def test_distinct_channels_differ():
    a = derive_stream(StreamKey(1, 0, Channel.X)).uniforms(10)
    b = derive_stream(StreamKey(1, 0, Channel.Y)).uniforms(10)
    c = derive_stream(StreamKey(1, 0, Channel.SHARED)).uniforms(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_draw_order_contract():
    key = StreamKey(99, 3, Channel.Y)
    s = derive_stream(key)
    split = np.concatenate([s.uniforms(37), s.uniforms(63)])
    whole = derive_stream(key).uniforms(100)
    assert np.array_equal(split, whole)


def test_uniforms_into_chunks_equal_one_call():
    # heavy draws take their uniforms into the path buffer a chunk at a time
    key = StreamKey(21, 4, Channel.Y)
    count = 3 * _CHUNK + 5
    whole = derive_stream(key).uniforms(count)
    for step in (_CHUNK, _CHUNK - 1, _CHUNK + 1, 4099):
        s, out = derive_stream(key), np.empty(count)
        for s0 in range(0, count, step):
            chunk = out[s0:s0 + step]
            assert s.uniforms(chunk.size, chunk) is chunk
        assert np.array_equal(out.view(np.uint64), whole.view(np.uint64))
    with pytest.raises(ValueError):
        derive_stream(key).uniforms(3, np.empty(4))


def test_next_matches_uniforms():
    key = StreamKey(5, 2, Channel.SHARED)
    s1 = derive_stream(key)
    singles = [s1.next() for _ in range(8)]
    assert np.array_equal(np.array(singles), derive_stream(key).uniforms(8))
    assert derive_stream(key).next() == singles[0]


def test_values_in_unit_interval():
    u = derive_stream(StreamKey(123, 0, Channel.X)).uniforms(10 ** 4)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_sample_mean_near_half():
    # CLT: 3 * sigma / sqrt(n) with sigma^2 = 1/12 gives +-0.0027; 0.005 is slack
    u = derive_stream(StreamKey(0, 0, Channel.X)).uniforms(10 ** 5)
    assert abs(u.mean() - 0.5) < 0.005


def test_kolmogorov_smirnov_uniform():
    u = derive_stream(StreamKey(2, 0, Channel.X)).uniforms(10 ** 5)
    statistic = stats.kstest(u, "uniform").statistic
    assert statistic < 1.95 / math.sqrt(10 ** 5)  # 99.9% quantile of the KS statistic


def test_chi_square_uniform_bins():
    u = derive_stream(StreamKey(3, 0, Channel.X)).uniforms(10 ** 6)
    counts = np.bincount((u * 100).astype(int), minlength=100)
    pvalue = stats.chisquare(counts).pvalue
    assert pvalue > 1e-6


def test_pairwise_correlation_smoke():
    # distinct keys: |empirical corr| < 0.01 over 1e5 draws
    base = derive_stream(StreamKey(11, 0, Channel.X)).uniforms(10 ** 5)
    for key in [StreamKey(11, 1, Channel.X), StreamKey(11, 0, Channel.Y), StreamKey(12, 0, Channel.X)]:
        other = derive_stream(key).uniforms(10 ** 5)
        corr = np.corrcoef(base, other)[0, 1]
        assert abs(corr) < 0.01


def test_key_validation():
    with pytest.raises(ValueError):
        StreamKey(-1, 0, Channel.X)
    with pytest.raises(ValueError):
        StreamKey(2 ** 64, 0, Channel.X)
    with pytest.raises(ValueError):
        StreamKey(0, -1, Channel.X)
    with pytest.raises(ValueError):
        derive_stream(StreamKey(0, 0, Channel.X)).uniforms(-1)


def test_53_bit_fold():
    # every draw is k * 2**-53 for an integer k < 2**53
    u = derive_stream(StreamKey(8, 0, Channel.X)).uniforms(1000)
    scaled = u * 2.0 ** 53
    assert np.array_equal(scaled, np.floor(scaled))


def test_below_half_matches_uniforms():
    key = StreamKey(4, 1, Channel.X)
    assert np.array_equal(derive_stream(key).below_half(10 ** 6), derive_stream(key).uniforms(10 ** 6) < 0.5)


class _Words:
    """A bit generator that hands out fixed words, in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, count):
        taken, self.words = self.words[:count], self.words[count:]
        return taken.copy()


def test_below_half_rule_on_edge_words():
    # 2**63 is the least word that converts to 1/2; the 2048 words below it convert to 0.5 - 2**-53
    words = [2 ** 63 - 1, 2 ** 63, 2 ** 63 - 2048, 2 ** 63 - 2049, 0, 2 ** 64 - 1]
    by_words, by_doubles = derive_stream(StreamKey(0, 0, Channel.X)), derive_stream(StreamKey(0, 0, Channel.X))
    by_words._bits, by_doubles._bits = _Words(words), _Words(words)
    below = by_words.below_half(len(words))
    assert np.array_equal(below, by_doubles.uniforms(len(words)) < 0.5)
    assert below.tolist() == [True, False, True, True, True, False]


def test_below_half_keeps_draw_order():
    key = StreamKey(6, 0, Channel.X)
    s = derive_stream(key)
    s.below_half(37)
    assert np.array_equal(s.uniforms(63), derive_stream(key).uniforms(100)[37:])
