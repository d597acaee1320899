import itertools
import math

import numpy as np
import pytest

from slln_lab.errors import InvalidExponent
from slln_lab.generators import (
    DependenceMode,
    TailEnvelope,
    XFamily,
    centered_mean_check,
    infinite_mean_onset,
    sample_y,
)
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import MomentSchedule, ScheduleForm


def _stream(seed=0, path=0, channel=Channel.X):
    return derive_stream(StreamKey(seed, path, channel))


# --- parity construction ------------------------------------------------------

def test_parity_block_identity():
    fam = XFamily.parity(2)
    block = fam.sample_block(3, _stream(7))
    s1, s2, s12 = block
    assert s1 in (-1.0, 1.0) and s2 in (-1.0, 1.0)
    assert s12 == s1 * s2
    assert s1 * s2 * s12 == 1.0


def test_parity_pairwise_joints():
    fam = XFamily.parity(2)
    n_blocks = 10 ** 5
    blocks = fam.sample_block(3 * n_blocks, _stream(11)).reshape(n_blocks, 3)
    bound = 4.0 * math.sqrt(0.25 * 0.75 / n_blocks)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    cell = np.mean((blocks[:, i] == si) & (blocks[:, j] == sj))
                    assert abs(cell - 0.25) < bound


def test_parity_not_mutually_independent():
    fam = XFamily.parity(2)
    blocks = fam.sample_block(3 * 10 ** 5, _stream(13)).reshape(-1, 3)
    impossible = np.sum((blocks[:, 0] == 1) & (blocks[:, 1] == 1) & (blocks[:, 2] == -1))
    assert impossible == 0


def test_parity_block_truncation():
    fam = XFamily.parity(2)
    # 7 values = 2 full blocks + 1; the partial block consumes a full bit draw
    key = StreamKey(3, 0, Channel.X)
    partial = fam.sample_block(7, derive_stream(key))
    full = fam.sample_block(9, derive_stream(key))
    assert np.array_equal(partial, full[:7])
    stream = derive_stream(key)  # one block per call continues the same draws
    assert np.array_equal(np.concatenate([fam.sample_block(3, stream) for _ in range(3)]), full)


def test_parity_matches_sign_products():
    # each value rebuilt from its definition: the product, over the bits set
    # in its mask, of the block's signs, where a uniform below 1/2 is -1
    branches = set()
    for bits in range(1, 7):
        length = 2 ** bits - 1
        for count in (1, length + 1, 2 ** bits * length + 3):
            n_blocks = -(-count // length)
            branches.add(2 ** bits <= n_blocks)  # the lookup table covers all codes
            key = StreamKey(21, bits, Channel.X)
            values = XFamily.parity(bits).sample_block(count, derive_stream(key))
            u = derive_stream(key).uniforms(n_blocks * bits).tolist()
            expected = []
            for b in range(n_blocks):
                signs = [-1.0 if x < 0.5 else 1.0 for x in u[b * bits:(b + 1) * bits]]
                for mask in range(1, length + 1):
                    expected.append(math.prod(s for i, s in enumerate(signs) if mask >> i & 1))
            assert np.array_equal(values, expected[:count]), (bits, count)
    assert branches == {True, False}


def test_parity_pairwise_across_blocks():
    fam = XFamily.parity(2)
    values = fam.sample_block(3 * 10 ** 4, _stream(17))
    # adjacent values across a block boundary
    a, b = values[2::3][:-1], values[3::3]
    cell = np.mean((a == 1) & (b == 1))
    assert abs(cell - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / a.size)


# --- centered families ---------------------------------------------------------

@pytest.mark.parametrize("fam, formula", [
    (XFamily.uniform(1.5), lambda u: 1.5 * (2.0 * u - 1.0)),
    (XFamily.shifted_exp(2.0), lambda u: -np.log1p(-u) / 2.0 - 1.0 / 2.0),
    (XFamily.pareto_centered(2.5), lambda u: np.exp(-np.log1p(-u) / 2.5) - 2.5 / 1.5),
    (XFamily.pareto_centered(0.8), lambda u: np.exp(-np.log1p(-u) / 0.8)),
], ids=["uniform", "shifted_exp", "pareto", "pareto_infinite_mean"])
def test_sample_block_fills_out_by_its_formula(fam, formula):
    key = StreamKey(19, 0, Channel.X)
    out = np.empty(1000)
    assert fam.sample_block(1000, derive_stream(key), out=out) is out
    assert np.array_equal(out, formula(derive_stream(key).uniforms(1000)))
    with pytest.raises(ValueError, match="out"):
        fam.sample_block(10, derive_stream(key), out=np.empty(11))


def test_uniform_mean_bound():
    # 3 sigma / sqrt(n) with sigma = 1/sqrt(3)
    draws = XFamily.uniform(1.0).sample_block(10 ** 6, _stream(1))
    assert abs(draws.mean()) < 3.0 * (1.0 / math.sqrt(3.0)) / 10 ** 3
    assert np.all(np.abs(draws) <= 1.0)


def test_shifted_exp_mean_check():
    res = centered_mean_check(XFamily.shifted_exp(1.0), 10 ** 6, _stream(2))
    assert res.status == "PASS"
    assert res.band == pytest.approx(0.003, abs=1e-12)


def test_parity_mean_check():
    res = centered_mean_check(XFamily.parity(2), 10 ** 5, _stream(4))
    assert res.status == "PASS"


def test_infinite_mean_family_flagged():
    res = centered_mean_check(XFamily.pareto_centered(1.0), 10 ** 4, _stream(5))
    assert res.status == "N/A"
    assert "infinite-mean" in res.detail


# --- closed-form tails ----------------------------------------------------------

def test_tail_frozen_values():
    assert XFamily.uniform(1.0).tail(0.25) == 0.75
    assert XFamily.parity(4).tail(0.5) == 1.0
    assert XFamily.parity(4).tail(1.5) == 0.0
    assert XFamily.uniform(1.0).tail(0.0) == 1.0


def test_tail_is_monotone_from_one():
    for fam in (XFamily.uniform(2.0), XFamily.shifted_exp(0.5), XFamily.pareto_centered(2.0),
                XFamily.pareto_centered(1.0)):
        x = np.linspace(0.0, 20.0, 500)
        t = fam.tail(x)
        assert t[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(t) <= 1e-15)
        assert np.all((t >= 0) & (t <= 1))


def _empirical_tail_matches(fam, seed, grid):
    n = 10 ** 6
    draws = np.abs(fam.sample_block(n, _stream(seed)))
    for x in grid:
        p = fam.tail(x)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(np.mean(draws > x) - p) <= 3.0 * se + 1e-9


def test_tail_consistency_uniform():
    _empirical_tail_matches(XFamily.uniform(1.0), 21, np.linspace(0.05, 0.95, 10))


def test_tail_consistency_shifted_exp():
    _empirical_tail_matches(XFamily.shifted_exp(1.0), 22, np.linspace(0.1, 4.0, 10))


def test_tail_consistency_pareto():
    # includes the spec point x = 5 where the tail is Theta(x^-2)
    _empirical_tail_matches(XFamily.pareto_centered(2.0), 23, np.array([0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]))


def test_pareto_centered_has_mean_zero():
    draws = XFamily.pareto_centered(3.0).sample_block(10 ** 6, _stream(24))
    sigma = XFamily.pareto_centered(3.0).sigma()
    assert abs(draws.mean()) < 4.0 * sigma / 10 ** 3


# --- envelopes and heavy draws ---------------------------------------------------

def test_envelope_survival_and_integral():
    env = TailEnvelope.pareto(2.0)
    assert env.survival(0.5) == 1.0
    assert env.survival(2.0) == 0.25
    assert env.integral() == 2.0
    assert TailEnvelope.exponential().integral() == 1.0
    assert TailEnvelope.pareto(1.5).integral() == pytest.approx(3.0)


def test_envelope_requires_integrable_tail():
    with pytest.raises(ValueError):
        TailEnvelope.pareto(1.0)


def test_sample_y_deterministic_transform():
    # v = 2 at u = 0.75 for the quadratic envelope; exponent 1/2 squares it
    y = sample_y(TailEnvelope.pareto(2.0), DependenceMode.COMONOTONE, 0.5, shared_u=0.75)
    assert y == 4.0


def test_sample_y_exp_envelope_shared_half():
    y = sample_y(TailEnvelope.exponential(), DependenceMode.COMONOTONE, 1.0, shared_u=0.5)
    assert y == pytest.approx(math.log(2.0), rel=1e-12)  # 0.6931...


def test_sample_y_rejects_bad_exponent():
    env = TailEnvelope.pareto(2.0)
    for a in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidExponent):
            sample_y(env, DependenceMode.COMONOTONE, a, shared_u=0.5)


def test_sample_y_comonotone_is_monotone_transform():
    env = TailEnvelope.pareto(2.0)
    exps = np.full(16, 0.5)
    y_lo = sample_y(env, DependenceMode.COMONOTONE, exps, shared_u=0.3)
    y_hi = sample_y(env, DependenceMode.COMONOTONE, exps, shared_u=0.8)
    assert np.all(np.diff(y_lo) == 0)  # one uniform drives every value
    assert np.all(y_hi > y_lo)


def test_heavy_tail_exponent():
    # P(y > t) = t^(-gamma * a) for the transformed draw
    env = TailEnvelope.pareto(2.0)
    a = 0.5
    stream = _stream(31, channel=Channel.Y)
    y = sample_y(env, DependenceMode.INDEPENDENT, np.full(10 ** 6, a), stream=stream)
    for t in (2.0, 5.0, 20.0):
        p = t ** (-env.gamma * a)
        se = math.sqrt(p * (1 - p) / y.size)
        assert abs(np.mean(y > t) - p) <= 3.0 * se


def test_envelope_domination_on_log_grid():
    for env, seed in [(TailEnvelope.pareto(2.0), 41), (TailEnvelope.pareto(1.5), 42),
                      (TailEnvelope.exponential(), 43)]:
        stream = _stream(seed, channel=Channel.Y)
        v = env.sample_v(stream.uniforms(10 ** 5))
        for t in np.geomspace(0.1, 50.0, 12):
            g = env.survival(t)
            slack = 3.0 * math.sqrt(g * (1 - g) / v.size)
            assert np.mean(v > t) <= g + slack


def test_envelope_median():
    env = TailEnvelope.pareto(2.0)
    stream = _stream(44, channel=Channel.Y)
    v = env.sample_v(stream.uniforms(10 ** 6))
    assert abs(np.median(v) - math.sqrt(2.0)) < 0.01
    assert env.median_v() == pytest.approx(2.0 ** 0.5)


@pytest.mark.parametrize("gamma, onset", [(1.1, 4), (1.5, 10), (3.0, 8104)])
def test_infinite_mean_onset_matches_a_scan(gamma, onset):
    schedule = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
    # scalar calls, as the search makes them: 0-d and array results can differ in the last bit
    scan = next(n for n in itertools.count(1) if schedule.value(n) <= 1.0 / gamma)
    assert scan == onset
    assert infinite_mean_onset(TailEnvelope.pareto(gamma), schedule) == scan


def test_infinite_mean_onset_index():
    # gamma * a_n <= 1 first at a_n <= 1/2, i.e. ln n >= 4: n = 55
    onset = infinite_mean_onset(TailEnvelope.pareto(2.0), MomentSchedule(ScheduleForm.INV_SQRT_LOG))
    assert onset == 55
    assert infinite_mean_onset(TailEnvelope.exponential(), MomentSchedule(ScheduleForm.INV_SQRT_LOG)) is None


def test_family_serialization_roundtrip():
    for fam in (XFamily.uniform(2.0), XFamily.shifted_exp(0.7), XFamily.parity(4),
                XFamily.pareto_centered(1.0)):
        assert XFamily.from_dict(fam.to_dict()) == fam
    for env in (TailEnvelope.exponential(), TailEnvelope.pareto(1.5)):
        assert TailEnvelope.from_dict(env.to_dict()) == env
