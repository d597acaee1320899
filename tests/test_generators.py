import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slln_lab.errors import InvalidExponent
from slln_lab.generators import (
    DependenceMode,
    EnvelopeKind,
    TailEnvelope,
    XFamily,
    XKind,
    XSampler,
    _parity_extremes,
    _parity_prefix_table,
    _parity_table,
    draw_heavy,
    infinite_mean_onset,
    reciprocal_exponents,
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(family=st.sampled_from((XFamily.parity(1), XFamily.parity(2), XFamily.parity(4), XFamily.parity(6),
                               XFamily.parity(9), XFamily.uniform(2.0), XFamily.pareto_centered(0.8))),
       slices=st.lists(st.integers(0, 1200), min_size=1, max_size=8))
def test_sampler_slices_equal_one_block(family, slices):
    # a parity block cut by a slice end is resumed where it stopped, from its sign code;
    # up to 8 bits its values are read off the cached table, from 9 bits on they are computed
    sampler = XSampler(family, _stream(5))
    parts = [sampler.fill(np.empty(size)) for size in slices]
    assert np.array_equal(np.concatenate(parts), family.sample_block(sum(slices), _stream(5)))


def _running_sums_of_blocks(family, codes, first, count, start):
    """start + X_1, start + X_1 + X_2, ... of the ``count`` values that the
    sign codes of :meth:`XSampler.blocks` cover, from the first column
    ``first`` of the first block, read off the prefix table."""
    table, length = _parity_prefix_table(family.block_bits), family.block_length
    ends = np.minimum(np.arange(1, codes.size + 1) * length - first, count)  # the X count at each block's end
    sums, total = [], start
    for code, lo, hi in zip(codes.tolist(), [0, *ends[:-1].tolist()], ends.tolist()):
        col = first if lo == 0 else 0
        sums.extend(total + table[code, col + 1:col + hi - lo + 1] - table[code, col])
        total += table[code, col + hi - lo] - table[code, col]
    return np.array(sums)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bits=st.integers(1, 8), slices=st.lists(st.integers(0, 600), min_size=1, max_size=8),
       start=st.integers(-2 ** 20, 2 ** 20))
@example(bits=4, slices=[16], start=3)  # a block and one value of the next
@example(bits=4, slices=[3, 15, 2], start=0)  # a block cut at both ends
def test_sampler_running_sums_are_those_of_its_values(bits, slices, start):
    # the sign codes of a slice give the running sums of its values, from the
    # same uniforms in the same order and leaving the same state; values and
    # codes may alternate
    family = XFamily.parity(bits)
    plain, coded = XSampler(family, _stream(7)), XSampler(family, _stream(7))
    for i, size in enumerate(slices):
        values = plain.fill(np.empty(size))
        if i % 2:
            assert np.array_equal(coded.fill(np.empty(size)), values)
        else:
            codes, first = coded.blocks(size)
            assert codes.dtype == np.uint8 and 0 <= first < family.block_length
            assert np.array_equal(_running_sums_of_blocks(family, codes, first, size, start),
                                  start + np.cumsum(values))
        assert (coded.code, coded.offset) == (plain.code, plain.offset)
    assert np.array_equal(coded.stream.uniforms(3), plain.stream.uniforms(3))
    # one call for the whole blocks of them; a cut block is the sampler's to keep, as above,
    # and sample_block refuses it by name, before taking a uniform
    count = sum(slices) // family.block_length * family.block_length
    codes = family.sample_block(count, _stream(8), codes=True)
    assert np.array_equal(_running_sums_of_blocks(family, codes, 0, count, start),
                          start + np.cumsum(family.sample_block(count, _stream(8))))
    if count < sum(slices):
        stream = _stream(8)
        with pytest.raises(ValueError, match="whole blocks"):
            family.sample_block(sum(slices), stream, codes=True)
        assert np.array_equal(stream.uniforms(3), _stream(8).uniforms(3))


@pytest.mark.parametrize("family", [XFamily.parity(9), XFamily.uniform(1.0)])
def test_running_sums_need_a_parity_table(family):
    # the sign codes from which the running sums of a block are read need its table
    sampler, twin = XSampler(family, _stream()), XSampler(family, _stream())
    sampler.fill(np.empty(5))
    with pytest.raises(ValueError, match="sign codes need a parity family with a table"):
        sampler.blocks(600)
    with pytest.raises(ValueError, match="sign codes need a parity family with a table"):
        family.sample_block(5, _stream(), codes=True)
    # the refused call took no uniform and left the open block as it was
    assert np.array_equal(sampler.fill(np.empty(600)), twin.fill(np.empty(605))[5:])
    assert not family.sums_by_table and XFamily.parity(8).sums_by_table


@pytest.mark.parametrize("bits", range(1, 9))
def test_parity_tables_hold_the_closed_form(bits):
    # what the block engine rests on: a block's total is 2**b - 1 for code 0 and -1
    # otherwise, its least, greatest and greatest absolute running sums are the
    # extremes tables, and X_i X_j = X_(i xor j) for masks i != j (pairwise independence
    # within a block: each column but for i xor j)
    values, sums = _parity_table(bits), _parity_prefix_table(bits)
    length = 2 ** bits - 1
    assert np.array_equal(sums[:, 0], np.zeros(2 ** bits))
    assert np.array_equal(sums[:, 1:], np.cumsum(values, axis=1))
    assert np.array_equal(sums[:, -1], np.where(np.arange(2 ** bits) == 0, length, -1))
    low, high, reach = _parity_extremes(bits)
    brute = [[min(row), max(row), max(map(abs, row))] for row in sums[:, 1:].tolist()]
    assert np.array_equal(np.stack((low, high, reach), axis=1), brute)
    masks = np.arange(1, length + 1)
    for i in masks:
        others = masks[masks != i]
        assert np.array_equal(values[:, i - 1, None] * values[:, others - 1], values[:, (i ^ others) - 1])


def test_sampler_resumes_a_long_block_without_holding_it():
    # 2**20 - 1 values per block, written 1000 at a time: the sampler keeps the code, not the block
    family, values = XFamily.parity(20), []
    sampler = XSampler(family, _stream(6))
    for _ in range(5):
        values.append(sampler.fill(np.empty(1000)))
    assert sampler.offset == 5000 and vars(sampler).keys() == {"family", "stream", "code", "offset"}
    assert np.array_equal(np.concatenate(values), family.sample_block(5000, _stream(6)))


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
    # 3 sigma / sqrt(n) with sigma = 1/rate = 1
    draws = XFamily.shifted_exp(1.0).sample_block(10 ** 6, _stream(2))
    assert abs(draws.mean()) < 3.0 * 1.0 / 10 ** 3


def test_parity_mean_check():
    # 3 sigma / sqrt(n) with sigma = 1: pairwise independence leaves the variance of the mean at 1/n
    draws = XFamily.parity(2).sample_block(10 ** 5, _stream(4))
    assert abs(draws.mean()) < 3.0 * 1.0 / math.sqrt(10 ** 5)


def test_infinite_mean_family_flagged():
    fam = XFamily.pareto_centered(1.0)
    assert not fam.has_finite_mean()
    assert fam.pareto_shift == 0.0  # no mean to subtract: the draw stays uncentered


# --- closed-form tails and E|X| --------------------------------------------------

def reference_tail(fam, x):
    """P(|X| > x) for a scalar x >= 0, in closed form; in mpmath arithmetic when x is an mpf."""
    if fam.kind is XKind.IID_UNIFORM:
        return min(max(1.0 - x / fam.half_width, 0.0), 1.0)
    if fam.kind is XKind.IID_SHIFTED_EXP:
        m = 1.0 / fam.rate
        upper = mpmath.exp(-fam.rate * (x + m))
        return upper + (1.0 - mpmath.exp(-fam.rate * (m - x)) if x < m else 0.0)
    if fam.kind is XKind.PARITY_RADEMACHER:
        return 1.0 if x < 1.0 else 0.0
    b = fam.shape
    if b <= 1.0:
        return 1.0 if x < 1.0 else x ** -b
    m = fam.pareto_shift
    return (m + x) ** -b + (1.0 - (m - x) ** -b if m - x > 1.0 else 0.0)


def test_tail_frozen_values():
    assert reference_tail(XFamily.uniform(1.0), 0.25) == 0.75
    assert reference_tail(XFamily.parity(4), 0.5) == 1.0
    assert reference_tail(XFamily.parity(4), 1.5) == 0.0
    assert reference_tail(XFamily.uniform(1.0), 0.0) == 1.0


def test_tail_is_monotone_from_one():
    for fam in (XFamily.uniform(2.0), XFamily.shifted_exp(0.5), XFamily.pareto_centered(2.0),
                XFamily.pareto_centered(1.0)):
        t = np.array([float(reference_tail(fam, x)) for x in np.linspace(0.0, 20.0, 500)])
        assert t[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(t) <= 1e-15)
        assert np.all((t >= 0) & (t <= 1))


def _empirical_tail_matches(fam, seed, grid):
    n = 10 ** 6
    draws = np.abs(fam.sample_block(n, _stream(seed)))
    for x in grid:
        p = float(reference_tail(fam, x))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(np.mean(draws > x) - p) <= 3.0 * se + 1e-9


def test_tail_consistency_uniform():
    _empirical_tail_matches(XFamily.uniform(1.0), 21, np.linspace(0.05, 0.95, 10))


def test_tail_consistency_shifted_exp():
    _empirical_tail_matches(XFamily.shifted_exp(1.0), 22, np.linspace(0.1, 4.0, 10))


def test_tail_consistency_pareto():
    # includes the spec point x = 5 where the tail is Theta(x^-2)
    _empirical_tail_matches(XFamily.pareto_centered(2.0), 23, np.array([0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]))


def mp_quad(f, points, x=lambda u: u, dx=lambda u: 1):
    """mpmath integral over ``points`` of f(x(u)) x'(u), at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.quad(lambda u: f(x(u)) * dx(u), points)


def mp_power_tail(f, start, decay):
    """mpmath integral of f over [start, inf) for f decaying like y**-(1 + decay).

    y = start * exp(u / decay) turns the integrand into about e**-u, so the
    mass far past the float range (decay near 0) is integrated too.  It is
    divided by its value at u = 0, since mpmath's error test is absolute.
    """
    y = lambda u: start * mpmath.exp(u / decay)
    scale = f(start) * start / decay
    return scale * mp_quad(lambda v: f(v) / scale, [0, mpmath.inf], y, lambda u: y(u) / decay)


def mp_mean_abs(fam):
    """E|X| as the mpmath integral of :func:`reference_tail`, split at its kink."""
    tail = lambda x: reference_tail(fam, x)
    if fam.kind is XKind.IID_UNIFORM:
        return mp_quad(tail, [0, fam.half_width])
    if fam.kind is XKind.PARITY_RADEMACHER:
        return mp_quad(tail, [0, 1])
    if fam.kind is XKind.IID_SHIFTED_EXP:
        m, rate = 1.0 / fam.rate, mpmath.mpf(fam.rate)
        return mp_quad(tail, [0, m]) + mp_quad(tail, [0, mpmath.inf], lambda u: m + u / rate, lambda u: 1 / rate)
    m = fam.pareto_shift  # kink at m - 1; past it the tail is (m + x)**-shape
    upper = mp_power_tail(lambda y: tail(y - m), 2 * mpmath.mpf(m) - 1, mpmath.mpf(fam.shape) - 1)
    return mp_quad(tail, [0, m - 1]) + upper


@pytest.mark.parametrize("fam", [
    *(XFamily.shifted_exp(rate) for rate in (1e-6, 1.0, 1e6)),
    *(XFamily.pareto_centered(shape) for shape in (1.0001, 1.5, 2.0, 5.0, 50.0)),
    *(XFamily.uniform(half_width) for half_width in (1e-9, 1.0, 1e9)),
    XFamily.parity(3),
], ids=lambda fam: "{}-{}={}".format(fam.kind.value, *fam.to_dict()["params"].popitem()))
def test_mean_abs_is_the_integral_of_the_tail(fam):
    assert fam.mean_abs() == pytest.approx(float(mp_mean_abs(fam)), rel=1e-13, abs=0.0)


def test_mean_abs_is_infinite_without_a_mean():
    assert XFamily.pareto_centered(1.0).mean_abs() == math.inf
    assert XFamily.pareto_centered(0.5).mean_abs() == math.inf


@pytest.mark.parametrize("fam, seed", [
    (XFamily.uniform(2.0), 51), (XFamily.shifted_exp(0.5), 52), (XFamily.parity(3), 53),
    (XFamily.pareto_centered(5.0), 54),
], ids=["uniform", "shifted_exp", "parity", "pareto"])
def test_sampled_mean_abs_within_3_sigma(fam, seed):
    # parity draws are all +-1: |X| = 1 exactly, so sigma is 0 and the means must agree exactly
    draws = np.abs(fam.sample_block(10 ** 6, _stream(seed)))
    assert abs(draws.mean() - fam.mean_abs()) <= 3.0 * draws.std() / 10 ** 3


def test_pareto_centered_has_mean_zero():
    draws = XFamily.pareto_centered(3.0).sample_block(10 ** 6, _stream(24))
    sigma = math.sqrt(3.0 / (2.0 ** 2 * 1.0))  # b / ((b-1)**2 (b-2)) is the variance at shape b = 3
    assert abs(draws.mean()) < 4.0 * sigma / 10 ** 3


# --- envelopes and heavy draws ---------------------------------------------------

def test_envelope_survival_and_integral():
    env = TailEnvelope.pareto(2.0)
    assert env.survival(0.5) == 1.0
    assert env.survival(2.0) == 0.25
    assert env.integral() == 2.0
    assert TailEnvelope.exponential().integral() == 1.0
    assert TailEnvelope.pareto(1.5).integral() == pytest.approx(3.0)


def reference_survival(env, t):
    """Envelope value at a scalar t >= 0; in mpmath arithmetic when t is an mpf."""
    if env.kind is EnvelopeKind.EXP:
        return mpmath.exp(-t)
    return 1.0 if t <= 1.0 else t ** -env.gamma


@pytest.mark.parametrize("env", [TailEnvelope.exponential()] + [
    TailEnvelope.pareto(gamma) for gamma in (1.0001, 1.01, 1.5, 2.0, 3.0, 10.0, 100.0, 1000.0)
], ids=lambda env: "exp" if env.kind is EnvelopeKind.EXP else f"pareto-{env.gamma}")
def test_envelope_integrals_match_mpmath(env):
    surv = lambda t: reference_survival(env, t)
    for cutoff in (0.0, 0.5, 1.0, 2.0):
        if env.kind is EnvelopeKind.EXP:
            ref = mp_quad(surv, [0, mpmath.inf], lambda u: cutoff + u)
        else:
            knee = max(cutoff, 1.0)
            ref = mp_quad(surv, [cutoff, knee]) + mp_power_tail(surv, knee, mpmath.mpf(env.gamma) - 1)
        assert env.tail_integral(cutoff) == pytest.approx(float(ref), rel=1e-13, abs=0.0)
        if cutoff == 0.0:
            assert env.integral() == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_envelope_requires_integrable_tail():
    with pytest.raises(ValueError):
        TailEnvelope.pareto(1.0)


def test_draw_heavy_deterministic_transform():
    # v = 2 at u = 0.75 for the quadratic envelope; exponent 1/2 squares it
    y = draw_heavy(TailEnvelope.pareto(2.0), DependenceMode.COMONOTONE, np.array([2.0]), np.empty(1), shared_u=0.75)
    assert y.tolist() == [4.0]


def test_draw_heavy_exp_envelope_shared_half():
    y = draw_heavy(TailEnvelope.exponential(), DependenceMode.COMONOTONE, np.array([1.0]), np.empty(1), shared_u=0.5)
    assert y[0] == pytest.approx(math.log(2.0), rel=1e-12)  # 0.6931...


def test_reciprocal_exponents_rejects_bad_exponent():
    for a in (0.0, -0.5, 1.5, [0.5, 1.5], math.nan, [0.5, math.nan]):
        with pytest.raises(InvalidExponent):
            reciprocal_exponents(a)


def test_draw_heavy_comonotone_is_monotone_transform():
    env = TailEnvelope.pareto(2.0)
    inv = reciprocal_exponents(np.full(16, 0.5))
    y_lo = draw_heavy(env, DependenceMode.COMONOTONE, inv, np.empty(16), shared_u=0.3)
    y_hi = draw_heavy(env, DependenceMode.COMONOTONE, inv, np.empty(16), shared_u=0.8)
    assert np.all(np.diff(y_lo) == 0)  # one uniform drives every value
    assert np.all(y_hi > y_lo)


def test_heavy_tail_exponent():
    # P(y > t) = t^(-gamma * a) for the transformed draw
    env = TailEnvelope.pareto(2.0)
    a = 0.5
    stream = _stream(31, channel=Channel.Y)
    y = draw_heavy(env, DependenceMode.INDEPENDENT, np.full(10 ** 6, 1.0 / a), np.empty(10 ** 6), stream=stream)
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
