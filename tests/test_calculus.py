import gc
import hashlib
import math
import os
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from slln_lab import calculus
from slln_lab.calculus import (
    BOUND_TOL,
    BoundCheck,
    block_tail_bound,
    bound_suite,
    build_block_schedule,
    combined_series_bound,
    envelope_power_integral,
    kronecker_check,
    series_bound_A,
    series_bound_B,
    truncated_power_moment,
    weighted_y_series,
    weighted_y_series_ensemble,
)
from slln_lab.errors import BoundViolation, InvalidExponent, SearchExhausted
from slln_lab.generators import DependenceMode, TailEnvelope, draw_heavy, nonnegative, reciprocal_exponents
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import _CHUNK, MomentSchedule, ScheduleForm, y_insertion_positions

EXP = TailEnvelope.exponential()
PARETO2 = TailEnvelope.pareto(2.0)
PARETO15 = TailEnvelope.pareto(1.5)
CONST_HALF = MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5)


# --- truncated power moments -------------------------------------------------------

def test_truncated_moment_empty():
    assert truncated_power_moment(PARETO2, 0, 2.0) == 0.0


def test_truncated_moment_exp_limit():
    # integral of 2 s exp(-s) over [0, inf) = 2; from n = 1e4 on, 2 s e**-s is 0 in floats at
    # every first sample of an adaptive Simpson on [0, n], which then accepted 0
    for n in (60.0, 1e4, 1e5, 1e6):
        assert truncated_power_moment(EXP, n, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_truncated_moment_pareto_closed_form():
    # pieces: 1 + 2 ln 10 + 100 * 0.01 = 6.60517...
    value = truncated_power_moment(PARETO2, 10, 2.0)
    assert value == pytest.approx(2.0 + 2.0 * math.log(10.0), rel=1e-9)
    assert value == pytest.approx(6.6052, abs=1e-4)


def mpmath_truncated_moment(envelope, n, p):
    """E min(v, n)**p by mpmath quadrature, split at the envelope's kink."""
    def surv(s):
        return mpmath.exp(-s) if envelope.kind is EXP.kind else min(mpmath.mpf(1), s ** -envelope.gamma)

    n = mpmath.mpf(n)
    body = mpmath.quad(lambda s: p * s ** (p - 1) * surv(s), [0, min(1, n), n])
    return float(body + n ** p * surv(n))


@pytest.mark.parametrize("env", [EXP, PARETO15, PARETO2], ids=["exp", "pareto1.5", "pareto2"])
@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 10.0])
def test_truncated_moment_matches_mpmath(env, p):
    # an adaptive Simpson hit its depth cap at p = 1.01, and on Pareto(1.5) at p = 10, n = 1e3 ran
    # past 8 s, refining an integral near n**8.5 to an absolute tolerance
    for n in (0.5, 2, 7, 25, 10 ** 3):
        start = time.perf_counter()
        value = truncated_power_moment(env, n, p)
        assert time.perf_counter() - start < 0.5
        assert value == pytest.approx(mpmath_truncated_moment(env, n, p), rel=1e-9)


def test_truncated_moment_nondecreasing_in_n():
    # the exact truncated moment (the body integral; the transform min(v, n)
    # only grows with n) is nondecreasing; the upper-bound form adds the
    # boundary term n**p G(n), which is not itself monotone but vanishes
    for env in (EXP, PARETO2):
        grid = (1, 2, 4, 8, 16, 64)
        exact = [envelope_power_integral(env, float(n), 2.5) for n in grid]
        assert all(b >= a - 1e-12 for a, b in zip(exact, exact[1:]))
        boundary = [truncated_power_moment(env, n, 2.5) - e for n, e in zip(grid, exact)]
        assert all(t >= -1e-9 for t in boundary)
        assert boundary[-1] == pytest.approx(64.0 ** 2.5 * env.survival(64.0), abs=1e-8)


def test_truncated_moment_below_full_moment_when_finite():
    # full moment E v**p is finite for p < gamma
    p, gamma = 1.2, 2.0
    full = float(mpmath.quad(lambda s: p * s ** (p - 1) * min(1.0, s ** -gamma), [0, 1, mpmath.inf]))
    for n in (2, 10, 100):
        assert truncated_power_moment(PARETO2, n, p) <= full + 1e-9


def test_envelope_power_integral_vectorized_matches_mpmath():
    n = np.array([1.0, 3.0, 17.5, 240.0])
    for env, g in ((EXP, None), (PARETO2, 2.0), (PARETO15, 1.5)):
        for p in (1.01, 2.0, 3.7):
            mine = envelope_power_integral(env, n, p)
            for i, x in enumerate(n):
                surv = (lambda s: math.exp(-s)) if g is None else (lambda s: min(1.0, s ** -g))
                ref = float(mpmath.quad(lambda s: p * s ** (p - 1) * surv(s), [0, min(1.0, x), x]))
                assert mine[i] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("p", [170.7, 400.0])
def test_exp_power_integral_refuses_p_past_the_gamma_overflow(p):
    # Gamma(p+1) is inf past about p = 170.62: a finite value read inf, series A raised
    # BoundViolation on NaN and the truncated moment OverflowError; warnings are errors here
    for evaluate in (lambda: envelope_power_integral(EXP, 5.0, p), lambda: series_bound_A(EXP, p, 10 ** 4),
                     lambda: truncated_power_moment(EXP, 50.0, p)):
        with pytest.raises(ValueError, match="p must be at most about 170.62 on the exp envelope"):
            evaluate()


def test_exp_power_integral_below_the_gamma_overflow_is_unchanged():
    p = 170.6
    x = np.array([5.0, 50.0, 170.0, 10.0 ** 4])  # the last past the gammainc cutoff
    expected = np.where(x < calculus._gammainc_cutoff(p), sp.gamma(p + 1.0) * sp.gammainc(p, x), sp.gamma(p + 1.0))
    assert np.array_equal(envelope_power_integral(EXP, x, p), expected)
    exact = p * mpmath.gammainc(p, 0, 50) + mpmath.mpf(50) ** p * mpmath.exp(-50)
    assert truncated_power_moment(EXP, 50.0, p) == pytest.approx(float(exact), rel=1e-9)


# --- series bounds ----------------------------------------------------------------------

def _oracle_series_A_exp_p2() -> float:
    # closed form via polylogarithms: sum n^-2 * 2(1 - e^-n (1+n)) from n=3
    # = 2 [zeta(2) - 1.25] - 2 [Li2(1/e) - 1/e - e^-2/4] - 2 [-ln(1-1/e) - 1/e - e^-2/2]
    e1 = mpmath.exp(-1)
    s2 = mpmath.zeta(2) - 1 - mpmath.mpf(1) / 4
    li2 = mpmath.polylog(2, e1) - e1 - mpmath.exp(-2) / 4
    li1 = -mpmath.log(1 - e1) - e1 - mpmath.exp(-2) / 2
    return float(2 * s2 - 2 * li2 - 2 * li1)


def test_series_A_exp_p2_value():
    check = series_bound_A(EXP, 2.0)
    truth = _oracle_series_A_exp_p2()
    # the packaged value adds a remainder bound, so it sits just above truth
    assert truth <= check.value <= truth + 1e-5
    assert check.value <= 2.0 * (math.pi ** 2 / 6.0 - 1.25) + 1e-9  # coarse sup estimate
    assert check.bound == 2.0
    assert check.slack > 0


def test_series_B_values():
    b_exp = series_bound_B(EXP)
    assert b_exp.value == pytest.approx(math.exp(-3.0) / (1.0 - math.exp(-1.0)), rel=1e-9)
    assert b_exp.value == pytest.approx(0.07877, abs=1e-5)
    b_pareto = series_bound_B(PARETO2)
    assert b_pareto.value == pytest.approx(math.pi ** 2 / 6.0 - 1.25, rel=1e-6)
    assert b_pareto.value == pytest.approx(0.39493, abs=1e-5)
    assert b_pareto.bound == 2.0
    # the sharper analytic bound from monotonicity
    assert b_exp.value <= EXP.tail_integral(2.0)
    assert b_pareto.value <= PARETO2.tail_integral(2.0)


def test_series_B_truncation_independent_bound():
    for truncation in (10, 100, 10 ** 5):
        check = series_bound_B(PARETO15, truncation=truncation)
        assert check.value <= check.bound
        # value is an upper assembly: smaller truncation, larger remainder
        assert check.remainder >= 0


def reference_power_integral(envelope, x, p):
    """envelope_power_integral as one whole-array expression (the oracle of the in-place form)."""
    if envelope.kind is EXP.kind:
        return sp.gamma(p + 1.0) * sp.gammainc(p, x)
    g = envelope.gamma
    out = np.where(x <= 1.0, np.power(x, p), 0.0)
    xb = np.maximum(x, 1.0)
    if abs(p - g) < 1e-12:
        tail = 1.0 + p * np.log(xb)
    else:
        tail = 1.0 + p / (p - g) * (np.power(xb, p - g) - 1.0)
    return np.where(x > 1.0, tail, out)


def reference_survival(envelope, t):
    if envelope.kind is EXP.kind:
        return np.exp(-t)
    return np.where(t <= 1.0, 1.0, np.power(np.maximum(t, 1.0), -envelope.gamma))


def reference_series_A(envelope, p, truncation):
    n = np.arange(3, truncation + 1, dtype=np.float64)
    return float(np.sum(n ** (-p) * reference_power_integral(envelope, n, p)))


def reference_series_B(envelope, truncation):
    n = np.arange(3, truncation + 1, dtype=np.float64)
    return float(np.sum(reference_survival(envelope, n)))


SERIES_CASES = [(env, p) for env in (EXP, PARETO15, PARETO2) for p in (1.01, 1.5, 2.0, 10.0)]


# truncations at the edges of the 2**16 chunks the partial sums are filled in
@pytest.mark.parametrize("truncation", [3, 4, 2 ** 16 + 2, 2 ** 16 + 3, 3 * 2 ** 16 + 5])
def test_series_partial_sums_equal_the_whole_array_sums(monkeypatch, truncation):
    # the partial sums alone: at small truncations the remainder bounds exceed the series bounds
    monkeypatch.setattr(BoundCheck, "enforce", lambda check: check)
    for env, p in SERIES_CASES:
        assert series_bound_A(env, p, truncation).partial == reference_series_A(env, p, truncation), (env, p)
    for env in (EXP, PARETO15, PARETO2):
        assert series_bound_B(env, truncation).partial == reference_series_B(env, truncation), env


def test_series_partial_sums_equal_the_whole_array_sums_at_the_default_truncation():
    assert series_bound_A(PARETO15, 1.5).partial == reference_series_A(PARETO15, 1.5, 10 ** 6)
    assert series_bound_B(PARETO15).partial == reference_series_B(PARETO15, 10 ** 6)


# NumPy's pairwise sum splits a run of more than 128 terms after n2 = n // 2
# less n2 % 8.  T - 2 terms: 128 and 129 at T = 130 and 131; one leaf of
# 2**16 and one past at 65538 and 65539; two leaves and one past at 131074
# and 131075; a split where n // 2 is no multiple of 8 at 10**6 and 3e6 + 1
@pytest.mark.parametrize("truncation", [3, 10, 130, 131, 65538, 65539, 131074, 131075, 10 ** 6, 3 * 10 ** 6 + 1])
def test_partial_sums_follow_numpys_pairwise_tree(monkeypatch, truncation):
    monkeypatch.setattr(BoundCheck, "enforce", lambda check: check)
    for env in (EXP, PARETO15):
        for p in (1.01, 10.0):
            assert series_bound_A(env, p, truncation).partial == reference_series_A(env, p, truncation), (env, p)
        assert series_bound_B(env, truncation).partial == reference_series_B(env, truncation), env


@pytest.mark.parametrize("env", [EXP, PARETO15], ids=["exp", "pareto1.5"])
def test_series_peak_memory_does_not_grow_with_the_truncation(env):
    series_bound_A(env, 2.0, 10)  # the exp envelope loads scipy on first use
    tracemalloc.start()
    try:
        series_bound_A(env, 1.01, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc")
def test_bound_suite_leaves_no_buffers_behind():
    # with the collector off, buffers held by a reference cycle would pile up call after call
    bound_suite()
    gc.collect()
    gc.disable()
    try:
        before = _resident_bytes()
        for _ in range(3):
            bound_suite()
        grown = _resident_bytes() - before
    finally:
        gc.enable()
    assert grown < 2 ** 20


@pytest.mark.parametrize("env", [EXP, PARETO15, PARETO2], ids=["exp", "pareto1.5", "pareto2"])
def test_array_branches_into_out_equal_the_whole_array_expressions(env):
    x = np.array([0.0, 1e-300, 0.25, 0.5, 0.999, 1.0, 1.0 + 2 ** -52, 1.5, 2.0, 3.0, 17.5, 1e3, 1e6])
    for p in (1.01, 1.5, 2.0, 10.0):
        expected = reference_power_integral(env, x, p)
        out = np.full_like(x, np.nan)
        assert envelope_power_integral(env, x, p, out=out) is out
        assert np.array_equal(out, expected)
        assert np.array_equal(envelope_power_integral(env, x, p), expected)
        assert [envelope_power_integral(env, float(v), p) for v in x] == list(expected)
        in_place = x.copy()
        assert np.array_equal(envelope_power_integral(env, in_place, p, out=in_place), expected)
    expected = reference_survival(env, x)
    out = np.full_like(x, np.nan)
    assert env.survival(x, out=out) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(env.survival(x), expected)
    assert [env.survival(float(v)) for v in x] == list(expected)
    in_place = x.copy()
    assert np.array_equal(env.survival(in_place, out=in_place), expected)


@pytest.mark.parametrize("env", [EXP, PARETO15, PARETO2], ids=["exp", "pareto1.5", "pareto2"])
@pytest.mark.parametrize("bad", [-1.0, -1, -math.inf, np.float64(-0.5), math.nan, np.array(math.nan),
                                 np.array([0.5, math.nan, 2.0]), np.array([0.5, -math.inf]), np.array([3.0, -1e-300])],
                         ids=["negative", "negative_int", "minus_inf", "negative_float64", "nan", "nan_0d",
                              "nan_in_array", "minus_inf_in_array", "negative_in_array"])
def test_negative_or_nan_argument_is_rejected(env, bad):
    with pytest.raises(ValueError, match="upper limit must be >= 0"):
        envelope_power_integral(env, bad, 1.5)
    with pytest.raises(ValueError, match="survival is defined for t >= 0"):
        env.survival(bad)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        env.tail_integral(bad)
    with pytest.raises(ValueError, match="n must be >= 0"):
        truncated_power_moment(env, bad, 1.5)


def test_nonnegative_agrees_with_np_all():
    values = [0, 0.0, -0.0, 3, 2.5, math.inf, -1, -1.0, -math.inf, math.nan, 10 ** 400, -(10 ** 400), True,
              np.float64(-0.5), np.float32(1.5), np.array(-2.0), np.array([]), np.array([0.0, math.inf]),
              np.array([1.0, math.nan]), np.array([[1.0, 2.0], [3.0, -4.0]])]
    for x in values:
        assert nonnegative(x) == bool(np.all(x >= 0)), x


@pytest.mark.parametrize("env", [EXP, PARETO15, PARETO2], ids=["exp", "pareto1.5", "pareto2"])
@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_nan_or_infinite_exponent_is_rejected(env, p):
    with pytest.raises(ValueError, match="p must be positive and finite"):
        envelope_power_integral(env, np.array([0.5, 2.0]), p)


# --- the gammainc cutoff of the exp power integral ----------------------------------

CUTOFF_N = np.arange(3, 2 ** 17 + 1, dtype=np.float64)  # spans every cutoff and the first chunk edge


def assert_exp_integral_is_gammainc_across_the_cutoff(p):
    expected = reference_power_integral(EXP, CUTOFF_N, p)
    assert np.array_equal(envelope_power_integral(EXP, CUTOFF_N, p), expected)
    # a chunk at a time, as series A fills it: from the second chunk on, every n is past the cutoff
    out = np.empty_like(CUTOFF_N)
    for s0 in range(0, CUTOFF_N.size, _CHUNK):
        envelope_power_integral(EXP, CUTOFF_N[s0:s0 + _CHUNK], p, out=out[s0:s0 + _CHUNK])
    assert np.array_equal(out, expected)


def assert_gammainc_is_one_past_the_cutoff(p):
    # the premise of the cutoff: scipy rounds P(p, n) to exactly 1.0 from there on
    cutoff = calculus._gammainc_cutoff(p)
    assert np.all(sp.gammainc(p, np.arange(cutoff, cutoff + 2 ** 16, dtype=np.float64)) == 1.0)


@pytest.mark.parametrize("p", calculus.DEFAULT_PS)
def test_exp_integral_is_gammainc_across_the_cutoff(p):
    assert_exp_integral_is_gammainc_across_the_cutoff(p)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.floats(min_value=1.0, max_value=50.0, exclude_min=True))
def test_exp_integral_is_gammainc_across_the_cutoff_for_any_p(p):
    assert_exp_integral_is_gammainc_across_the_cutoff(p)


@pytest.mark.parametrize("p", calculus.DEFAULT_PS)
def test_gammainc_is_one_past_the_cutoff(p):
    assert_gammainc_is_one_past_the_cutoff(p)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.floats(min_value=1.0, max_value=50.0, exclude_min=True))
def test_gammainc_is_one_past_the_cutoff_for_any_p(p):
    assert_gammainc_is_one_past_the_cutoff(p)


def test_scalar_and_in_place_calls_at_the_cutoff_equal_the_reference():
    cutoffs = [calculus._gammainc_cutoff(p) for p in calculus.DEFAULT_PS]
    assert cutoffs == [39, 41, 43, 46, 64]
    for p, cutoff in zip(calculus.DEFAULT_PS, cutoffs):
        for n in (cutoff - 6.0, cutoff - 1.0, float(cutoff)):
            expected = reference_power_integral(EXP, np.array([n]), p)[0]
            assert envelope_power_integral(EXP, n, p) == expected
            zero_d = envelope_power_integral(EXP, np.array(n), p)
            assert zero_d.shape == () and zero_d == expected
            in_place = np.array([n, n])
            assert envelope_power_integral(EXP, in_place, p, out=in_place) is in_place
            assert np.array_equal(in_place, [expected, expected])
        in_place = np.array([float(cutoff), cutoff - 1.0])  # one on each side of the cutoff
        assert np.array_equal(envelope_power_integral(EXP, in_place, p, out=in_place),
                              reference_power_integral(EXP, np.array([float(cutoff), cutoff - 1.0]), p))


def test_combined_bound_examples():
    a, b_exp = series_bound_A(EXP, 2.0), series_bound_B(EXP)
    combined = combined_series_bound(a, b_exp)
    assert (combined.value, combined.partial, combined.remainder, combined.p, combined.truncation) == (
        a.value + b_exp.value, a.partial + b_exp.partial, a.remainder + b_exp.remainder, 2.0, 10 ** 6)
    assert combined.bound == 3.0
    truth = _oracle_series_A_exp_p2() + math.exp(-3.0) / (1.0 - math.exp(-1.0))
    assert combined.value == pytest.approx(truth, abs=1e-4)
    combined3 = combined_series_bound(series_bound_A(PARETO2, 3.0), series_bound_B(PARETO2))
    assert combined3.bound == 5.0
    assert combined3.value < 5.0
    stress = combined_series_bound(series_bound_A(EXP, 1.001), b_exp)
    assert stress.bound == pytest.approx((2 * 1.001 - 1.0) / 0.001)  # ~1002 * C
    assert math.isfinite(stress.value)


@pytest.mark.parametrize("mismatch", ["a_not_series_A", "b_not_series_B", "a_of_another_envelope",
                                      "b_of_another_envelope", "truncations_differ"])
def test_combined_bound_rejects_checks_that_do_not_belong_together(mismatch):
    a, b = series_bound_A(EXP, 2.0, 1000), series_bound_B(EXP, 1000)
    a_pareto, b_pareto = series_bound_A(PARETO2, 2.0, 1000), series_bound_B(PARETO2, 1000)
    cases = {
        "a_not_series_A": ((b, b), "expected a series_A and a series_B check"),
        "b_not_series_B": ((a, a), "expected a series_A and a series_B check"),
        "a_of_another_envelope": ((a_pareto, b), "belong to different envelopes"),
        "b_of_another_envelope": ((a, b_pareto), "belong to different envelopes"),
        "truncations_differ": ((a, series_bound_B(EXP, 2000)), "truncations 1000 and 2000 differ"),
    }
    checks, message = cases[mismatch]
    with pytest.raises(ValueError, match=message):
        combined_series_bound(*checks)


def test_combined_bound_rejects_envelopes_that_share_a_label():
    # both envelopes print as pareto(1.5); the checks record the envelopes themselves
    near = TailEnvelope.pareto(1.5000001)
    a, b = series_bound_A(near, 2.0, 1000), series_bound_B(PARETO15, 1000)
    assert a.envelope_label == b.envelope_label == "pareto(1.5)"
    with pytest.raises(ValueError, match="belong to different envelopes"):
        combined_series_bound(a, b)
    with pytest.raises(ValueError, match="belong to different envelopes"):
        combined_series_bound(series_bound_A(PARETO15, 2.0, 1000), series_bound_B(near, 1000))


# sha256 of the 45 values (A, B and A + B of each row of the default bound suite), one repr a line
BOUND_SUITE_SHA256 = "5800116b1d7271815abdfe906bde27ad97ca428e8b2ab88bd2ba2a61016fdc19"


def count_series_calls(monkeypatch) -> dict:
    """Counting wrappers on series_bound_A/B; the returned dict holds their call counts."""
    calls = {"series_A": 0, "series_B": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(calculus, "series_bound_A", counted("series_A", series_bound_A))
    monkeypatch.setattr(calculus, "series_bound_B", counted("series_B", series_bound_B))
    return calls


def test_bound_suite_all_hold_with_slack(monkeypatch):
    calls = count_series_calls(monkeypatch)
    rows = bound_suite()
    assert len(rows) == 15
    assert calls == {"series_A": 15, "series_B": 3}  # A once per (envelope, p), B once per envelope
    for row in rows:
        assert row["slack_A"] > 0
        assert row["slack_B"] > 0
        assert row["slack_combined"] > 0
    values = "\n".join(repr(row[k]) for row in rows for k in ("A", "B", "combined"))
    assert hashlib.sha256(values.encode()).hexdigest() == BOUND_SUITE_SHA256


@pytest.mark.parametrize("ps", [calculus.DEFAULT_PS, (10.0, 1.5, 1.5)], ids=["default", "unsorted"])
def test_bound_suite_rows_equal_the_separate_checks(monkeypatch, ps):
    # the oracle evaluates A and B afresh for every (envelope, p) and adds their values
    truncation = 10 ** 4
    envelopes = (EXP, PARETO15, PARETO2)
    oracle = []
    for env in envelopes:
        for p in ps:
            a, b = series_bound_A(env, p, truncation), series_bound_B(env, truncation)
            combined = a.value + b.value
            bound = (2.0 * p - 1.0) / (p - 1.0) * env.integral()
            oracle.append({"envelope": a.envelope_label, "p": p,
                           "A": a.value, "bound_A": a.bound, "slack_A": a.slack,
                           "B": b.value, "bound_B": b.bound, "slack_B": b.slack,
                           "combined": combined, "bound_combined": bound, "slack_combined": bound - combined})
    calls = count_series_calls(monkeypatch)
    assert repr(bound_suite(envelopes, ps, truncation)) == repr(oracle)
    assert calls == {"series_A": len(envelopes) * len(ps), "series_B": len(envelopes)}


class LyingEnvelope:
    kind = EXP.kind
    gamma = 2.0

    def survival(self, t, out=None):
        return EXP.survival(t, out=out)

    def integral(self):
        return 0.05  # wrong on purpose: claims far less mass than it has

    def tail_integral(self, cutoff):
        return EXP.tail_integral(cutoff)


def test_bound_violation_detected_for_inconsistent_envelope():
    with pytest.raises(BoundViolation):
        series_bound_A(LyingEnvelope(), 2.0)


def test_nan_value_violates_its_bound(monkeypatch):
    # a NaN series is a violation, not a pass: NaN <= bound is false
    def nan_integral(envelope, n, p, out=None):
        if out is None:
            return math.nan
        out.fill(math.nan)
        return out

    monkeypatch.setattr(calculus, "envelope_power_integral", nan_integral)
    with pytest.raises(BoundViolation, match=r"^series_A\[exp, p=2\.0\]: value nan \(partial sum nan"):
        series_bound_A(EXP, 2.0, 10 ** 4)
    with pytest.raises(BoundViolation, match=r"^series_A\[exp, p=2\.0\]: value nan"):
        bound_suite(ps=(2.0, 3.0), truncation=10 ** 4)


def test_first_violation_is_the_first_series_A(monkeypatch):
    # A and B both exceed their bounds on the lying envelope; A runs first, so its violation is raised
    with pytest.raises(BoundViolation) as raised:
        bound_suite([LyingEnvelope()], ps=(2.0, 3.0), truncation=10 ** 4)
    monkeypatch.setattr(BoundCheck, "enforce", lambda check: check)
    a, b = series_bound_A(LyingEnvelope(), 2.0, 10 ** 4), series_bound_B(LyingEnvelope(), 10 ** 4)
    assert a.slack < 0 and b.slack < 0
    assert str(raised.value) == (
        f"series_A[exp, p=2.0]: value {a.value!r} (partial sum {a.partial!r} "
        f"+ remainder {a.remainder!r} at truncation 10000) exceeds bound {a.bound!r}"
    )


def test_small_truncation_violation_shows_its_remainder(monkeypatch):
    # the bound is a theorem, but the value adds a remainder bound that is too loose at a small
    # truncation: series A on Pareto(1.5) at p = 10 exceeds its bound up to truncation 7
    with pytest.raises(BoundViolation) as raised:
        bound_suite([PARETO15], ps=(10.0,), truncation=7)
    assert bound_suite([PARETO15], ps=(10.0,), truncation=8)[0]["slack_A"] > 0
    monkeypatch.setattr(BoundCheck, "enforce", lambda check: check)
    check = series_bound_A(PARETO15, 10.0, 7)
    assert check.remainder > check.partial
    assert str(raised.value) == (
        f"series_A[pareto(1.5), p=10.0]: value {check.value!r} (partial sum {check.partial!r} "
        f"+ remainder {check.remainder!r} at truncation 7) exceeds bound {check.bound!r}"
    )


def test_mpmath_confirms_series_A_below_bound_for_stress_pair():
    # sharpest case on the grid: slow envelope decay with p near 1
    env, p = PARETO15, 1.01
    check = series_bound_A(env, p)
    # true series via zeta functions: sum n^-p (c1 - c2 n^-(g-p)) from 3
    g = 1.5
    c_tail = p / (g - p)
    z1 = mpmath.zeta(p) - 1 - mpmath.power(2, -p)
    z2 = mpmath.zeta(g) - 1 - mpmath.power(2, -g)
    truth = float((1 + c_tail) * z1 - c_tail * z2)
    assert truth <= check.value <= truth + 0.5  # remainder assembly stays close
    assert check.value <= check.bound + BOUND_TOL


# --- block schedule -----------------------------------------------------------------------

def test_block_schedule_frozen_boundaries():
    # remainder-arithmetic oracle fixed these before the build:
    # tail bound T(N,2) = I(N)/N + (1 + 2 (N+1)/N) e^-N with I(N) = 2(1 - e^-N (1+N))
    blocks = build_block_schedule(EXP, CONST_HALF, 5)
    assert blocks.boundaries == [3, 9, 19, 33, 51]
    assert blocks.exponents == [2.0] * 5


def test_block_schedule_tail_bounds_below_targets():
    blocks = build_block_schedule(EXP, CONST_HALF, 5)
    for k, (boundary, tail) in enumerate(zip(blocks.boundaries, blocks.tail_bounds), start=1):
        assert tail < 1.0 / k ** 2
        # least such index: one step earlier the bound must fail (unless forced
        # by strict monotonicity of the boundaries)
        prev = blocks.boundaries[k - 2] if k >= 2 else 0
        if boundary > prev + 1:
            assert block_tail_bound(EXP, boundary - 1, 2.0) >= 1.0 / k ** 2


def test_block_schedule_strictly_increasing():
    # loglog-over-log exponents start well below 1, so boundaries materialize
    blocks = build_block_schedule(EXP, MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), 6)
    assert all(b > a for a, b in zip(blocks.boundaries, blocks.boundaries[1:]))
    for k, tail in enumerate(blocks.tail_bounds, start=1):
        assert tail < 1.0 / k ** 2


def test_block_schedule_exhausts_cap_for_slow_exponents():
    # 1/a near 1 makes the zeta tail fall below 1 only near 1e27: the search
    # must report exhaustion instead of pretending a boundary exists
    with pytest.raises(SearchExhausted):
        build_block_schedule(PARETO2, MomentSchedule(ScheduleForm.INV_SQRT_LOG), 2)


def test_block_tail_bound_dominates_true_tail():
    # the analytic bound must sit above the exact remainder (mpmath, extremal law);
    # the sum past 2000 extra terms is under Gamma(p+1) * zeta-tail < 1.1e-3 here
    p = 2.0
    for n_start in (3, 9, 19):
        bound = block_tail_bound(EXP, n_start, p)
        truth = mpmath.mpf(0)
        for n in range(n_start + 1, n_start + 2000):
            moment = p * mpmath.gammainc(p, 0, n) + mpmath.power(n, p) * mpmath.exp(-n)
            truth += moment / mpmath.power(n, p)
        assert float(truth) + 1.1e-3 < bound


def test_step_exponent_is_blockwise():
    blocks = build_block_schedule(EXP, CONST_HALF, 5)
    b = blocks.boundaries
    assert blocks.step_exponent(b[0] + 1) == blocks.exponents[0]
    assert blocks.step_exponent(b[1]) == blocks.exponents[0]
    assert blocks.step_exponent(b[1] + 1) == blocks.exponents[1]
    assert blocks.step_exponent(1) == blocks.exponents[0]
    assert blocks.step_exponent(b[-1] + 100) == blocks.exponents[-1]


@pytest.mark.parametrize("schedule, k_max", [(CONST_HALF, 5), (MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), 6)])
def test_step_exponent_matches_a_linear_scan(schedule, k_max):
    blocks = build_block_schedule(EXP, schedule, k_max)
    pairs = list(zip(blocks.boundaries, blocks.exponents))
    for n in range(1, blocks.boundaries[-1] + 3):
        # the exponent of the last boundary below n, else the first exponent
        expected = blocks.exponents[0]
        for boundary, exponent in pairs:
            if boundary < n:
                expected = exponent
        assert blocks.step_exponent(n) == expected


def test_step_exponent_below_pointwise_exponent():
    sched = MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG)
    blocks = build_block_schedule(EXP, sched, 6)
    for n in range(blocks.boundaries[0] + 1, blocks.boundaries[-1] + 1):
        assert blocks.step_exponent(n) <= 1.0 / sched.value(n) + 1e-12


def test_block_schedule_search_cap():
    with pytest.raises(SearchExhausted):
        build_block_schedule(PARETO15, CONST_HALF, 3, search_cap=4)


def test_block_schedule_finds_a_boundary_up_to_the_cap():
    # the second boundary, 9, lies between the doubled 8 and the cap 12
    assert build_block_schedule(EXP, CONST_HALF, 2, search_cap=12).boundaries == [3, 9]
    with pytest.raises(SearchExhausted, match="block boundary 2"):
        build_block_schedule(EXP, CONST_HALF, 2, search_cap=8)
    # boundaries 3 and 4 leave only 5 > cap for the third
    with pytest.raises(SearchExhausted, match="block boundary 3"):
        build_block_schedule(EXP, MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.2), 3, search_cap=4)


def test_block_schedule_rejects_exponent_one():
    with pytest.raises(ValueError):
        build_block_schedule(EXP, MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0), 2)


# --- weighted series ------------------------------------------------------------------------

def test_weighted_series_zero_values():
    res = weighted_y_series(np.zeros(100), np.full(100, 0.5))
    assert res.total == 0.0
    assert np.all(res.partial_sums == 0.0)
    assert res.converged


def test_weighted_series_zeta_two():
    res = weighted_y_series(np.ones(10 ** 4), np.full(10 ** 4, 0.5))
    assert res.total == pytest.approx(math.pi ** 2 / 6.0, abs=1e-3)
    assert np.all(np.diff(res.partial_sums) >= 0)


def test_weighted_series_rejects_nan_values():
    with pytest.raises(ValueError, match="y values must be absolute values"):
        weighted_y_series(np.array([1.0, math.nan, 2.0]), np.full(3, 0.5))


@pytest.mark.parametrize("exponents", [[0.5, 0.0, -0.5], [0.5, math.nan, 0.5], [0.5, 1.5, 0.5]])
def test_weighted_series_rejects_exponents_outside_the_unit_interval(exponents):
    with pytest.raises(InvalidExponent):
        weighted_y_series(np.ones(3), np.array(exponents))


def test_weighted_series_simulated_ensemble():
    ens = weighted_y_series_ensemble(
        PARETO2, MomentSchedule(ScheduleForm.INV_SQRT_LOG), 1.0, 10 ** 4, 100, master_seed=0
    )
    assert ens.fraction_converged >= 0.95
    # each path is its own series: draws from its Y stream at the exponents of the insert positions
    schedule = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
    small = weighted_y_series_ensemble(PARETO2, schedule, 1.0, 300, 3, master_seed=5)
    exponents = schedule.value(np.asarray(y_insertion_positions(schedule, 1.0, 300), dtype=np.float64))
    for i in range(3):
        stream = derive_stream(StreamKey(5, i, Channel.Y))
        y = draw_heavy(PARETO2, DependenceMode.INDEPENDENT, reciprocal_exponents(exponents), np.empty(300),
                       stream=stream)
        assert small.increments[i] == weighted_y_series(y, exponents).last_decade_increment


@pytest.mark.parametrize("k_max, n_paths, message", [(0, 3, "k_max must be >= 1"), (10, 0, "n_paths must be >= 1")])
def test_weighted_series_ensemble_checks_its_arguments(k_max, n_paths, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        weighted_y_series_ensemble(PARETO2, MomentSchedule(ScheduleForm.INV_SQRT_LOG), 1.0, k_max, n_paths)


# --- series-to-average conversion --------------------------------------------------------------

def test_kronecker_alternating():
    k = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    report = kronecker_check((-1.0) ** k, k)
    assert report.status == "PASS"
    assert report.scaled_average_final <= 1.0 / 10 ** 4


def test_kronecker_premise_failure():
    k = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    report = kronecker_check(np.ones(k.size), k)
    assert report.status == "PREMISE_FAILED"
    assert not report.premise_cauchy


def test_kronecker_inverse_squares():
    k = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    report = kronecker_check(1.0 / k ** 2, k)
    assert report.status == "PASS"
    assert report.scaled_average_final <= (math.pi ** 2 / 6.0) / 10 ** 4


def test_kronecker_validates_weights():
    with pytest.raises(ValueError):
        kronecker_check(np.ones(20), -np.ones(20))
    with pytest.raises(ValueError):
        kronecker_check(np.ones(20), np.linspace(10, 1, 20))


def test_kronecker_rejects_nan_weights():
    weights = np.arange(1.0, 21.0)
    weights[5] = math.nan
    with pytest.raises(ValueError, match="weights must be positive and nondecreasing"):
        kronecker_check(np.ones(20), weights)
