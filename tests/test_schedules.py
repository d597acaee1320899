import functools
import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slln_lab import cli
from slln_lab import schedules as schedules_module
from slln_lab.errors import FieldError, SearchExhausted
from slln_lab.hypotheses import verify_hypotheses
from slln_lab.mixture import MAX_HORIZON
from slln_lab.schedules import (
    _CHUNK,
    _POSITION_SEARCH_CAP,
    MomentSchedule,
    ScheduleForm,
    SparsityMode,
    SparsityPattern,
    build_sparsity,
    _least_integer_reaching,
    _search,
    _targets,
    least_index,
    y_insertion_positions,
)

INV_SQRT_LOG = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
# the least floor_index of each form: 1/ln 2 > 1, and ln ln n / ln n peaks at n = e**e ~ 15.2
LEAST_FLOOR = {ScheduleForm.INV_SQRT_LOG: 3, ScheduleForm.LOGLOG_OVER_LOG: 15, ScheduleForm.CONSTANT: 1,
               ScheduleForm.INV_LOG: 3}


def reference_phi(schedule, c, n):
    """phi_n of the AUTO pattern for c <= 1, one scalar n at a time."""
    target = int(np.ceil(c * np.power(float(n), schedule.value(n))))
    return target - 1 + (1 if c >= 1.0 else 0)


def reference_positions(schedule, c, count):
    """The insert positions by their definition, one k after another.

    From lo_k = pos_{k-1} (lo_1 = 1), hi grows by 4 from max(lo_k, 2) until
    phi(hi) >= k, then the integers of [lo_k, hi] are bisected.
    """
    positions, lo = [], 1
    for k in range(1, count + 1):
        hi = max(lo, 2)
        while reference_phi(schedule, c, hi) < k:
            hi *= 4
            if hi > _POSITION_SEARCH_CAP:
                raise SearchExhausted(f"insert position {k} beyond cap {_POSITION_SEARCH_CAP:.2e}")
        while lo < hi:
            mid = (lo + hi) // 2
            if reference_phi(schedule, c, mid) >= k:
                hi = mid
            else:
                lo = mid + 1
        positions.append(lo)
    return positions


def test_eval_a_frozen_values():
    # direct evaluation: ln 55 = 4.00733..., ln 1e6 = 13.8155...
    assert INV_SQRT_LOG.value(55) == pytest.approx(1.0 / math.sqrt(math.log(55)), abs=1e-15)
    assert INV_SQRT_LOG.value(55) == pytest.approx(0.4996, abs=5e-4)
    assert INV_SQRT_LOG.value(10 ** 6) == pytest.approx(0.26905, abs=5e-5)
    assert MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5).value(10 ** 9) == 0.5


def test_clamping_below_floor():
    for n in (1, 2, 3):
        assert INV_SQRT_LOG.value(n) == INV_SQRT_LOG.value(3)
    loglog = MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG)
    for n in (1, 7, 15, 16):
        assert loglog.value(n) == pytest.approx(loglog.value(16) if n <= 16 else 0, abs=0)


def test_range_and_monotonicity():
    for form in (ScheduleForm.INV_SQRT_LOG, ScheduleForm.LOGLOG_OVER_LOG, ScheduleForm.INV_LOG):
        sched = MomentSchedule(form)
        a = sched.value(np.arange(1, 10 ** 5 + 1))
        assert np.all(a > 0) and np.all(a <= 1.0)
        assert np.all(np.diff(a) <= 0)


@pytest.mark.parametrize("form", [ScheduleForm.INV_SQRT_LOG, ScheduleForm.LOGLOG_OVER_LOG, ScheduleForm.INV_LOG],
                         ids=lambda f: f.value)
def test_least_floor_keeps_a_n_in_range_and_nonincreasing(form):
    # the constructor is the only check, so every schedule it accepts must
    # hold the invariant over the run horizon and up to the 1e9 of
    # infinite_mean_onset's bisection
    schedule = MomentSchedule(form, floor_index=LEAST_FLOOR[form])
    last = 1.0
    for s0 in range(0, MAX_HORIZON, _CHUNK):
        a = schedule.value(np.arange(s0 + 1, min(s0 + _CHUNK, MAX_HORIZON) + 1, dtype=np.float64))
        assert np.all(a > 0.0) and a[0] <= last and np.all(np.diff(a) <= 0.0)
        last = a[-1]
    far = schedule.value(np.array([10 ** 9 - 1, 10 ** 9], dtype=np.float64))
    assert 0.0 < far[1] <= far[0] <= last


@pytest.mark.parametrize("form", list(ScheduleForm), ids=lambda f: f.value)
def test_floor_below_the_least_is_refused(form):
    a = 0.5 if form is ScheduleForm.CONSTANT else None
    MomentSchedule(form, constant_a=a, floor_index=LEAST_FLOOR[form])
    with pytest.raises(FieldError, match=f"^floor_index: floor_index must be an integer >= {LEAST_FLOOR[form]} "):
        MomentSchedule(form, constant_a=a, floor_index=LEAST_FLOOR[form] - 1)


def test_constant_form_validation():
    with pytest.raises(FieldError):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.5)
    with pytest.raises(FieldError):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.0)
    with pytest.raises(FieldError):
        MomentSchedule(ScheduleForm.CONSTANT)
    with pytest.raises(FieldError):
        MomentSchedule(ScheduleForm.INV_SQRT_LOG, constant_a=0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_floor_index_rejects_bools(flag):
    # True would pass as the integer 1 for the CONSTANT form
    with pytest.raises(FieldError, match="floor_index"):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5, floor_index=flag)


def _theorem_entry(entry_id, **changes):
    """One hypothesis entry of theorem.json (AUTO on inv_sqrt_log at c = 1) with ``changes`` to its spec;
    a new horizon clips the checkpoints, as ``slln run --horizon`` does."""
    spec = cli.load_config("theorem.json")
    if "horizon" in changes:
        changes.setdefault("checkpoints", cli._clip_checkpoints(spec.checkpoints, changes["horizon"]))
    return verify_hypotheses(replace(spec, **changes)).entry(entry_id)


def test_growth_first_index():
    # sqrt(ln n) >= 3 first at n = ceil(e^9) = 8104
    entry = _theorem_entry("A_LN_N")
    assert (entry.status, entry.value) == ("PASS", 8104.0)


def test_growth_constant_always_passes():
    # 0.5 * ln n reaches 3 only at n = 404, past the horizon
    entry = _theorem_entry("A_LN_N", schedule=MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), horizon=100)
    assert (entry.status, entry.value) == ("PASS", math.inf)


def test_growth_broken_form_never_reaches():
    # a_n * ln n is identically 1 above the floor
    entry = _theorem_entry("A_LN_N", schedule=MomentSchedule(ScheduleForm.INV_LOG))
    assert (entry.status, entry.value) == ("FAIL", math.inf)
    assert entry.detail == "a_n*ln n never reaches 3.0 on [1, 1000000] (value 1 at horizon)"


def test_build_sparsity_tracks_ceiling():
    # closed form: phi(1e6) = ceil(exp(sqrt(ln 1e6))) = ceil(41.137) = 42
    pattern = build_sparsity(INV_SQRT_LOG, 1.0)
    phi = pattern.phi(10 ** 6)
    assert phi[-1] == 42
    sup = _theorem_entry("INFREQUENCY", pattern=pattern).value
    assert 0.5 <= sup <= 2.0
    assert sup <= 1.0 + 1.0  # c + 1


def test_sparsity_bookkeeping_invariants():
    horizon = 10 ** 4
    for pattern in (
        build_sparsity(INV_SQRT_LOG, 1.0),
        build_sparsity(INV_SQRT_LOG, 0.5),
        build_sparsity(MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), 2.5),
        SparsityPattern(mode=SparsityMode.ALL_ZERO),
        SparsityPattern(mode=SparsityMode.ALL_ONE),
    ):
        alpha = pattern.alpha(horizon)
        phi = pattern.phi(horizon)
        n = np.arange(1, horizon + 1)
        assert np.all((0 <= phi) & (phi <= n))  # phi and n - phi count positions
        assert np.array_equal(np.diff(phi), alpha[1:].astype(np.int64))
        assert set(np.unique(alpha)).issubset({0, 1})
        assert phi[0] == alpha[0]


@st.composite
def schedules(draw):
    """A valid schedule of any form, with or without its own floor index."""
    form = draw(st.sampled_from(ScheduleForm))
    floor_index = draw(st.none() | st.integers(LEAST_FLOOR[form], 40))
    if form is ScheduleForm.CONSTANT:
        return MomentSchedule(form, constant_a=draw(st.floats(0.01, 1.0)), floor_index=floor_index)
    return MomentSchedule(form, floor_index=floor_index)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(schedules(), st.floats(0.01, 20.0), st.integers(1, 3000))
def test_phi_stays_below_its_target(schedule, c, horizon):
    n = np.arange(1, horizon + 1, dtype=np.float64)
    assert np.all(build_sparsity(schedule, c).phi(horizon) <= np.ceil(c * np.power(n, schedule.value(n))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 200), st.none() | st.integers(-2, 300), st.integers(1, 600) | st.just(math.inf))
@example(lo=5, extra=7, threshold=3)  # holds at lo
@example(lo=5, extra=0, threshold=9)  # cap = lo, never holds there
@example(lo=5, extra=0, threshold=5)  # cap = lo, holds there
@example(lo=1, extra=40, threshold=math.inf)  # never holds
@example(lo=1, extra=None, threshold=1)  # no cap, holds at lo = 1
@example(lo=5, extra=-1, threshold=1)  # cap below lo
def test_least_index_is_a_linear_scan(lo, extra, threshold):
    # a threshold predicate n >= threshold; extra None means no cap
    if extra is None and threshold == math.inf:
        return  # a search with no cap for what never holds has no end
    cap = None if extra is None else lo + extra
    asked = []

    def holds(n):
        asked.append(n)
        return n >= threshold

    expected = next((n for n in range(lo, lo + 700 if cap is None else cap + 1) if n >= threshold), None)
    assert least_index(holds, lo, cap) == expected
    assert all(lo <= n and (cap is None or n <= cap) for n in asked)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(schedules(), st.sampled_from([1, 2, 3, 4, 100, 10 ** 4, 10 ** 6]) | st.integers(5, 3 * 10 ** 4))
def test_growth_hit_is_the_first_n_of_a_scan(schedule, horizon):
    # A_LN_N searches, where a scan over [1, span] would take every n
    span = max(horizon, 3)
    n = np.arange(1, span + 1, dtype=np.float64)
    reached = np.flatnonzero(np.log(n) * schedule.value(n) >= 3.0)
    entry = _theorem_entry("A_LN_N", schedule=schedule, horizon=horizon)
    assert entry.value == (reached[0] + 1 if reached.size else math.inf)


def test_ratio_running_max_bounded_by_c_plus_one():
    for c in (0.3, 0.7, 1.0, 2.0, 5.0):
        entry = _theorem_entry("INFREQUENCY", pattern=build_sparsity(INV_SQRT_LOG, c), horizon=10 ** 5)
        assert entry.value <= c + 1.0 + 1e-12


def test_all_one_ratio_grows():
    # n / n**a_n at horizon 1e4: 1e4 / e^{sqrt(ln 1e4)} = 480.84...
    sup = _theorem_entry("INFREQUENCY", pattern=SparsityPattern(mode=SparsityMode.ALL_ONE), horizon=10 ** 4).value
    expected = 10 ** 4 / math.exp(math.sqrt(math.log(10 ** 4)))
    assert sup == pytest.approx(expected, rel=1e-9)
    assert sup == pytest.approx(481, abs=1.0)


def test_all_zero_ratio_is_zero():
    pattern = SparsityPattern(mode=SparsityMode.ALL_ZERO)
    assert _theorem_entry("INFREQUENCY", pattern=pattern, horizon=10 ** 4).value == 0.0


def test_constant_one_dense_pattern():
    sched = MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0)
    pattern = build_sparsity(sched, 1.0)
    phi = pattern.phi(1000)
    assert np.array_equal(phi, np.arange(1, 1001))
    ratios = phi / np.arange(1, 1001, dtype=float) ** 1.0
    assert np.allclose(ratios, 1.0)


def test_first_insert_convention():
    # c >= 1 inserts at n=1; c < 1 waits for the first ceiling increment
    assert build_sparsity(INV_SQRT_LOG, 1.0).alpha(10)[0] == 1
    half = build_sparsity(INV_SQRT_LOG, 0.5)
    alpha = half.alpha(100)
    assert alpha[0] == 0
    assert alpha.sum() > 0


# --- passes cut into chunks: each carries its state across chunk boundaries ----

CHUNK_EDGES = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)
FORMS = (INV_SQRT_LOG, MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), MomentSchedule(ScheduleForm.INV_LOG),
         MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5))


@pytest.mark.parametrize("horizon", CHUNK_EDGES)
@pytest.mark.parametrize("schedule", FORMS, ids=lambda s: s.form.value)
@pytest.mark.parametrize("c", (0.3, 1.0, 2.5))
def test_auto_alpha_matches_the_whole_array_oracle(horizon, schedule, c):
    n = np.arange(1, horizon + 1, dtype=np.float64)
    oracle = np.empty(horizon, dtype=np.uint8)
    oracle[0] = c >= 1.0
    oracle[1:] = np.diff(np.ceil(c * np.power(n, schedule.value(n)))) > 0
    assert np.array_equal(build_sparsity(schedule, c).alpha(horizon), oracle)


@pytest.mark.parametrize("pattern", [
    SparsityPattern(mode=SparsityMode.ALL_ONE),
    # the sup is reached in the first chunk, past the decade index, and must survive the later chunks
    SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1,) * 40_000 + (0,) * (3 * _CHUNK + 5 - 40_000)),
    # the one insert, and so the sup, at the first index past the decade index
    SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(0,) * 19_661 + (1,) + (0,) * (3 * _CHUNK + 5 - 19_662)),
], ids=["all_one", "front_loaded", "insert_past_the_decade"])
def test_infrequency_across_chunks_matches_the_whole_array_oracle(pattern):
    horizon = 3 * _CHUNK + 5
    n = np.arange(1, horizon + 1, dtype=np.float64)
    running = np.maximum.accumulate(pattern.phi(horizon) / np.power(n, INV_SQRT_LOG.value(n)))
    new_max = bool(running[-1] > running[horizon // 10 - 1])
    entry = _theorem_entry("INFREQUENCY", pattern=pattern, horizon=horizon, checkpoints=(horizon,))
    assert entry.value == running[-1]
    assert entry.detail.endswith(f"(new max in last decade: {new_max})")


def test_growth_first_index_past_the_first_chunks():
    # 0.25 * ln n reaches 3 first at n = ceil(e^12) = 162755, in the third chunk
    schedule = MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.25)
    entry = _theorem_entry("A_LN_N", schedule=schedule, pattern=build_sparsity(schedule, 1.0))
    assert (entry.status, entry.value) == ("PASS", 162755.0)


def test_alpha_peak_memory_is_chunk_sized():
    # a whole-horizon float64 temporary would take 7.6 MiB at 1e6
    pattern = build_sparsity(INV_SQRT_LOG, 1.0)
    tracemalloc.start()
    try:
        pattern.alpha(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_insertion_positions_match_scan():
    horizon = 2 * 10 ** 5
    for c in (1.0, 0.5):
        pattern = build_sparsity(INV_SQRT_LOG, c)
        scan = list(np.nonzero(pattern.alpha(horizon))[0] + 1)
        positions = y_insertion_positions(INV_SQRT_LOG, c, len(scan))
        assert positions == scan


def test_insertion_positions_strictly_increasing_far_out():
    positions = y_insertion_positions(INV_SQRT_LOG, 1.0, 200)
    assert all(b > a for a, b in zip(positions, positions[1:]))
    # the k-th insert sits near exp((ln k)^2)
    assert positions[199] > 10 ** 10


@pytest.mark.parametrize("schedule, c, count", [
    (INV_SQRT_LOG, 1.0, 1500),  # passes 2**53 near k = 429
    (INV_SQRT_LOG, 0.5, 1500),
    (INV_SQRT_LOG, 0.3, 1500),
    (MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), 1.0, 200),
    (MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0), 1.0, 300),
    (MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0), 0.5, 300),
    (MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), 1.0, 300),
    (MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), 0.5, 300),
], ids=["inv_sqrt_log-1", "inv_sqrt_log-0.5", "inv_sqrt_log-0.3", "loglog_over_log-1",
        "constant_1-1", "constant_1-0.5", "constant_0.5-1", "constant_0.5-0.5"])
def test_insertion_positions_match_reference(schedule, c, count):
    positions = y_insertion_positions(schedule, c, count)
    assert positions == reference_positions(schedule, c, count)
    assert all(type(p) is int for p in positions)


def test_insertion_position_where_phi_is_not_monotone():
    # phi steps from 319 to 320 at both of these n; the sequential bisection
    # lands on the first
    first, second = 272164683111954, 272164683111956
    for n in (first, second):
        assert reference_phi(INV_SQRT_LOG, 1.0, n - 1) == 319
        assert reference_phi(INV_SQRT_LOG, 1.0, n) == 320
    assert y_insertion_positions(INV_SQRT_LOG, 1.0, 320)[-1] == first


def test_insertion_positions_cap():
    inv_log = MomentSchedule(ScheduleForm.INV_LOG)  # phi stays at 3
    assert y_insertion_positions(inv_log, 1.0, 3) == reference_positions(inv_log, 1.0, 3)
    with pytest.raises(SearchExhausted, match="^insert position 4 beyond cap 1.00e\\+280$"):
        y_insertion_positions(inv_log, 1.0, 4)
    with pytest.raises(SearchExhausted, match="^insert position 4 beyond cap"):
        reference_positions(inv_log, 1.0, 4)
    assert y_insertion_positions(INV_SQRT_LOG, 1.0, 0) == []


def test_insertion_positions_refuse_a_negative_count():
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        y_insertion_positions(INV_SQRT_LOG, 1.0, -1)


def test_insertion_positions_cap_only_from_the_final_start():
    # pos_2 ~ 4.8e279: grown by 4 from 2 it is missed (2 * 4**464 ~ 4.5e279,
    # then past the cap), but from pos_1 ~ 2.4e279 it is found; pos_3 is not
    dense = MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0)
    c = 4.2e-280
    assert y_insertion_positions(dense, c, 2) == reference_positions(dense, c, 2)
    with pytest.raises(SearchExhausted, match="^insert position 3 beyond cap"):
        y_insertion_positions(dense, c, 3)
    with pytest.raises(SearchExhausted, match="^insert position 3 beyond cap"):
        reference_positions(dense, c, 3)


def test_weighted_series_positions_are_pinned():
    # the positions the weighted-series benchmark sums over (its reference
    # sha256), so a search change that moves one fails here too
    positions = y_insertion_positions(INV_SQRT_LOG, 1.0, 10 ** 4)
    assert len(positions) == 10 ** 4
    digest = hashlib.sha256(repr(positions).encode()).hexdigest()
    assert digest == "703a5b1b16822bf559f3572cfdf446969d72021715cb36c4402bd115f71148a4"


@functools.cache
def reference_prefix(schedule, c, count):
    """reference_positions, with the cap standing in for the positions from
    the first exhausted search on."""
    for found in range(count, -1, -1):
        try:
            return reference_positions(schedule, c, found) + [_POSITION_SEARCH_CAP] * (count - found)
        except SearchExhausted:
            pass


BAD_ESTIMATES = {
    "ones": lambda schedule, c, count: [1] * count,
    "true_plus_one": lambda schedule, c, count: [p + 1 for p in reference_prefix(schedule, c, count)],
    "past_the_cap": lambda schedule, c, count: [4 * _POSITION_SEARCH_CAP + 1] * count,
}


@pytest.mark.parametrize("bad", BAD_ESTIMATES, ids=list(BAD_ESTIMATES))
def test_estimates_do_not_change_the_positions(monkeypatch, bad):
    def estimates(schedule, c, need):
        return np.array(BAD_ESTIMATES[bad](schedule, c, need.size), dtype=object)

    dense = MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0)
    inv_log = MomentSchedule(ScheduleForm.INV_LOG)
    found = [reference_prefix(INV_SQRT_LOG, c, 500) for c in (1.0, 0.5)]
    monkeypatch.setattr(schedules_module, "_estimates", estimates)
    assert [y_insertion_positions(INV_SQRT_LOG, c, 500) for c in (1.0, 0.5)] == found
    assert y_insertion_positions(dense, 4.2e-280, 2) == reference_positions(dense, 4.2e-280, 2)
    with pytest.raises(SearchExhausted, match="^insert position 4 beyond cap 1.00e\\+280$"):
        y_insertion_positions(inv_log, 1.0, 4)
    with pytest.raises(SearchExhausted, match="^insert position 3 beyond cap 1.00e\\+280$"):
        y_insertion_positions(dense, 4.2e-280, 3)


def test_least_integer_reaching_rounds_up_to_the_float():
    # past 2**53 a tie at the midpoint to the float below rounds to the
    # even significand: 2**53 + 1 goes down, 2**53 + 3 goes up
    for f in (1.0, 2.5, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 + 4, 2.0 ** 54, 2.0 ** 54 + 4,
              3.0e20, 1.0e279):
        m = _least_integer_reaching(f)
        assert type(m) is int and float(m) >= f > float(m - 1)


def reference_search(schedule, c, need, lo):
    """One search of ``_search`` by the plain integer bisection, with no
    finish: the first n found from ``lo`` with target_n >= ``need``, or 0
    past the cap.  Also says how ``_search`` finishes it, at the first step
    where its lower bound flo on float(lo) is float(hi) or the float below:
    one cell or two cells with reached(lo) end at lo, two cells without it
    at hi's cell."""
    def reached(n):
        return _targets(schedule, c, np.float64(n)) >= need

    hi = max(lo, 2)
    while not reached(hi):
        hi *= 4
        if hi > _POSITION_SEARCH_CAP:
            return 0, None
    flo, finish = float(lo), None
    while lo < hi:
        mid = (lo + hi) // 2
        if reached(mid):
            hi = mid
        else:
            lo, flo = mid + 1, float(mid)
        if finish is None and lo < hi and math.nextafter(flo, math.inf) >= float(hi):
            finish = "one cell" if float(lo) == float(hi) else "at lo" if reached(lo) else "hi's cell"
    return lo, finish


def test_search_finish_matches_the_plain_bisection():
    # random lo in [2**60, 2**200), and a third in [2**53, 2**60), and need
    # 0-3 counts above target(lo); at 0, hi starts at lo.  hi otherwise
    # starts at 4**j * lo, 2j binades above it, so the two never start in one
    # rounding cell: the one-cell case is a finish reached by bisecting, when
    # lo = mid + 1 lands on the first integer of hi's cell.  That is common
    # only where a cell holds few integers, hence the lo below 2**60.
    # inv_log at c = 2/e puts c * n**a_n at 2 give or take rounding, so its
    # target is not monotone.  No finish sees two cells with reached(lo):
    # lo = mid + 1 with mid not reached, so a reached lo is a cell above
    # flo = float(mid).
    rng = random.Random(0)
    finishes = set()
    for schedule, c in [
        (INV_SQRT_LOG, 1.0),
        (INV_SQRT_LOG, 0.5),
        (MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), 1.0),
        (MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG), 0.3),
        (MomentSchedule(ScheduleForm.INV_LOG), 1.0),
        (MomentSchedule(ScheduleForm.INV_LOG), 2 / math.e),
    ]:
        bits = rng.choices(range(61, 201), k=100) + rng.choices(range(54, 61), k=50)
        lo = [2 ** (b - 1) + rng.getrandbits(b - 1) for b in bits]
        need = [float(_targets(schedule, c, np.float64(n))) + rng.randint(0, 3) for n in lo]
        found = _search(schedule, c, np.array(need), np.array(lo, dtype=object))
        expected = [reference_search(schedule, c, k, n) for k, n in zip(need, lo)]
        assert found.tolist() == [n for n, _ in expected]
        finishes.update(finish for _, finish in expected)
    assert finishes == {None, "one cell", "hi's cell"}

def outcome(search, schedule, c, count):
    try:
        return search(schedule, c, count)
    except SearchExhausted as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(schedules(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 300))
def test_insertion_positions_are_the_sequential_search(schedule, c, count):
    assert outcome(y_insertion_positions, schedule, c, count) == outcome(reference_positions, schedule, c, count)


def _assert_targets_elementwise(schedule, c, n):
    array = _targets(schedule, c, n)
    single = np.array([_targets(schedule, c, np.asarray(x)) for x in n])
    assert array.tobytes() == single.tobytes()
    scalar = np.array([np.ceil(c * np.power(float(x), schedule.value(float(x)))) for x in n])
    assert array.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("schedule", [
    INV_SQRT_LOG,
    MomentSchedule(ScheduleForm.LOGLOG_OVER_LOG),
    MomentSchedule(ScheduleForm.INV_LOG),
    MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.0),
    MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.25),
], ids=["inv_sqrt_log", "loglog_over_log", "inv_log", "constant_1", "constant_0.25"])
def test_targets_array_matches_elementwise(schedule):
    # the lockstep search evaluates arrays where a k-by-k search would
    # evaluate one n at a time: the two must give the same bits
    rng = np.random.default_rng(5)
    n = np.concatenate([
        np.floor(np.exp(rng.uniform(0.0, np.log(1e280), 1500))),
        2.0 ** 53 + np.arange(-50, 50),
        np.arange(1.0, 101.0),
    ])
    for c in (1.0, 0.3):
        _assert_targets_elementwise(schedule, c, n)


def test_targets_square_root_elementwise():
    # numpy computes a 0-d power with exponent 0.5 as a square root, which
    # can differ from the array power by one unit in the last place; below
    # 2**50 the ceiling of an integer's root absorbs that for c in {1, 0.5}
    schedule = MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5)
    rng = np.random.default_rng(5)
    n = np.concatenate([
        np.floor(np.exp(rng.uniform(0.0, np.log(2.0 ** 50), 1500))),
        np.add.outer(np.arange(2.0, 1001.0) ** 2, [-1.0, 0.0, 1.0]).ravel(),
    ])
    for c in (1.0, 0.5):
        _assert_targets_elementwise(schedule, c, n)


def test_insertion_positions_require_small_c():
    with pytest.raises(ValueError):
        y_insertion_positions(INV_SQRT_LOG, 2.0, 5)


def test_explicit_pattern():
    pattern = SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0, 0, 1, 0))
    assert np.array_equal(pattern.alpha(5), np.array([1, 0, 0, 1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        pattern.alpha(6)
