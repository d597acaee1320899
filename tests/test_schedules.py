import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slln_lab.errors import ScheduleRejected, SearchExhausted
from slln_lab.schedules import (
    _POSITION_SEARCH_CAP,
    MomentSchedule,
    ScheduleForm,
    SparsityMode,
    SparsityPattern,
    build_sparsity,
    ratio_running_max,
    validate_schedule,
    _targets,
    y_insertion_positions,
)

INV_SQRT_LOG = MomentSchedule(ScheduleForm.INV_SQRT_LOG)


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


def test_constant_form_validation():
    with pytest.raises(ScheduleRejected):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=1.5)
    with pytest.raises(ScheduleRejected):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.0)
    with pytest.raises(ScheduleRejected):
        MomentSchedule(ScheduleForm.CONSTANT)
    with pytest.raises(ScheduleRejected):
        MomentSchedule(ScheduleForm.INV_SQRT_LOG, constant_a=0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_floor_index_rejects_bools(flag):
    # True would pass as the integer 1 for the CONSTANT form
    with pytest.raises(ScheduleRejected, match="floor_index"):
        MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5, floor_index=flag)


def test_growth_first_index():
    # sqrt(ln n) >= 3 first at n = ceil(e^9) = 8104
    report = validate_schedule(INV_SQRT_LOG, 10 ** 6, growth_target=3.0)
    assert report.growth_ok
    assert report.first_index_reaching == 8104


def test_growth_constant_always_passes():
    report = validate_schedule(MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), 100, growth_target=50.0)
    assert report.growth_ok


def test_growth_broken_form_never_reaches():
    # a_n * ln n is identically 1 above the floor
    report = validate_schedule(MomentSchedule(ScheduleForm.INV_LOG), 10 ** 6, growth_target=2.0)
    assert not report.growth_ok
    assert report.first_index_reaching is None
    assert report.value_at_horizon == pytest.approx(1.0, abs=1e-12)


def test_build_sparsity_tracks_ceiling():
    # closed form: phi(1e6) = ceil(exp(sqrt(ln 1e6))) = ceil(41.137) = 42
    pattern = build_sparsity(INV_SQRT_LOG, 1.0)
    phi = pattern.phi(10 ** 6)
    assert phi[-1] == 42
    sup = ratio_running_max(pattern, INV_SQRT_LOG, 10 ** 6)[-1]
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
        psi = pattern.psi(horizon)
        n = np.arange(1, horizon + 1)
        assert np.array_equal(phi + psi, n)
        assert np.array_equal(np.diff(phi), alpha[1:].astype(np.int64))
        assert set(np.unique(alpha)).issubset({0, 1})
        assert phi[0] == alpha[0]


@st.composite
def schedules(draw):
    """A valid schedule of any form, with or without its own floor index."""
    form = draw(st.sampled_from(ScheduleForm))
    if form is ScheduleForm.CONSTANT:
        return MomentSchedule(form, constant_a=draw(st.floats(0.01, 1.0)),
                              floor_index=draw(st.none() | st.integers(1, 40)))
    return MomentSchedule(form, floor_index=draw(st.none() | st.integers(3, 40)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(schedules(), st.floats(0.01, 20.0), st.integers(1, 3000))
def test_phi_stays_below_its_target(schedule, c, horizon):
    n = np.arange(1, horizon + 1, dtype=np.float64)
    assert np.all(build_sparsity(schedule, c).phi(horizon) <= np.ceil(c * np.power(n, schedule.value(n))))


def test_ratio_running_max_bounded_by_c_plus_one():
    for c in (0.3, 0.7, 1.0, 2.0, 5.0):
        pattern = build_sparsity(INV_SQRT_LOG, c)
        assert ratio_running_max(pattern, INV_SQRT_LOG, 10 ** 5)[-1] <= c + 1.0 + 1e-12


def test_all_one_ratio_grows():
    # n / n**a_n at horizon 1e4: 1e4 / e^{sqrt(ln 1e4)} = 480.84...
    pattern = SparsityPattern(mode=SparsityMode.ALL_ONE)
    sup = ratio_running_max(pattern, INV_SQRT_LOG, 10 ** 4)[-1]
    expected = 10 ** 4 / math.exp(math.sqrt(math.log(10 ** 4)))
    assert sup == pytest.approx(expected, rel=1e-9)
    assert sup == pytest.approx(481, abs=1.0)


def test_all_zero_ratio_is_zero():
    pattern = SparsityPattern(mode=SparsityMode.ALL_ZERO)
    assert ratio_running_max(pattern, INV_SQRT_LOG, 10 ** 4)[-1] == 0.0


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
