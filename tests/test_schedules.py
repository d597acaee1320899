import math

import numpy as np
import pytest

from slln_lab.errors import ScheduleRejected
from slln_lab.schedules import (
    MomentSchedule,
    ScheduleForm,
    SparsityMode,
    SparsityPattern,
    build_sparsity,
    sparsity_ratio_sup,
    validate_schedule,
    y_insertion_positions,
)

INV_SQRT_LOG = MomentSchedule(ScheduleForm.INV_SQRT_LOG)


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
    pattern = build_sparsity(INV_SQRT_LOG, 1.0, 10 ** 6)
    phi = pattern.phi(10 ** 6)
    assert phi[-1] == 42
    sup = sparsity_ratio_sup(pattern, INV_SQRT_LOG, 10 ** 6)
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


def test_sparsity_ratio_sup_bounded_by_c_plus_one():
    for c in (0.3, 0.7, 1.0, 2.0, 5.0):
        pattern = build_sparsity(INV_SQRT_LOG, c)
        assert sparsity_ratio_sup(pattern, INV_SQRT_LOG, 10 ** 5) <= c + 1.0 + 1e-12


def test_all_one_ratio_grows():
    # n / n**a_n at horizon 1e4: 1e4 / e^{sqrt(ln 1e4)} = 480.84...
    pattern = SparsityPattern(mode=SparsityMode.ALL_ONE)
    sup = sparsity_ratio_sup(pattern, INV_SQRT_LOG, 10 ** 4)
    expected = 10 ** 4 / math.exp(math.sqrt(math.log(10 ** 4)))
    assert sup == pytest.approx(expected, rel=1e-9)
    assert sup == pytest.approx(481, abs=1.0)


def test_all_zero_ratio_is_zero():
    pattern = SparsityPattern(mode=SparsityMode.ALL_ZERO)
    assert sparsity_ratio_sup(pattern, INV_SQRT_LOG, 10 ** 4) == 0.0


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


def test_insertion_positions_require_small_c():
    with pytest.raises(ValueError):
        y_insertion_positions(INV_SQRT_LOG, 2.0, 5)


def test_explicit_pattern():
    pattern = SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0, 0, 1, 0))
    assert np.array_equal(pattern.alpha(5), np.array([1, 0, 0, 1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        pattern.alpha(6)
