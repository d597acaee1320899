import concurrent.futures
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slln_lab import cli, diagnostics
from slln_lab.diagnostics import (
    MAX_THREADS,
    ConvergenceReport,
    Verdict,
    run_ensemble,
    suffix_sup,
    verdict,
)
from slln_lab.errors import ConfigError
from slln_lab.generators import DependenceMode, TailEnvelope, XFamily
from slln_lab.mixture import ExperimentSpec, run_path
from slln_lab.schedules import MomentSchedule, ScheduleForm, SparsityMode, SparsityPattern


def pure_x_config(x_family, horizon, seed=0, **ensemble):
    return ExperimentSpec(
        x_family=x_family,
        envelope=TailEnvelope.pareto(2.0),
        dependence=DependenceMode.INDEPENDENT,
        schedule=MomentSchedule(ScheduleForm.INV_SQRT_LOG),
        pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO),
        horizon=horizon,
        seed=seed,
        **ensemble,
    )


# --- suffix sup ------------------------------------------------------------------

def test_suffix_sup_hand_example():
    assert np.array_equal(suffix_sup(np.array([3.0, 1.0, 2.0]), [1, 2, 3]), [3.0, 2.0, 2.0])


def test_suffix_sup_constant_buffer():
    assert np.array_equal(suffix_sup(np.full(10, 0.7), [1, 5, 10]), [0.7, 0.7, 0.7])


def test_suffix_sup_strictly_decreasing_buffer():
    buf = np.linspace(5.0, 1.0, 20)
    d = suffix_sup(buf, [1, 7, 20])
    assert np.array_equal(d, buf[[0, 6, 19]])


def test_suffix_sup_validation():
    with pytest.raises(ValueError):
        suffix_sup(np.array([1.0]), [0])
    with pytest.raises(ValueError):
        suffix_sup(np.array([1.0]), [2])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_suffix_sup_matches_brute_force(data):
    buf = np.array(data.draw(st.lists(st.floats(), min_size=1, max_size=40)))
    cps = data.draw(st.lists(st.integers(1, buf.size), max_size=10))  # any order, duplicates
    expected = [np.max(buf[n - 1:]) for n in cps]  # np.max propagates NaN
    np.testing.assert_array_equal(suffix_sup(buf, cps), np.array(expected, dtype=np.float64))


def test_deviation_sup_nonincreasing_on_real_path():
    checkpoints = (10, 100, 1000, 5000)
    summary = run_path(pure_x_config(XFamily.uniform(1.0), 5000, checkpoints=checkpoints), checkpoints)
    assert np.all(np.diff(summary.deviation_sup) <= 0)
    assert abs(summary.final_avg) <= summary.deviation_sup[0]


# --- verdict rules ------------------------------------------------------------------

def _report(median, frac_final, eps=0.05):
    median = np.asarray(median, dtype=np.float64)
    k = median.size
    frac = np.zeros(k)
    frac[-1] = frac_final
    return ConvergenceReport(
        checkpoints=np.arange(1, k + 1),
        n_paths=10,
        horizon=100,
        master_seed=0,
        epsilons=(eps,),
        median=median,
        q90=median,
        q99=median,
        fractions_above={eps: frac},
        d_matrix=np.tile(median, (10, 1)),
    )


def test_verdict_all_zero_convergent():
    assert verdict(_report([0.0, 0.0, 0.0], 0.0), 0.05, 0.1) is Verdict.CONVERGENT


def test_verdict_doubling_inconclusive():
    # no ensemble has a rising median (D never increases along a path), and
    # only a non-finite final median reads DIVERGENT
    assert verdict(_report([0.1, 0.2, 0.4], 1.0), 0.05, 0.1) is Verdict.INCONCLUSIVE


def test_verdict_flat_nonzero_inconclusive():
    assert verdict(_report([0.3, 0.3, 0.3], 1.0), 0.05, 0.1) is Verdict.INCONCLUSIVE


def test_verdict_decreasing_but_fraction_too_high():
    assert verdict(_report([0.4, 0.2, 0.1], 0.5), 0.05, 0.1) is Verdict.INCONCLUSIVE


def test_verdict_decreasing_and_fraction_low():
    assert verdict(_report([0.4, 0.2, 0.1], 0.05), 0.05, 0.1) is Verdict.CONVERGENT


def test_verdict_requires_tracked_epsilon():
    with pytest.raises(ValueError):
        verdict(_report([0.1, 0.1, 0.1], 0.0), 0.123, 0.1)


# --- ensembles ------------------------------------------------------------------------

def test_smallest_ensemble_order_statistics():
    config = pure_x_config(XFamily.uniform(1.0), 10, n_paths=2, checkpoints=(5, 10))
    report = run_ensemble(config)
    d = report.d_matrix
    assert d.shape == (2, 2)
    # nearest-rank quantiles of two values: median is the smaller, q90 the larger
    assert np.array_equal(report.median, np.min(d, axis=0))
    assert np.array_equal(report.q90, np.max(d, axis=0))
    with pytest.raises(ConfigError, match="n_paths"):  # refused when built, before any path runs
        dataclasses.replace(config, n_paths=1)


def test_ensemble_uniform_median_small():
    # LIL scale sqrt(2 sigma^2 ln ln n / n) ~ 0.003 at n = 5e4; 0.01 is slack
    config = pure_x_config(XFamily.uniform(1.0), 10 ** 5, n_paths=100, checkpoints=(5 * 10 ** 4, 10 ** 5))
    report = run_ensemble(config)
    assert report.median[0] < 0.01


def test_ensemble_deterministic_across_workers():
    ensemble = dict(n_paths=12, checkpoints=(10 ** 3, 10 ** 4, 2 * 10 ** 4))
    pure = pure_x_config(XFamily.parity(4), 2 * 10 ** 4, seed=3, epsilons=(0.05, 0.02),
                         epsilon_target=0.05, fraction_target=0.1, **ensemble)

    def fixture(name, **changes):
        return dataclasses.replace(cli.load_config(name), seed=3, horizon=2 * 10 ** 4, **ensemble, **changes)

    theorem = fixture("theorem.json")
    # every index an insert, and sparse independent inserts: both draw
    # their heavy values through each process's workspace
    dense = fixture("violate-sparsity.json")
    mixed = fixture("theorem.json", dependence=DependenceMode.INDEPENDENT)
    assert np.all(dense.pattern.alpha(dense.horizon) == 1)
    assert mixed.pattern.mode is SparsityMode.AUTO
    # fewer paths than threads: one pool worker per path
    pair = dataclasses.replace(theorem, n_paths=2)
    for spec in (pure, theorem, dense, mixed, pair):
        seq = run_ensemble(spec, threads=1)
        par = run_ensemble(spec, threads=3)
        assert np.array_equal(seq.median, par.median)
        assert np.array_equal(seq.q99, par.q99)
        assert np.array_equal(seq.d_matrix, par.d_matrix)
        assert seq.verdict is par.verdict


def test_ensemble_leaves_spec_unchanged():
    # the spec is a plain value: what a run reuses lives in its workspace
    spec = dataclasses.replace(cli.load_config("theorem.json"), horizon=2 * 10 ** 4, n_paths=4,
                               checkpoints=(10 ** 3, 2 * 10 ** 4))
    before = pickle.dumps(spec)
    for threads in (1, 2):
        run_ensemble(spec, threads=threads)
        assert pickle.dumps(spec) == before


@pytest.mark.parametrize("threads", [0, -2])
def test_ensemble_rejects_threads_below_one(monkeypatch, threads):
    spec = pure_x_config(XFamily.shifted_exp(1.0), 5000, n_paths=4, checkpoints=(5000,))
    ran = []
    monkeypatch.setattr(diagnostics, "_run_paths", lambda spec, indices: ran.append(indices))
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        run_ensemble(spec, threads=threads)
    assert ran == []


def test_ensemble_rejects_threads_above_the_cap(monkeypatch):
    spec = pure_x_config(XFamily.shifted_exp(1.0), 5000, n_paths=4, checkpoints=(5000,))

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(diagnostics, "_run_paths", no_pool)
    for threads in (MAX_THREADS + 1, 10 ** 30):
        with pytest.raises(ValueError, match=f"^threads must be at most {MAX_THREADS}, got {threads}$"):
            run_ensemble(spec, threads=threads)


def test_ensemble_repeatable():
    config = pure_x_config(XFamily.shifted_exp(1.0), 5000, seed=11, n_paths=5, checkpoints=(5000,))
    a = run_ensemble(config)
    b = run_ensemble(config)
    assert np.array_equal(a.d_matrix, b.d_matrix)


def test_scale_equivariance():
    # doubling the half width doubles every draw exactly (powers of two are
    # exact in floats), hence every average and every suffix sup
    ensemble = dict(seed=5, n_paths=6, checkpoints=(100, 3000))
    base = run_ensemble(pure_x_config(XFamily.uniform(1.0), 3000, **ensemble))
    wide = run_ensemble(pure_x_config(XFamily.uniform(2.0), 3000, **ensemble))
    assert np.array_equal(wide.d_matrix, 2.0 * base.d_matrix)
    # verdicts at rescaled epsilon are identical
    frac_base = (base.d_matrix[:, -1] > 0.01).mean()
    frac_wide = (wide.d_matrix[:, -1] > 0.02).mean()
    assert frac_base == frac_wide


def test_x_part_experiment_parity_converges():
    report = run_ensemble(dataclasses.replace(
        cli.load_config("pure-x.json"), x_family=XFamily.parity(4), horizon=10 ** 5, n_paths=50,
        checkpoints=(10 ** 3, 10 ** 4, 10 ** 5),
    ))
    assert report.verdict is Verdict.CONVERGENT
    assert report.fractions_above[0.02][-1] < 0.05


def test_x_part_experiment_single_bit_blocks():
    # block_bits=1 degenerates to iid signs: the classical strong law case
    report = run_ensemble(dataclasses.replace(
        cli.load_config("pure-x.json"), x_family=XFamily.parity(1), horizon=5 * 10 ** 4, n_paths=30,
        checkpoints=(10 ** 3, 10 ** 4, 5 * 10 ** 4),
    ))
    assert report.verdict is Verdict.CONVERGENT


def test_prefix_drop_is_deterministic():
    # a fixed finite prefix cannot affect the averages: |sum of first n0| / n -> 0
    from slln_lab.rng import Channel, StreamKey, derive_stream

    draws = XFamily.parity(4).sample_block(100, derive_stream(StreamKey(0, 0, Channel.X)))
    prefix = float(np.abs(draws.sum()))
    assert prefix / 10 ** 4 <= 100 / 10 ** 4
    assert prefix / 10 ** 6 < 1e-4


def test_report_serialization():
    config = pure_x_config(XFamily.uniform(1.0), 100, seed=2, n_paths=3, checkpoints=(10, 100),
                           epsilons=(0.05,), epsilon_target=0.05, fraction_target=0.1)
    report = run_ensemble(config)
    payload = report.to_dict()
    assert payload["checkpoints"] == [10, 100]
    assert payload["verdict"] in {"CONVERGENT", "INCONCLUSIVE", "DIVERGENT"}
    assert len(payload["median_D"]) == 2
