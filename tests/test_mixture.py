import dataclasses

import numpy as np
import pytest

from slln_lab import mixture
from slln_lab.diagnostics import PathSummary
from slln_lab.errors import ConfigError
from slln_lab.generators import DependenceMode, TailEnvelope, XFamily
from slln_lab.mixture import (
    MAX_HORIZON,
    ExperimentSpec,
    PathState,
    derive_path_streams,
    next_z,
    run_path,
)
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import MomentSchedule, ScheduleForm, SparsityMode, SparsityPattern, build_sparsity

SCHED = MomentSchedule(ScheduleForm.INV_SQRT_LOG)


def make_config(pattern=None, x_family=None, dependence=DependenceMode.INDEPENDENT,
                horizon=500, seed=9, **kw):
    kw.setdefault("checkpoints", (horizon,))
    return ExperimentSpec(
        x_family=x_family or XFamily.uniform(1.0),
        envelope=TailEnvelope.pareto(2.0),
        dependence=dependence,
        schedule=SCHED,
        pattern=pattern or build_sparsity(SCHED, 1.0),
        horizon=horizon,
        seed=seed,
        **kw,
    )


def stream_whole_path(config):
    state = PathState()
    streams = derive_path_streams(config.seed, config.path_index)
    values = []
    while state.n < config.horizon:
        z, state = next_z(state, config, streams)
        values.append(z)
    return np.array(values), state


def test_all_zero_pattern_is_pure_x():
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO), horizon=1000)
    values, _ = stream_whole_path(config)
    direct = XFamily.uniform(1.0).sample_block(
        1000, derive_stream(StreamKey(9, 0, Channel.X))
    )
    assert np.array_equal(values, direct)


def test_all_one_pattern_is_pure_y():
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ONE), horizon=200)
    values, state = stream_whole_path(config)
    assert state.insert_count == 200
    assert state.other_count == 0
    assert np.all(values >= 1.0)  # heavy draws sit above the envelope support start


def test_explicit_pattern_unrolls():
    pattern = SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0, 0, 1))
    config = make_config(pattern=pattern, horizon=4)
    values, state = stream_whole_path(config)
    assert state.insert_count == 2
    assert state.other_count == 2
    x_direct = XFamily.uniform(1.0).sample_block(2, derive_stream(StreamKey(9, 0, Channel.X)))
    assert values[1] == x_direct[0]  # first non-insert consumes the first draw
    assert values[2] == x_direct[1]
    assert values[0] >= 1.0 and values[3] >= 1.0


def summary_from_stream(config, checkpoints):
    """The PathSummary of one path, from the next_z stream and by brute force."""
    state = PathState()
    streams = derive_path_streams(config.seed, config.path_index)
    values, averages = [], []
    while state.n < config.horizon:
        z, state = next_z(state, config, streams)
        values.append(z)
        averages.append(state.total / state.n)
    return values, PathSummary(
        path_index=config.path_index,
        horizon=config.horizon,
        checkpoints=np.asarray(checkpoints),
        running_avg=np.array([averages[c - 1] for c in checkpoints]),
        deviation_sup=np.array([max(abs(a) for a in averages[c - 1:]) for c in checkpoints]),
        insert_count=state.insert_count,
        max_abs_value=max(abs(z) for z in values),
        final_avg=state.total / config.horizon,
    )


def test_streaming_matches_vectorized_bitwise():
    explicit = tuple(int(b) for b in np.random.default_rng(4).random(300) < 0.3)
    patterns = (build_sparsity(SCHED, 3.0), SparsityPattern(mode=SparsityMode.ALL_ZERO),
                SparsityPattern(mode=SparsityMode.ALL_ONE),
                SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=explicit))
    checkpoints = [1, 10, 299, 300]
    for pattern in patterns:
        for fam in (XFamily.uniform(1.0), XFamily.shifted_exp(1.0), XFamily.parity(4),
                    XFamily.pareto_centered(2.0)):
            for dep in (DependenceMode.INDEPENDENT, DependenceMode.COMONOTONE):
                config = make_config(pattern=pattern, x_family=fam, dependence=dep, horizon=300)
                values, expected = summary_from_stream(config, checkpoints)
                vec_values, _ = mixture._emit_values(config)
                assert np.array_equal(values, vec_values)
                got = dataclasses.asdict(run_path(config, checkpoints))
                for field, want in dataclasses.asdict(expected).items():
                    assert np.array_equal(got[field], want), field


def test_schedule_evaluated_at_inserts_only(monkeypatch):
    points = []
    value = MomentSchedule.value

    def counted(self, n):
        points.append(np.size(n))
        return value(self, n)

    monkeypatch.setattr(MomentSchedule, "value", counted)
    for pattern in (build_sparsity(SCHED, 1.0), SparsityPattern(mode=SparsityMode.ALL_ZERO),
                    SparsityPattern(mode=SparsityMode.ALL_ONE)):
        config = make_config(pattern=pattern, horizon=10 ** 5)
        config.pattern.insert_indices(config.horizon)  # built once per ensemble, not per path
        points.clear()
        summary = run_path(config, [10 ** 5])
        assert sum(points) == summary.insert_count


def test_resummation_zero_ulp():
    config = make_config(x_family=XFamily.shifted_exp(1.0), horizon=400)
    values, state = stream_whole_path(config)
    total = 0.0
    for v in values.tolist():
        total += v
    assert total == state.total
    assert total == float(np.cumsum(values)[-1])


def test_bookkeeping_counts():
    config = make_config(horizon=250)
    _, state = stream_whole_path(config)
    assert state.counts_consistent()
    phi = config.pattern.phi(250)
    assert state.insert_count == phi[-1]
    assert state.other_count == 250 - phi[-1]


def test_repeat_run_bit_identical():
    config = make_config(x_family=XFamily.parity(4), dependence=DependenceMode.COMONOTONE, horizon=2000)
    s1 = run_path(config, [10, 100, 2000])
    s2 = run_path(config, [10, 100, 2000])
    assert np.array_equal(s1.running_avg, s2.running_avg)
    assert np.array_equal(s1.deviation_sup, s2.deviation_sup)
    assert s1.max_abs_value == s2.max_abs_value
    assert s1.final_avg == s2.final_avg


def test_horizon_one():
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO), horizon=1)
    summary = run_path(config, [1])
    direct = XFamily.uniform(1.0).sample_block(1, derive_stream(StreamKey(9, 0, Channel.X)))
    assert summary.final_avg == direct[0]


def test_horizon_overflow():
    config = make_config(horizon=MAX_HORIZON + 1)
    with pytest.raises(ConfigError, match="horizon"):
        config.validate()


def test_uniform_pure_x_average_small():
    # CLT at the horizon: 3 sigma / sqrt(n) with sigma^2 = 1/3
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO),
                         horizon=10 ** 6, seed=0)
    summary = run_path(config, [10 ** 6])
    assert abs(summary.final_avg) < 0.00173


def test_checkpoint_validation():
    config = make_config(horizon=100)
    with pytest.raises(ValueError):
        run_path(config, [0])
    with pytest.raises(ValueError):
        run_path(config, [101])
    with pytest.raises(ValueError):
        run_path(config, [])


def test_comonotone_draws_share_one_uniform():
    pattern = SparsityPattern(mode=SparsityMode.ALL_ONE)
    config = make_config(pattern=pattern, dependence=DependenceMode.COMONOTONE, horizon=50)
    values, state = stream_whole_path(config)
    shared = state.shared_u
    assert shared is not None
    exps = SCHED.value(np.arange(1, 51, dtype=float))
    v = TailEnvelope.pareto(2.0).sample_v(shared)
    assert np.array_equal(values, np.power(v, 1.0 / exps))


def test_config_roundtrip():
    for pattern in (build_sparsity(SCHED, 1.0), SparsityPattern(mode=SparsityMode.ALL_ONE),
                    SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0, 1))):
        config = make_config(pattern=pattern, horizon=3)
        round_tripped = ExperimentSpec.from_dict(config.to_dict())
        assert round_tripped.to_dict() == config.to_dict()
        a = run_path(config, [3])
        b = run_path(round_tripped, [3])
        assert np.array_equal(a.running_avg, b.running_avg)
