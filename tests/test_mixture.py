import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slln_lab import cli, diagnostics, mixture
from slln_lab.diagnostics import PathSummary, run_ensemble
from slln_lab.errors import ConfigError, InvalidExponent
from slln_lab.generators import DependenceMode, TailEnvelope, XFamily, XKind, _parity_table
from slln_lab.hypotheses import verify_hypotheses
from slln_lab.mixture import MAX_HORIZON, MAX_PATH_CHECKPOINTS, MAX_PATHS, ExperimentSpec, run_path
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import MomentSchedule, ScheduleForm, SparsityMode, SparsityPattern, build_sparsity

SCHED = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
DENSE = MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.9)  # a quarter of 1e6 indices are inserts
FAMILIES = (XFamily.uniform(1.5), XFamily.shifted_exp(2.0), XFamily.parity(1), XFamily.parity(4),
            XFamily.pareto_centered(2.5), XFamily.pareto_centered(0.8))
CH = mixture._CHUNK
LONG = 3 * CH + 5  # the engine cuts it into 4 chunks


def make_config(pattern=None, x_family=None, dependence=DependenceMode.INDEPENDENT,
                horizon=500, seed=9, schedule=SCHED, **kw):
    kw.setdefault("checkpoints", (horizon,))
    return ExperimentSpec(
        x_family=x_family or XFamily.uniform(1.0),
        envelope=TailEnvelope.pareto(2.0),
        dependence=dependence,
        schedule=schedule,
        pattern=pattern or build_sparsity(SCHED, 1.0),
        horizon=horizon,
        seed=seed,
        **kw,
    )


def _stream(config, channel):
    return derive_stream(StreamKey(config.seed, config.path_index, channel))


def emit_values(config):
    """All horizon values of one path, the engine's chunks concatenated, and
    its insert count."""
    workspace = mixture.path_workspace(config)
    # each chunk reuses one buffer
    chunks = [mixture._values(z, at, y, x).copy() for _, z, at, y, x in mixture._path_chunks(config, workspace)]
    return np.concatenate(chunks), workspace.insert_count


def reference_parity(bits, count, stream):
    """The first ``count`` parity values by their definition: value j of a
    block is the product of the signs i in j + 1, sign i being -1 when the
    block's i-th uniform is below 1/2; blocks take ``bits`` uniforms each."""
    length = 2 ** bits - 1
    n_blocks = -(-count // length)
    negative = stream.uniforms(n_blocks * bits).reshape(n_blocks, bits) < 0.5
    k = np.arange(count)
    block, mask = k // length, k % length + 1
    values = np.ones(count)
    for i in range(bits):
        values[((mask >> i) & 1 == 1) & negative[block, i]] *= -1.0
    return values


def reference_values(config):
    """The path by its definition, independent of the engine's splice.

    The X stream is consumed in order at the alpha = 0 positions; the
    alpha = 1 positions get sample_v(u) ** (1 / a_n), with u taken in order
    from the Y stream, or one SHARED uniform for every insert of a
    comonotone path.
    """
    alpha = config.pattern.alpha(config.horizon).astype(bool)
    n = np.arange(1, config.horizon + 1)
    values = np.empty(config.horizon)
    x_stream, x_count = _stream(config, Channel.X), int(np.sum(~alpha))
    if config.x_family.kind is XKind.PARITY_RADEMACHER:
        values[~alpha] = reference_parity(config.x_family.block_bits, x_count, x_stream)
    else:
        values[~alpha] = config.x_family.sample_block(x_count, x_stream)
    if config.dependence is DependenceMode.COMONOTONE:
        u = _stream(config, Channel.SHARED).next()
    else:
        u = _stream(config, Channel.Y).uniforms(int(np.sum(alpha)))
    values[alpha] = config.envelope.sample_v(u) ** (1.0 / config.schedule.value(n[alpha]))
    return values


def reference_summary(config, checkpoints, values=None):
    """The PathSummary of one path, by brute force from its reference values
    (or from ``values``); a NaN propagates through every maximum."""
    values = (reference_values(config) if values is None else values).tolist()
    total, averages = -0.0, []  # the identity of float addition: S_1 = Z_1, a -0.0 too
    for n, z in enumerate(values, start=1):
        total += z  # strict left to right
        averages.append(total / n)
    deviations = np.abs(averages)
    return PathSummary(
        path_index=config.path_index,
        horizon=config.horizon,
        checkpoints=np.asarray(checkpoints),
        running_avg=np.array([averages[c - 1] for c in checkpoints]),
        deviation_sup=np.array([np.max(deviations[c - 1:]) for c in checkpoints]),
        insert_count=int(np.sum(config.pattern.alpha(config.horizon))),
        max_abs_value=float(np.max(np.abs(values))),
        final_avg=total / config.horizon,
        nonfinite_values=sum(not math.isfinite(z) for z in values),
    )


def assert_same_summary(got, expected):
    got, expected = dataclasses.asdict(got), dataclasses.asdict(expected)
    for field, want in expected.items():
        assert np.array_equal(got[field], want, equal_nan=True), field


def test_all_zero_pattern_is_pure_x():
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO), horizon=1000)
    values, insert_count = emit_values(config)
    direct = XFamily.uniform(1.0).sample_block(
        1000, derive_stream(StreamKey(9, 0, Channel.X))
    )
    assert insert_count == 0
    assert np.array_equal(values, direct)


def test_all_one_pattern_is_pure_y():
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ONE), horizon=200)
    values, insert_count = emit_values(config)
    assert insert_count == values.size == 200
    assert np.all(values >= 1.0)  # heavy draws sit above the envelope support start


def test_explicit_pattern_unrolls():
    pattern = SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0, 0, 1))
    config = make_config(pattern=pattern, horizon=4)
    values, insert_count = emit_values(config)
    assert insert_count == 2
    x_direct = XFamily.uniform(1.0).sample_block(2, derive_stream(StreamKey(9, 0, Channel.X)))
    assert values[1] == x_direct[0]  # first non-insert consumes the first draw
    assert values[2] == x_direct[1]
    assert values[0] >= 1.0 and values[3] >= 1.0


def test_run_path_matches_reference():
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
                vec_values, _ = emit_values(config)
                assert np.array_equal(vec_values, reference_values(config))
                expected = reference_summary(config, checkpoints)
                got = dataclasses.asdict(run_path(config, checkpoints))
                for field, want in dataclasses.asdict(expected).items():
                    assert np.array_equal(got[field], want), field


def _chunk_edges(horizon):
    """The first and last position of every chunk, and their neighbours."""
    edges = (e + d for e in range(0, horizon + 1, mixture._CHUNK) for d in (-2, -1, 0, 1))
    return sorted({e for e in edges if 0 <= e < horizon})


def _explicit(horizon, ones):
    alpha = np.zeros(horizon, dtype=np.int64)
    alpha[list(ones)] = 1
    return SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=tuple(alpha.tolist()))


@st.composite
def path_cases(draw, modes=tuple(SparsityMode), dependences=tuple(DependenceMode)):
    """A valid one-path spec of any pattern mode, family and dependence (or
    of those given), and its checkpoints."""
    horizon = draw(st.integers(1, 300))
    mode = draw(st.sampled_from(modes))
    schedule = draw(st.sampled_from((SCHED, DENSE)))
    if mode is SparsityMode.AUTO:
        pattern = build_sparsity(schedule, draw(st.sampled_from((0.5, 1.0, 3.0))))
    elif mode is SparsityMode.EXPLICIT:
        positions = st.sampled_from(_chunk_edges(horizon)) | st.integers(0, horizon - 1)
        pattern = _explicit(horizon, draw(st.sets(positions, max_size=60)))
    else:
        pattern = SparsityPattern(mode=mode)
    config = make_config(pattern=pattern, x_family=draw(st.sampled_from(FAMILIES)),
                         dependence=draw(st.sampled_from(dependences)), horizon=horizon,
                         seed=draw(st.integers(0, 2 ** 64 - 1)), schedule=schedule)
    checkpoints = sorted(draw(st.sets(st.integers(1, horizon), min_size=1, max_size=4)))
    return config.with_path(draw(st.integers(0, 5))), checkpoints


def _long_case(pattern, schedule=SCHED, x_family=XFamily.parity(4), dependence=DependenceMode.COMONOTONE,
               checkpoints=(1, CH, 2 * CH + 1, LONG)):
    config = make_config(pattern=pattern, x_family=x_family, dependence=dependence, horizon=LONG,
                         schedule=schedule)
    return config.with_path(2), list(checkpoints)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(path_cases())
@example(_long_case(build_sparsity(DENSE, 1.0), DENSE, XFamily.uniform(1.5), DependenceMode.INDEPENDENT))
@example(_long_case(_explicit(LONG, _chunk_edges(LONG))))
@example(_long_case(build_sparsity(SCHED, 1.0)))
@example(_long_case(SparsityPattern(mode=SparsityMode.ALL_ZERO), x_family=XFamily.shifted_exp(2.0)))
@example(_long_case(SparsityPattern(mode=SparsityMode.ALL_ONE), dependence=DependenceMode.INDEPENDENT))
def test_run_path_matches_reference_on_random_specs(case):
    config, checkpoints = case
    expected = dataclasses.asdict(reference_summary(config, checkpoints))
    workspace = mixture.path_workspace(config)
    # path j, then path i, on one workspace: j leaves its values in the buffer
    run_path(config.with_path(config.path_index + 1), checkpoints, workspace)
    for summary in (run_path(config, checkpoints), run_path(config, checkpoints, workspace)):
        got = dataclasses.asdict(summary)
        for field, want in expected.items():
            assert np.array_equal(got[field], want), field


def _follows_the_checkpoint_rule(checkpoints, horizon):
    """The rule, restated: Python ints (no bool), sorted, unique and in [1, horizon]."""
    return (all(type(c) is int for c in checkpoints) and list(checkpoints) == sorted(set(checkpoints))
            and len(checkpoints) > 0 and 1 <= checkpoints[0] and checkpoints[-1] <= horizon)


@st.composite
def checkpoint_cases(draw):
    """A valid one-path spec and a checkpoint list of any kind the rule
    decides: sorted and unique, unsorted, repeated, empty, or with one item
    that is 0, above the horizon, NaN, 1.5, True, a NumPy int or past int64."""
    config, _ = draw(path_cases())
    h = config.horizon
    ok = st.lists(st.integers(1, h), min_size=1, max_size=5, unique=True).map(sorted)
    odd = st.sampled_from([0, h + 1, math.nan, 1.5, True, np.int64(1), 2 ** 63, -2 ** 63 - 1])
    checkpoints = draw(st.one_of(
        ok,
        ok.map(lambda c: c[::-1]),
        ok.map(lambda c: c + c[-1:]),
        st.just([]),
        st.tuples(ok, st.integers(0, 5), odd).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1]:]),
    ))
    return config, checkpoints


@settings(derandomize=True, deadline=None, max_examples=80)
@given(checkpoint_cases())
# unsorted and repeated checkpoints on chunk seams
@example(_long_case(_explicit(LONG, _chunk_edges(LONG)), checkpoints=(LONG - 1, 5, 5, CH, CH + 1, 1)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(CH, CH, CH)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(1, CH, CH + 1, LONG)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=()))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(0, LONG)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(1, LONG + 1)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(1, math.nan)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(1.5, LONG)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(True, LONG)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(np.int64(1), LONG)))
@example(_long_case(build_sparsity(SCHED, 1.0), checkpoints=(1, 2 ** 64)))
def test_spec_and_run_path_share_one_checkpoint_rule(case):
    # the constructor and run_path refuse the same lists with the same message,
    # and a list both accept gives the reference summary
    config, checkpoints = case
    try:
        dataclasses.replace(config, checkpoints=tuple(checkpoints))
    except ConfigError as exc:
        assert not _follows_the_checkpoint_rule(checkpoints, config.horizon)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            run_path(config, checkpoints)
        return
    assert _follows_the_checkpoint_rule(checkpoints, config.horizon)
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))


def _edge_inserts(horizon):
    """An EXPLICIT pattern with an insert at the first and the last index of
    every chunk, and one every 997 indices from 5."""
    chunk_starts = range(0, horizon, CH)
    ones = {*chunk_starts, *(min(s0 + CH, horizon) - 1 for s0 in chunk_starts), *range(5, horizon, 997)}
    return _explicit(horizon, ones)


def _seam_checkpoints(horizon):
    return sorted({c for c in (1, CH - 1, CH, CH + 1, 2 * CH, horizon) if c <= horizon})


@pytest.mark.parametrize("horizon", [CH - 1, CH, CH + 1, 2 * CH - 1, 2 * CH, 2 * CH + 1])
def test_run_path_matches_reference_at_chunk_seams(horizon):
    config = make_config(pattern=_edge_inserts(horizon), x_family=XFamily.parity(4),
                         dependence=DependenceMode.COMONOTONE, horizon=horizon)
    checkpoints = _seam_checkpoints(horizon)
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))


@pytest.mark.parametrize("dependence", DependenceMode)
@pytest.mark.parametrize("block_bits", [1, 4, 17, 23])
def test_parity_block_across_a_chunk_seam_matches_reference(block_bits, dependence):
    # blocks of 1, 15, 131071 and 8388607 values: the last two span seams,
    # the 15-value blocks straddle one wherever the X count before it is no multiple of 15
    config = make_config(pattern=_edge_inserts(2 * CH + 1), x_family=XFamily.parity(block_bits),
                         dependence=dependence, horizon=2 * CH + 1).with_path(1)
    checkpoints = _seam_checkpoints(config.horizon)
    values, _ = emit_values(config)
    assert np.array_equal(values, reference_values(config))
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))


@pytest.mark.parametrize("dependence", DependenceMode)
@pytest.mark.parametrize("mode", [SparsityMode.ALL_ONE, SparsityMode.ALL_ZERO, SparsityMode.EXPLICIT])
def test_patterns_across_chunk_seams_match_reference(mode, dependence):
    horizon = 2 * CH + 3
    pattern = _edge_inserts(horizon) if mode is SparsityMode.EXPLICIT else SparsityPattern(mode=mode)
    config = make_config(pattern=pattern, x_family=XFamily.shifted_exp(2.0), dependence=dependence,
                         horizon=horizon)
    checkpoints = _seam_checkpoints(horizon)
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))


@pytest.mark.parametrize("dependence", DependenceMode)
def test_chunks_of_every_layout_match_reference(dependence):
    # chunk 0 is all inserts (no offsets), chunk 1 mixed, chunk 2 has none
    horizon = 3 * CH
    mixed = range(CH, 2 * CH, 7)
    config = make_config(pattern=_explicit(horizon, [*range(CH), *mixed]), x_family=XFamily.parity(4),
                         dependence=dependence, horizon=horizon)
    workspace = mixture.path_workspace(config)
    assert [None if at is None else at.size for at, _ in workspace.layout] == [None, len(mixed), 0]
    checkpoints = _seam_checkpoints(horizon)
    assert_same_summary(run_path(config, checkpoints, workspace), reference_summary(config, checkpoints))


def test_auto_pattern_of_another_schedule_matches_reference():
    # the inserts follow the pattern's schedule, and their exponents the spec's
    config = make_config(pattern=build_sparsity(DENSE, 1.0), x_family=XFamily.parity(4), horizon=2 * CH + 3)
    checkpoints = _seam_checkpoints(config.horizon)
    values, _ = emit_values(config)
    assert np.array_equal(values, reference_values(config))
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))


def _planting(monkeypatch, config, planted):
    """Make the draws at the indices ``planted`` (index: value) of
    ``config`` carry their values, whichever engine sums them: the heavy
    draws at its inserts, and elsewhere the X values, which must be drawn as
    values, not as sign codes."""
    alpha = config.pattern.alpha(config.horizon).astype(bool)
    before = {True: np.cumsum(alpha) - 1, False: np.cumsum(~alpha) - 1}  # the draws of its kind before an index
    by_draw = {kind: {int(before[kind][i]): v for i, v in planted.items() if alpha[i] == kind} for kind in before}
    monkeypatch.setattr(mixture, "draw_heavy", _planted(mixture.draw_heavy, by_draw[True]))
    monkeypatch.setattr(mixture.XSampler, "fill", _planted(mixture.XSampler.fill, by_draw[False]))


def _planted(draw, by_draw):
    """``draw``, whose draws number k of ``by_draw`` (k: value) carry their values."""
    drawn = [0]

    def planting(*args, **kwargs):
        values = draw(*args, **kwargs)
        for k, v in by_draw.items():
            if drawn[0] <= k < drawn[0] + values.size:
                values[k - drawn[0]] = v
        drawn[0] += values.size
        return values

    return planting


NONFINITE = pytest.mark.parametrize("planted", [
    {CH + 5: math.inf, 2 * CH + 1: math.inf},
    {10: math.inf, CH + 3: -math.inf},
    {0: -math.inf, 2 * CH: math.nan},
    {3 * CH + 2: math.nan},
], ids=["inf_in_two_chunks", "inf_then_minus_inf", "minus_inf_then_nan", "nan_in_the_last_chunk"])


@NONFINITE
def test_nonfinite_values_in_several_chunks_match_reference(monkeypatch, planted):
    # a family without a table: its chunks are spliced and summed by np.cumsum
    config, checkpoints = _long_case(build_sparsity(SCHED, 1.0), x_family=XFamily.uniform(1.5))
    values = reference_values(config)
    values[list(planted)] = list(planted.values())
    _planting(monkeypatch, config, planted)
    with np.errstate(invalid="ignore"):
        summary = run_path(config, checkpoints)
    assert_same_summary(summary, reference_summary(config, checkpoints, values))
    assert summary.nonfinite_values >= len(planted)


@NONFINITE
def test_nonfinite_heavy_draws_in_several_chunks_match_reference(monkeypatch, planted):
    # parity X values are summed by blocks; the planted values are heavy draws, at inserts
    config, checkpoints = _long_case(_explicit(LONG, {*_chunk_edges(LONG), *range(7, LONG, 5003), *planted}))
    values = reference_values(config)
    values[list(planted)] = list(planted.values())
    _planting(monkeypatch, config, planted)
    with np.errstate(invalid="ignore"):
        summary = run_path(config, checkpoints)
    assert_same_summary(summary, reference_summary(config, checkpoints, values))
    assert summary.nonfinite_values == len(planted)


def test_negative_zero_first_value_stays_the_first_sum(monkeypatch):
    # a whole-horizon cumsum starts at S_1 = Z_1, so a -0.0 Z_1 gives S_1 = -0.0;
    # adding the (zero) sum of no earlier chunk would give 0.0
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO), horizon=CH + 1)
    _planting(monkeypatch, config, {0: -0.0})
    summary = run_path(config, [1, CH + 1])
    assert summary.running_avg[0] == 0.0 and np.signbit(summary.running_avg[0])


def test_negative_zero_first_heavy_draw_stays_the_first_sum(monkeypatch):
    # the block sums start from -0.0 too, so a -0.0 heavy Z_1 gives S_1 = -0.0
    config = make_config(pattern=_explicit(CH + 1, {0, CH}), x_family=XFamily.parity(4), horizon=CH + 1)
    _planting(monkeypatch, config, {0: -0.0})
    summary = run_path(config, [1, CH + 1])
    assert summary.running_avg[0] == 0.0 and np.signbit(summary.running_avg[0])


def _signs(values):
    """The sign bits of ``values``, NaN's read as +: they tell -0.0 from 0.0."""
    values = np.asarray(values)
    return np.signbit(np.where(np.isnan(values), 0.0, values))


def _left_to_right(total, steps):
    sums = []
    for x in steps:
        total += x
        sums.append(total)
    return sums


# ±(2**k - m 2**(k-53)): 2**k, and the floats just below it, the top of a binade
BINADE_TOPS = st.builds(lambda k, m, sign: sign * (2.0 ** k - m * 2.0 ** (k - 53)),
                        st.integers(-60, 60), st.integers(0, 3), st.sampled_from((1.0, -1.0)))
BASES = st.one_of(
    BINADE_TOPS,
    st.sampled_from((2.0 ** 53 - 2, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 60, -2.0 ** 60, 5e-324,
                     math.inf, -math.inf, math.nan, -0.0, 0.0)),
    st.floats(),
)
# the domain run_path admits to _reduce_blocks: finite, with every partial sum below 2**53
RUN_BASES = st.one_of(
    st.builds(lambda k, m, sign: sign * (2.0 ** k - m * 2.0 ** (k - 53)),
              st.integers(-60, 52), st.integers(0, 3), st.sampled_from((1.0, -1.0))),
    st.sampled_from((2.0 ** 53 - 301, 301 - 2.0 ** 53, 2.0 ** 52 + 1, 5e-324, -0.0, 0.0)),
    st.floats(-2.0 ** 52, 2.0 ** 52),
)


@pytest.mark.parametrize("total, limit", [
    (0.0, 2.0 ** 53), (-0.0, 2.0 ** 53), (3.0, 2.0 ** 53), (1 - 2.0 ** 53, 2.0 ** 53), (5.5, 2.0 ** 52),
    (-0.75, 2.0 ** 51), (16 - 2.0 ** -49, 16.0), (1 + 2.0 ** -52, 2.0), (5e-324, 2.0 ** -1021),
])
def test_exact_limit_is_that_of_the_lowest_set_bit(total, limit):
    assert diagnostics._exact_limit(total) == limit


def _reduced_by_blocks(total, s0, bits, codes, first, values, at, cp_at):
    """What _reduce_blocks makes of a chunk after s0, from the S ``total``:
    its X values fall in the parity blocks of sign codes ``codes`` from
    column ``first`` of the first, and ``values`` are all of them with its
    heavy draws at the offsets ``at``.  The S at its end, its averages at
    the checkpoint offsets ``cp_at`` and its maxima."""
    averages, maxima = np.empty(len(cp_at)), np.empty(len(cp_at) + 1)
    at = np.asarray(at, dtype=np.int64)
    end = diagnostics._reduce_blocks((np.asarray(codes, dtype=np.uint8), first), bits, at, np.asarray(values)[at],
                                     total, s0, len(values), np.asarray(cp_at, dtype=np.int64), averages, maxima)
    return end, averages, maxima


def _spliced(bits, codes, first, size, inserts, heavy):
    """The values of a chunk of ``size``: at the k-th of the offsets
    ``inserts`` the heavy draw heavy[k % len(heavy)] * (k + 1), and
    elsewhere the X values of the blocks of sign codes ``codes`` from
    column ``first`` of the first."""
    values, at = np.empty(size), sorted(inserts)
    x = np.ones(size, dtype=bool)
    x[at] = False
    values[x] = _parity_table(bits)[codes].ravel()[first:first + size - len(at)]
    values[at] = [heavy[k % len(heavy)] * (k + 1) for k in range(len(at))]
    return values, at


def _left_to_right_reduced(total, s0, values, cp_at):
    """The same, by the strictly left-to-right sum."""
    sums = _left_to_right(total, values)
    averages = np.array(sums) / np.arange(s0 + 1, s0 + len(sums) + 1)
    deviations = np.abs(averages)
    segments = [deviations[c:d].max() for c, d in zip(cp_at, [*cp_at[1:], len(sums)])]
    return sums[-1], averages[cp_at], np.array([deviations.max(), *segments])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(RUN_BASES, st.integers(-CH, CH), st.lists(st.sampled_from((1.0, -1.0)), min_size=1, max_size=300))
@example(16 - 2.0 ** -49, 0, [1.0, -1.0])  # 17 - 2**-49 rounds up to 17, and 16 follows, not 16 - 2**-49
@example(16 - 3 * 2.0 ** -49, 3, [1.0, -1.0])  # 17 - 3 * 2**-49 rounds down
@example(8 - 2.0 ** -49, -5, [1.0] * 40 + [-1.0] * 40)  # up past 16, 32 and 64 and back down
@example(-(16 - 2.0 ** -49), 0, [-1.0, 1.0])
@example(2.0 ** 53 - 3, 0, [1.0, 1.0, -1.0])  # up to 2**53 - 1, the top of the domain, and back
@example(-0.0, 0, [1.0, -1.0])
@example(0.5 - 2.0 ** -54, 7, [1.0])  # an event at the run's only value
def test_run_sums_add_left_to_right(total, prev, steps):
    # a run of X values from the S total, in a chunk CH + prev indices in: the
    # block engine rounds where the sequential add rounds, and reduces what it
    # gives; the checkpoints are its first, middle and last index
    s0, cp_at = CH + prev, sorted({0, len(steps) // 2, len(steps) - 1})
    expected = _left_to_right_reduced(total, s0, steps, cp_at)
    assert all(abs(s) < 2.0 ** 53 for s in _left_to_right(total, steps))  # the examples stay in the domain
    end, averages, maxima = _reduced_by_blocks(total, s0, 1, np.less(steps, 0), 0, steps, [], cp_at)
    assert end == expected[0] and _signs(end) == _signs(expected[0])
    assert np.array_equal(averages, expected[1]) and np.array_equal(_signs(averages), _signs(expected[1]))
    assert np.array_equal(maxima, expected[2])


@st.composite
def engine_chunks(draw):
    """A chunk for _reduce_blocks: block_bits 1-8, up to 40 blocks of sign
    codes from any column of the first, inserts anywhere, a start S, an
    offset s0 small enough that |S_n/n| moves within a block, and up to five
    checkpoints."""
    bits = draw(st.integers(1, 8))
    length = 2 ** bits - 1
    codes = draw(st.lists(st.integers(0, 2 ** bits - 1), min_size=1, max_size=40))
    first = draw(st.integers(0, length - 1))
    x_count = draw(st.integers(max((len(codes) - 1) * length - first + 1, 1), len(codes) * length - first))
    size = x_count + draw(st.integers(0, 6))
    inserts = draw(st.sets(st.integers(0, size - 1), min_size=size - x_count, max_size=size - x_count))
    heavy = draw(st.lists(st.sampled_from((0.5 + 2.0 ** -40, -3.25, 7.0, -0.0, 1e12 + 0.5)) | RUN_BASES,
                          min_size=1, max_size=3))
    total = draw(st.sampled_from((-0.0, 0.0, 3.0, 16 - 2.0 ** -49, -(64 - 2.0 ** -40))) | RUN_BASES)
    cp_at = sorted(draw(st.sets(st.integers(0, size - 1), max_size=5)))
    return _engine_case(total, draw(st.integers(0, 2000)), bits, codes, first, size, inserts, heavy, cp_at)


def _engine_case(total, s0, bits, codes, first, size, inserts, heavy, cp_at):
    return (total, s0, bits, codes, first, *_spliced(bits, codes, first, size, inserts, heavy), cp_at)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(engine_chunks())
# the greatest |S_n/n| inside a whole first block, past every block's end: 12/102
@example(_engine_case(-10.0, 100, 2, [3, 0, 0, 0], 0, 12, (), (), []))
@example(_engine_case(-10.0, 100, 2, [3, 0, 0, 0], 0, 12, (), (), [5]))
# the greatest inside the block that holds an insert, 55/102, where S before it bounds only 41/100
@example(_engine_case(40.0, 99, 2, [1, 3, 3, 3], 0, 13, {1}, [15.0], []))
# an event at the one value of a first block cut by the chunk's start, whose full row never rises:
# 17 - 2**-49 rounds to 17, and 16 follows
@example(_engine_case(16 - 2.0 ** -49, 0, 2, [3, 1], 2, 4, (), (), [1, 3]))
def test_block_engine_matches_the_left_to_right_sum(case):
    # the S at the chunk's end, its averages at the checkpoints and its maxima, exactly, -0.0 included:
    # the rounding events, the inserts' anchors, and the blocks the bound lets go unevaluated
    total, s0, bits, codes, first, values, at, cp_at = case
    assume(all(abs(s) < 2.0 ** 53 for s in _left_to_right(total, values.tolist())))  # the engine's domain
    got = _reduced_by_blocks(total, s0, bits, codes, first, values, at, cp_at)
    expected = _left_to_right_reduced(total, s0, values.tolist(), cp_at)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e) and np.array_equal(_signs(g), _signs(e))


@pytest.mark.parametrize("inserts", [(0,), (0, 1), (39,), (20, 21, 22), (5, 39)],
                         ids=["at_0", "two_at_0", "last", "three_in_a_row", "inside_and_last"])
@pytest.mark.parametrize("value", [0.25 + 2.0 ** -40, -3.5, -0.0, 1e12 + 0.5])
def test_a_run_after_an_insert_adds_left_to_right(inserts, value):
    # inserts at the chunk's first index, in a row, and last, then runs that round
    # from the sum they leave: the index offset of each, and its anchor
    codes = ([0, 1, 2, 3] * 4)[:-(-(40 - len(inserts)) // 3)]  # the blocks of its X values
    values, at = _spliced(2, codes, 0, 40, inserts, [value])
    cp_at = [0, 4, 20, 39]
    got = _reduced_by_blocks(-0.0, CH, 2, codes, 0, values, at, cp_at)
    expected = _left_to_right_reduced(-0.0, CH, values.tolist(), cp_at)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e) and np.array_equal(_signs(g), _signs(e))


def _block_case(bits, horizon, inserts, planted, checkpoints, dependence=DependenceMode.INDEPENDENT, path=0,
                most_inserts=CH):
    config = make_config(pattern=_explicit(horizon, inserts), x_family=XFamily.parity(bits),
                         dependence=dependence, horizon=horizon).with_path(path)
    return config, planted, sorted({1, horizon, *checkpoints}), most_inserts


@st.composite
def block_cases(draw):
    """A parity path, block_bits 1-9 (1 and 9, which has no table, are
    summed by np.cumsum), with heavy draws planted at inserts at index 0, at chunk
    seams or anywhere, past one chunk maybe a chunk of one X value, and the
    most inserts of a chunk summed by blocks: none, as many as the engine
    sums so, or every chunk with an X value."""
    horizon = draw(st.integers(1, 300) | st.sampled_from((CH, CH + 1, 2 * CH + 1)))
    inserts = draw(st.sets(st.sampled_from(_chunk_edges(horizon)) | st.integers(0, horizon - 1), max_size=30))
    if horizon > CH and draw(st.booleans()):
        inserts |= set(range(CH)) - {draw(st.integers(0, CH - 1))}
    planted = draw(st.dictionaries(st.sampled_from(sorted(inserts)), BASES, max_size=8)) if inserts else {}
    return _block_case(draw(st.integers(1, 9)), horizon, inserts, planted,
                       draw(st.sets(st.integers(1, horizon), max_size=4)),
                       draw(st.sampled_from(DependenceMode)), draw(st.integers(0, 3)),
                       draw(st.sampled_from((0, mixture._BLOCK_SUM_INSERTS, CH))))


def _spans_summed_by_blocks(config, values, most_inserts, checkpoints):
    """How many spans the rule of ``run_path`` reduces by blocks, read off
    the path's ``values``.  X values of a family with a table and
    block_bits >= 2 are needed.  A span is consecutive chunks with X values,
    with at most ``most_inserts`` inserts, at most
    ``_BLOCK_SUM_CHECKPOINTS`` checkpoints and |S before it| + (inserts) *
    max(1, max |y|) + (span length) below 2**52; past its first chunk, its
    length is at most the values of ``_SPAN_BLOCKS`` blocks and at most
    ``_SPAN_VALUES``."""
    family = config.x_family
    if not (family.sums_by_table and family.block_bits > 1):
        return 0
    alpha = config.pattern.alpha(config.horizon).astype(bool)
    before = list(itertools.accumulate(values.tolist(), initial=-0.0))  # S before each index, left to right

    def admitted(start, end):
        heavy = values[start:end][alpha[start:end]]
        in_span = sum(start < c <= end for c in checkpoints)
        return (heavy.size <= most_inserts and in_span <= mixture._BLOCK_SUM_CHECKPOINTS
                and abs(before[start]) + heavy.size * np.abs(heavy).max(initial=1.0) + (end - start) < 2.0 ** 52)

    count, start = 0, None
    for s0 in range(0, config.horizon, CH):
        end = min(s0 + CH, config.horizon)
        if alpha[s0:end].all():
            start = None
        elif not (start is not None and end - start <= mixture._SPAN_BLOCKS * family.block_length
                  and end - start <= mixture._SPAN_VALUES and admitted(start, end)):
            start = s0 if admitted(s0, end) else None
            count += start is not None
    return count


def _span_case(*args, **kwargs):
    """A :func:`_block_case` under the engine's own insert limit."""
    return _block_case(*args, most_inserts=mixture._BLOCK_SUM_INSERTS, **kwargs)


@st.composite
def span_cases(draw):
    """A parity path of two to four chunks, block_bits 2-8, so that spans of
    several chunks form, with inserts and checkpoints at chunk seams or
    anywhere, maybe a run of inserts across a seam that passes the insert
    limit, and heavy draws planted at some inserts."""
    bits = draw(st.sampled_from((2, 3, 4, 8)))
    horizon = draw(st.sampled_from((CH + 1, 2 * CH, 2 * CH + 1, 3 * CH + 5)))
    seams = st.sampled_from(_chunk_edges(horizon))
    inserts = draw(st.sets(seams | st.integers(0, horizon - 1), max_size=12))
    if draw(st.booleans()):  # a run of inserts across the first seam, up to past the limit
        inserts |= set(range(CH - 2 * draw(st.integers(0, 40)), min(CH + draw(st.integers(0, 40)), horizon)))
    planted = draw(st.dictionaries(st.sampled_from(sorted(inserts)), BASES, max_size=4)) if inserts else {}
    return _span_case(bits, horizon, inserts, planted, draw(st.sets(seams.map(lambda e: e + 1), max_size=4)),
                      draw(st.sampled_from(DependenceMode)), draw(st.integers(0, 3)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(block_cases())
# planted draws whose chunk is summed by np.cumsum: a bound past 2**52 (up past 2**53 in the
# chunk, and past 2**60), inf and -inf, NaN, and an inf S carried into a chunk of X values
@example(_block_case(4, 300, {0, 150}, {0: 16 - 2.0 ** -49, 150: 2.0 ** 53 - 3}, [2, 3]))
@example(_block_case(4, 300, {0, 5}, {5: 2.0 ** 53 - 2}, [6, 7, 8]))
@example(_block_case(4, 300, {0}, {0: 2.0 ** 60}, [2]))
@example(_block_case(8, CH + 2, {0, CH - 1, CH, CH + 1}, {CH - 1: math.inf, CH: -math.inf}, [CH]))
@example(_block_case(4, CH + 1, set(range(CH)) - {CH - 1}, {0: 0.5 - 2.0 ** -54, CH - 2: math.nan}, [CH]))
@example(_block_case(4, CH + 2, {CH - 1}, {CH - 1: math.inf}, [CH]))
@example(_block_case(4, CH + 2, {CH - 1}, {CH - 1: math.nan}, [CH]))
# the chunk's bound 0 + 1 * |y| + 300 just below 2**52, summed by blocks, and at it, by np.cumsum
@example(_block_case(4, 300, {0}, {0: 2.0 ** 52 - 301}, [2]))
@example(_block_case(4, 300, {0}, {0: 2.0 ** 52 - 300}, [2]))
@example(_block_case(4, 300, {0}, {0: 301 - 2.0 ** 52}, [2]))
@example(_block_case(1, 300, {0}, {0: -0.0}, [2]))
@example(_block_case(9, CH + 1, {0, CH}, {0: 16 - 2.0 ** -49}, [CH]))
def test_block_sums_match_the_left_to_right_reference(case):
    _check_block_sums(case)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(span_cases())
# inserts at the last index of one chunk and the first of the next, one span
@example(_span_case(4, 2 * CH + 1, {CH - 1, CH}, {}, [CH - 1]))
@example(_span_case(8, 3 * CH + 5, {CH - 1, CH, 2 * CH - 1, 2 * CH}, {CH: 1e6}, [], DependenceMode.COMONOTONE))
# checkpoints at both sides of a seam inside a span, and a parity block cut by each seam (2**16 = 1 mod 15)
@example(_span_case(4, 2 * CH + 1, set(), {}, [CH, CH + 1, 2 * CH]))
@example(_span_case(8, 2 * CH, {5}, {5: -7.25}, [CH, CH + 1], DependenceMode.COMONOTONE, path=1))
# a rounding event at the first value of chunk 1, in the block that straddles the seam:
# S is 0 after the first insert and 16 - 2**-49 after the second, and the X values then reach 17
@example(_span_case(4, 2 * CH + 1, {CH - 4, CH - 3}, {CH - 4: -110.0, CH - 3: 16 - 2.0 ** -49}, [CH], path=4))
@example(_span_case(4, 2 * CH + 1, {CH - 4, CH - 3}, {CH - 4: -110.0, CH - 3: 16 - 2.0 ** -49}, [CH],
                    DependenceMode.COMONOTONE, path=4))
# a span stopped by the block cap: at 3 bits, 2**14 blocks are under two chunks; at 4 bits, under four;
# and by the value cap at 8 bits, under four chunks too
@example(_span_case(3, 2 * CH + 1, {7}, {}, [CH]))
@example(_span_case(4, 4 * CH + 1, set(), {}, [2 * CH]))
@example(_span_case(8, 4 * CH + 1, {CH + 7}, {CH + 7: -30.5}, [2 * CH]))
# stopped by the insert limit: 48 inserts in chunk 0 and one more in chunk 1
@example(_span_case(4, 2 * CH, set(range(CH - 96, CH, 2)) | {CH + 9}, {}, [CH]))
# stopped by the 2**52 bound: a planted draw in the span's second chunk takes 0 + |y| + 2 * 2**16 to
# 2**52 + 10, while chunk 1 alone stays below it; and the same draw one chunk later
@example(_span_case(4, 2 * CH, {CH + 3}, {CH + 3: 2.0 ** 52 - 2 * CH + 10}, [CH]))
@example(_span_case(4, 3 * CH + 5, {2 * CH + 3}, {2 * CH + 3: 2.0 ** 52 - 3 * CH + 10}, [CH],
                    DependenceMode.COMONOTONE))
def test_span_sums_match_the_left_to_right_reference(case):
    _check_block_sums(case)


def _check_block_sums(case):
    """``run_path`` of a :func:`_block_case` gives the floats of the
    left-to-right reference, signs of zeros included, with one engine call
    per span the rule of :func:`_spans_summed_by_blocks` reads."""
    config, planted, checkpoints, most_inserts = case
    values = reference_values(config)
    values[list(planted)] = list(planted.values())
    with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(invalid="ignore"):
        monkeypatch.setattr(mixture, "_BLOCK_SUM_INSERTS", most_inserts)
        _planting(monkeypatch, config, planted)
        calls = _counting(monkeypatch, ("_reduce_blocks",))
        got = run_path(config, checkpoints)
        expected = reference_summary(config, checkpoints, values)
    assert_same_summary(got, expected)
    assert np.array_equal(_signs([*got.running_avg, got.final_avg]),
                          _signs([*expected.running_avg, expected.final_avg]))
    assert calls["_reduce_blocks"] == _spans_summed_by_blocks(config, values, most_inserts, checkpoints)


@pytest.mark.parametrize("bits, horizon", [(3, 3 * CH + 1), (8, 2 * CH + 1)])
def test_pieces_evaluated_a_piece_at_a_time_give_the_same_floats(monkeypatch, bits, horizon):
    # a batch of one piece: the checkpoints' averages and the maxima are gathered across
    # batches, in spans with checkpoints and, at 3 bits, in chunk 1, a span without one
    monkeypatch.setattr(diagnostics, "_EVALUATED", 1)
    for dependence in DependenceMode:
        _check_block_sums(_span_case(bits, horizon, {5, CH - 1, CH + 3}, {CH + 3: 40.5}, [70, CH, 2 * CH + 1],
                                     dependence))


def _counting(monkeypatch, names):
    """Count the calls of the ``mixture`` functions ``names``, in the dict returned."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(mixture, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(mixture, name, counted)
    return calls


def test_theorem_path_is_summed_by_blocks(monkeypatch):
    # the paths of the bundled parity fixtures, theorem paths 0-49 and pure-x
    # paths 0-19: every chunk is reduced by blocks, none spliced and summed by
    # np.cumsum, in 5 spans a path (the 2**14-block cap takes three chunks of
    # 2**16, and the last span the last 16,960 values too), and at most 15% of
    # the blocks are evaluated index by index, so a change that puts them back
    # on the cumsum, turns some chunks away, moves the cap or loosens the bound
    # fails here, not only in the benchmark
    for name, paths, runs_per_path in (("theorem", 50, 54), ("pure-x", 20, 16)):
        calls = _counting(monkeypatch, ("_values", "_cumsum", "_reduce_blocks"))
        blocks = _recording(monkeypatch, mixture, "_reduce_blocks", lambda args: args[0][0].size)
        evaluated = _recording(monkeypatch, diagnostics, "_piece_values", lambda args: args[0].size)
        spec = cli.load_config(f"{name}.json")
        workspace = mixture.path_workspace(spec)
        # the runs of X values between the inserts, in each chunk
        runs = sum(np.count_nonzero(np.diff([-1, *at, min(CH, spec.horizon - s0)]) > 1)
                   for s0, (at, _) in zip(range(0, spec.horizon, CH), workspace.layout))
        for path in range(paths):
            run_path(spec.with_path(path), spec.checkpoints, workspace)
        assert len(workspace.layout) == 16
        assert calls == {"_values": 0, "_cumsum": 0, "_reduce_blocks": paths * 5}, name
        assert runs == runs_per_path
        assert sum(evaluated) <= 0.15 * sum(blocks), name
        monkeypatch.undo()


def _recording(monkeypatch, module, name, measure):
    """Wrap the function ``name`` of ``module`` so that ``measure(args)`` of
    each call is appended to the list returned."""
    measures, call = [], getattr(module, name)

    def recorded(*args, **kwargs):
        measures.append(measure(args))
        return call(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return measures


@pytest.mark.parametrize("extra", [0, 1], ids=["at_the_limit", "past_it"])
def test_a_chunk_of_many_inserts_is_spliced_and_summed_by_cumsum(monkeypatch, extra):
    # the block engine takes a Python step per insert; past _BLOCK_SUM_INSERTS of them
    # in a chunk, np.cumsum over its spliced values is the faster.  At the limit both
    # chunks are one span; past it, chunk 0 is spliced and chunk 1 is a span alone
    limit = mixture._BLOCK_SUM_INSERTS
    inserts = range(0, 2 * (limit + extra), 2)
    config = make_config(pattern=_explicit(CH + 7, inserts), x_family=XFamily.parity(4), horizon=CH + 7)
    calls = _counting(monkeypatch, ("_values", "_reduce_blocks"))
    assert_same_summary(run_path(config, [1, CH, CH + 7]), reference_summary(config, [1, CH, CH + 7]))
    assert calls == {"_values": extra, "_reduce_blocks": 1}
    # half of them on each side of a seam: one span at the limit, two past it
    inserts = [*range(CH - limit, CH, 2), *range(CH + 1, CH + 1 + 2 * (limit // 2 + extra), 2)]
    config = make_config(pattern=_explicit(2 * CH, inserts), x_family=XFamily.parity(4), horizon=2 * CH)
    calls = _counting(monkeypatch, ("_values", "_reduce_blocks"))
    assert_same_summary(run_path(config, [1, CH, 2 * CH]), reference_summary(config, [1, CH, 2 * CH]))
    assert calls == {"_values": 0, "_reduce_blocks": 1 + extra}


@pytest.mark.parametrize("extra", [0, 1], ids=["at_the_limit", "past_it"])
def test_a_chunk_of_many_checkpoints_is_reduced_per_index(monkeypatch, extra):
    # each checkpoint forces its block to be evaluated index by index; past
    # _BLOCK_SUM_CHECKPOINTS of them in a chunk, the per-index reduction is the faster.
    # The last checkpoint takes the span past the limit, so chunk 1 is a span alone
    limit, horizon = mixture._BLOCK_SUM_CHECKPOINTS, CH + 7
    config = make_config(pattern=_explicit(horizon, {0, 100, CH + 3}), x_family=XFamily.parity(4), horizon=horizon)
    checkpoints = [*range(3, 3 + 509 * (limit + extra), 509), horizon]
    calls = _counting(monkeypatch, ("_values", "_reduce_blocks"))
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))
    assert calls == {"_values": extra, "_reduce_blocks": 2 - extra}
    # half of them on each side of a seam: one span at the limit, two past it
    horizon = 2 * CH
    config = make_config(pattern=_explicit(horizon, {0, 100, CH + 3}), x_family=XFamily.parity(4), horizon=horizon)
    checkpoints = [*range(CH - 509 * (limit // 2 - 1), CH + 1, 509),
                   *range(CH + 7, CH + 7 + 509 * (limit // 2 + extra), 509)]
    calls = _counting(monkeypatch, ("_values", "_reduce_blocks"))
    assert_same_summary(run_path(config, checkpoints), reference_summary(config, checkpoints))
    assert calls == {"_values": 0, "_reduce_blocks": 1 + extra}


def test_a_path_checks_its_checkpoints_once(monkeypatch):
    # with_path checks only the path index, so a path of a dense spec checks its
    # checkpoints once, in run_path, not again in the constructor
    spec = dataclasses.replace(make_config(horizon=2000, n_paths=4), checkpoints=tuple(range(1, 2001)))
    calls = _counting(monkeypatch, ("_checkpoint_array",))
    summaries = diagnostics._run_paths(spec, range(3))
    assert calls == {"_checkpoint_array": 3}
    assert [s.path_index for s in summaries] == [0, 1, 2] and spec.with_path(2).path_index == 2
    assert dataclasses.replace(spec, path_index=2) == spec.with_path(2)


@st.composite
def ensemble_specs(draw, modes=tuple(SparsityMode), dependences=tuple(DependenceMode)):
    """A valid spec of a few paths, built around a path case."""
    config, checkpoints = draw(path_cases(modes, dependences))
    return dataclasses.replace(
        config, path_index=0, checkpoints=tuple(checkpoints), n_paths=draw(st.integers(2, 9)),
        envelope=draw(st.sampled_from((TailEnvelope.pareto(2.0), TailEnvelope.pareto(1.5),
                                       TailEnvelope.exponential()))),
        name=draw(st.text(max_size=8)),
        fraction_target=draw(st.sampled_from((0.1, 0.25, 1.0))),
        infrequency_threshold=draw(st.none() | st.floats(0.01, 100.0)),
    )


@settings(derandomize=True, deadline=None, max_examples=30)
@given(ensemble_specs())
def test_spec_round_trips_through_json(spec):
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@pytest.mark.parametrize("dependence", DependenceMode)
@pytest.mark.parametrize("mode", SparsityMode)
@settings(derandomize=True, deadline=None, max_examples=2)
@given(data=st.data())
def test_one_worker_equals_two_on_random_specs(mode, dependence, data):
    spec = data.draw(ensemble_specs((mode,), (dependence,)))
    one, two = run_ensemble(spec, threads=1), run_ensemble(spec, threads=2)
    assert np.array_equal(one.d_matrix, two.d_matrix)
    assert one.to_dict() == two.to_dict()


@pytest.mark.parametrize("dependence", DependenceMode)
@pytest.mark.parametrize("mode", SparsityMode)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_deviation_sup_nonincreasing_on_random_specs(mode, dependence, data):
    report = run_ensemble(data.draw(ensemble_specs((mode,), (dependence,))), threads=1)
    # compared, not differenced: an infinite D equal at two checkpoints is no increase
    for d in (report.d_matrix, report.median, report.q90, report.q99, *report.fractions_above.values()):
        assert np.all(d[..., 1:] <= d[..., :-1])


class _SteepSchedule(MomentSchedule):
    """Twice the exponents of its form, so the first ones exceed 1: the
    constructor checks the form, not an overridden ``value``, so only the
    sampler's own check on 1/a_n can refuse it."""

    def value(self, n, out=None):
        return 2.0 * super().value(n, out=out)


def test_workspace_rejects_bad_exponent():
    # the exponent check runs once per process, when the workspace is built
    spec = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ONE), horizon=50,
                       schedule=_SteepSchedule(ScheduleForm.INV_SQRT_LOG), n_paths=4)
    with pytest.raises(InvalidExponent):
        mixture.path_workspace(spec)
    with pytest.raises(InvalidExponent):
        run_path(spec, [50])
    for threads in (1, 2):  # a pool worker's error reaches the caller as raised
        with pytest.raises(InvalidExponent):
            run_ensemble(spec, threads=threads)


@pytest.mark.parametrize("name", ["theorem.json", "violate-sparsity.json"])
def test_workspace_peak_memory_is_what_it_keeps(name):
    # both keep three chunk-sized buffers (the chunk, n less its offset and
    # the divisor); theorem keeps 42 inserts with their offsets and a splice
    # buffer, violate-sparsity 1/a_n at 1e6 inserts;
    # on the way, the pattern's chunks reuse four chunk-sized float64 buffers
    # (n, its offsets, n**a_n and the AUTO target) and one of alpha
    spec = dataclasses.replace(cli.load_config(name), horizon=10 ** 6, checkpoints=(10 ** 6,))
    tracemalloc.start()
    try:
        workspace = mixture.path_workspace(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = workspace.chunk.nbytes + workspace.heavy.nbytes + workspace.ones.nbytes + workspace.divisor.nbytes
    kept += sum(inv.nbytes + (0 if at is None else at.nbytes) for at, inv in workspace.layout)
    assert workspace.chunk.size == mixture._CHUNK
    assert peak < kept + 4 * 8 * mixture._CHUNK


@pytest.mark.parametrize("name, block_bits, horizon", [
    *(pytest.param("theorem.json", bits, 3 * 10 ** 6, id=str(bits)) for bits in (1, 4, 8, 23)),
    pytest.param("pure-x.json", 8, 5 * 10 ** 6, id="8-pure-x")])
def test_run_path_peak_memory_does_not_grow_with_the_horizon(name, block_bits, horizon):
    # at block_bits 1 every value is a block, and the chunks are reduced per
    # index; at 4 and 8 a span holds three chunks, as the 2**14-block and
    # _SPAN_VALUES caps allow; at 23 one parity block spans 128 chunks; none is
    # held whole.  Pure-x path 1 to 5e6 at 8 bits evaluates some 150,000 values
    # of one span index by index, which the engine takes a batch at a time.
    # The workspace and the parity tables, kept for every path of a process,
    # are built first, by an untraced path
    spec = dataclasses.replace(cli.load_config(name), horizon=horizon,
                               checkpoints=(1, 10 ** 6, horizon), x_family=XFamily.parity(block_bits))
    workspace = mixture.path_workspace(spec)
    run_path(spec.with_path(2), spec.checkpoints, workspace)
    peaks = []
    for path in (0, 1):
        tracemalloc.start()
        try:
            run_path(spec.with_path(path), spec.checkpoints, workspace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.25 * 2 ** 20


@pytest.mark.parametrize("block_bits, count", [(20, 1), (12, 5 * 10 ** 6)])
def test_parity_sample_block_peak_memory_is_its_output(block_bits, count):
    # one value of a 2**20 - 1 value block, and 1221 whole 4095-value blocks
    # and a cut one: neither the whole cut block nor a table of 2**bits rows is built
    tracemalloc.start()
    try:
        values = XFamily.parity(block_bits).sample_block(count, _stream(make_config(), Channel.X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 2 * 2 ** 20
    assert np.array_equal(values, reference_parity(block_bits, count, _stream(make_config(), Channel.X)))


def test_workspace_of_another_spec_is_rejected():
    config = make_config(horizon=500)
    with pytest.raises(ValueError, match="workspace"):
        run_path(config, [100], mixture.path_workspace(dataclasses.replace(config, horizon=400, checkpoints=(400,))))
    # same horizon and insert count, inserts elsewhere
    first = make_config(pattern=SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(1, 0) * 250), horizon=500)
    second = make_config(pattern=SparsityPattern(mode=SparsityMode.EXPLICIT, explicit=(0, 1) * 250), horizon=500)
    with pytest.raises(ValueError, match="workspace"):
        run_path(second, [100], mixture.path_workspace(first))
    run_path(first.with_path(3), [100], mixture.path_workspace(first))


def test_nonfinite_values_counted():
    # a_n = 0.001 raises the Pareto draws to the power 1000: most overflow to inf
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ONE), horizon=300,
                         schedule=MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.001))
    with np.errstate(over="ignore"):
        values, _ = emit_values(config)
        summary = run_path(config, [300])
    assert summary.nonfinite_values == np.count_nonzero(~np.isfinite(values)) > 0
    assert run_path(make_config(horizon=300), [300]).nonfinite_values == 0


def test_schedule_evaluated_at_inserts_only(monkeypatch):
    points = []
    value = MomentSchedule.value

    def counted(self, n, out=None):
        points.append(np.size(n))
        return value(self, n, out=out)

    monkeypatch.setattr(MomentSchedule, "value", counted)
    for pattern in (build_sparsity(SCHED, 1.0), SparsityPattern(mode=SparsityMode.ALL_ZERO),
                    SparsityPattern(mode=SparsityMode.ALL_ONE)):
        config = make_config(pattern=pattern, horizon=10 ** 5)
        workspace = mixture.path_workspace(config)  # built once per process, not per path
        points.clear()
        summary = run_path(config, [10 ** 5], workspace)
        assert sum(points) == 0
        assert workspace.insert_count == summary.insert_count


def test_resummation_zero_ulp():
    config = make_config(x_family=XFamily.shifted_exp(1.0), horizon=400)
    values, _ = emit_values(config)
    total = 0.0
    for v in values.tolist():
        total += v
    assert total == float(np.cumsum(values)[-1])
    assert total / 400 == run_path(config, [400]).final_avg


def test_bookkeeping_counts():
    config = make_config(horizon=250)
    values, insert_count = emit_values(config)
    phi = config.pattern.phi(250)
    assert insert_count == phi[-1] == run_path(config, [250]).insert_count
    # heavy draws are >= 1 and the uniform X draws lie in [-1, 1)
    assert np.count_nonzero(values >= 1.0) == insert_count
    assert values.size - insert_count == 250 - phi[-1]


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
    with pytest.raises(ConfigError, match="horizon"):
        make_config(horizon=MAX_HORIZON + 1)


@pytest.mark.parametrize("changes, message", [
    (dict(path_index=-1), "path_index must be nonnegative"),
    (dict(epsilons=(0.1,)), "verdict.epsilon_target must be one of epsilons"),
    (dict(n_paths=MAX_PATHS, checkpoints=tuple(range(1, 102))), "n_paths * len(checkpoints) must be at most"),
    (dict(checkpoints=(math.nan,)), "checkpoints must be integers"),
    (dict(checkpoints=(1, math.nan)), "checkpoints must be integers"),
    (dict(checkpoints=(5, 5)), "checkpoints must be sorted and unique"),
    (dict(epsilons=(0.1, 0.05, 0.05)), "epsilons must be unique"),
    (dict(epsilons=(0.1, 0.05, 0.05000001)), "epsilons must be unique"),  # both columns frac_gt_0.05
], ids=["path_index", "epsilon_target", "path_checkpoints_cap", "checkpoint_nan", "checkpoints_nan",
        "checkpoints_repeated", "epsilons_repeated", "epsilons_same_column"])
def test_spec_is_checked_when_built(changes, message):
    config = make_config(horizon=500, n_paths=4)
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(config, **changes)
    if "path_index" in changes:
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.with_path(changes["path_index"])


def test_spec_at_the_path_checkpoints_cap_is_built():
    spec = dataclasses.replace(make_config(horizon=500), n_paths=MAX_PATHS, checkpoints=tuple(range(1, 101)))
    assert spec.n_paths * len(spec.checkpoints) == MAX_PATH_CHECKPOINTS


def _edge_values(spec, field):
    """The values the constructor must refuse or run: the small integers, the
    horizon and one above it, NaN and one over the field's cap, or for a
    tuple field, the empty, unsorted, repeated and dense tuples and those of
    one edge value (with the target, for the epsilons)."""
    h = spec.horizon
    scalars = [0, -1, 1, h, h + 1, math.nan]
    caps = {"horizon": [MAX_HORIZON + 1], "seed": [2 ** 64], "infrequency_threshold": [math.inf],
            "n_paths": [MAX_PATHS + 1, MAX_PATH_CHECKPOINTS // len(spec.checkpoints) + 1]}
    if field == "checkpoints":
        return [(), (h, 1), (1, 1), tuple(range(1, h + 1))] + [(v,) for v in scalars]
    if field == "epsilons":
        target = spec.epsilon_target
        return [(), (0.01, 0.2, target), (target, target)] + [e for v in scalars for e in ((v,), (target, v))]
    if field == "epsilon_target":
        return scalars + [spec.epsilons[-1]]  # an epsilon, though not the spec's target
    return scalars + caps.get(field, [])


_EDGE_FIELDS = ("horizon", "seed", "path_index", "n_paths", "checkpoints", "epsilons", "epsilon_target",
                "fraction_target", "infrequency_threshold")


@pytest.mark.parametrize("field", _EDGE_FIELDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_spec_refused_when_built_or_runs(field, data):
    # a valid tiny spec with one field replaced by an edge value: refused by the
    # constructor, or run by every entry point without a later refusal
    config, checkpoints = data.draw(path_cases())
    dense = data.draw(st.booleans())
    spec = dataclasses.replace(config, path_index=0, n_paths=data.draw(st.integers(2, 4)),
                               checkpoints=tuple(range(1, config.horizon + 1)) if dense else tuple(checkpoints))
    value = data.draw(st.sampled_from(_edge_values(spec, field)))
    try:
        edged = dataclasses.replace(spec, **{field: value})
    except ConfigError:
        return
    run_path(edged, edged.checkpoints)
    run_ensemble(edged, threads=1)
    verify_hypotheses(edged)


def _best_of_3(config, checkpoints, workspace):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run_path(config, checkpoints, workspace)
        times.append(time.perf_counter() - start)
    return min(times)


def test_dense_checkpoints_take_linear_time():
    # a checkpoint at every index adds one reduceat entry, not a rescan of the rest of its chunk
    # (measured on a 2-core Xeon: a ratio of about 30, and about 400 with the rescan)
    horizon = 2 * CH
    config = dataclasses.replace(cli.load_config("theorem.json"), horizon=horizon, checkpoints=(horizon,))
    workspace = mixture.path_workspace(config)
    one = _best_of_3(config, [horizon], workspace)
    every = _best_of_3(config, range(1, horizon + 1), workspace)
    assert every / one < 100


def test_uniform_pure_x_average_small():
    # CLT at the horizon: 3 sigma / sqrt(n) with sigma^2 = 1/3
    config = make_config(pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO),
                         horizon=10 ** 6, seed=0)
    summary = run_path(config, [10 ** 6])
    assert abs(summary.final_avg) < 0.00173


def test_checkpoint_validation():
    config = make_config(horizon=100)
    for checkpoints in ([0], [101], []):
        with pytest.raises(ConfigError, match=re.escape("checkpoints must lie in [1, horizon]")):
            run_path(config, checkpoints)


def test_comonotone_draws_share_one_uniform():
    pattern = SparsityPattern(mode=SparsityMode.ALL_ONE)
    config = make_config(pattern=pattern, dependence=DependenceMode.COMONOTONE, horizon=50)
    values, _ = emit_values(config)
    shared = derive_stream(StreamKey(9, 0, Channel.SHARED)).next()
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
