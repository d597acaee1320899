import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate as integrate

from slln_lab import cli
from slln_lab.errors import DivergentIntegral
from slln_lab.generators import TailEnvelope, XFamily
from slln_lab.hypotheses import cesaro_tail_constant, verify_hypotheses
from slln_lab.quadrature import adaptive_simpson, integrate_piecewise
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import (
    _CHUNK,
    MomentSchedule,
    ScheduleForm,
    SparsityMode,
    SparsityPattern,
    build_sparsity,
)

SCHED = MomentSchedule(ScheduleForm.INV_SQRT_LOG)


def _theorem_entry(entry_id, **changes):
    """One hypothesis entry of theorem.json with ``changes`` to its spec; a
    new horizon clips the checkpoints, as ``slln run --horizon`` does."""
    spec = cli.load_config("theorem.json")
    if "horizon" in changes:
        changes.setdefault("checkpoints", cli._clip_checkpoints(spec.checkpoints, changes["horizon"]))
    return verify_hypotheses(replace(spec, **changes)).entry(entry_id)


# --- quadrature engine (no caller in the package; the benchmark trace wraps it) ----

def test_adaptive_simpson_against_closed_forms():
    assert adaptive_simpson(lambda x: x * x, 0.0, 3.0, tol=1e-12) == pytest.approx(9.0, abs=1e-10)
    assert adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12) == pytest.approx(math.e - 1.0, abs=1e-10)
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10) == pytest.approx(2.0, abs=1e-9)


def test_adaptive_simpson_against_scipy():
    for f, a, b in [(lambda x: math.exp(-x), 0.0, 40.0),
                    (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0),
                    (lambda x: x ** 1.5 * math.exp(-x), 0.0, 30.0)]:
        mine = adaptive_simpson(f, a, b, tol=1e-10)
        ref = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12)[0]
        assert mine == pytest.approx(ref, abs=1e-9)


def test_piecewise_handles_kinks():
    f = lambda x: 1.0 if x < 1.0 else x ** -2.0
    value = integrate_piecewise(f, [0.0, 1.0, 100.0], tol=1e-10)
    assert value == pytest.approx(2.0 - 0.01, abs=1e-9)


# --- tail integral constants -------------------------------------------------------

def test_cesaro_constant_uniform():
    assert cesaro_tail_constant(XFamily.uniform(1.0)) == 0.5


def test_cesaro_constant_parity():
    assert cesaro_tail_constant(XFamily.parity(2)) == 1.0


def test_cesaro_constant_shifted_exp():
    # E|X| = 2 / (rate * e)
    assert cesaro_tail_constant(XFamily.shifted_exp(1.0)) == pytest.approx(2.0 / math.e, rel=1e-15)
    assert cesaro_tail_constant(XFamily.shifted_exp(2.0)) == pytest.approx(1.0 / math.e, rel=1e-15)


def test_cesaro_constant_pareto():
    # E|W - m| = 2 m^(1-shape) / (shape - 1); shape 2 gives exactly 1
    assert cesaro_tail_constant(XFamily.pareto_centered(2.0)) == 1.0


def test_cesaro_constant_is_the_closed_form_mean():
    # the closed form itself is held to an mpmath integral of the tail in test_generators.py
    for fam in (XFamily.uniform(2.0), XFamily.shifted_exp(0.5), XFamily.shifted_exp(1e6), XFamily.parity(3),
                XFamily.pareto_centered(3.0)):
        assert cesaro_tail_constant(fam) == fam.mean_abs()


def test_cesaro_divergent_for_infinite_mean():
    with pytest.raises(DivergentIntegral):
        cesaro_tail_constant(XFamily.pareto_centered(1.0))


# --- envelope checks ------------------------------------------------------------------

def test_envelope_constants():
    # the ENVELOPE entry reads the closed-form integral, held to mpmath in test_generators.py
    for env, integral in ((TailEnvelope.exponential(), 1.0), (TailEnvelope.pareto(2.0), 2.0),
                          (TailEnvelope.pareto(1.5), 3.0)):
        entry = _theorem_entry("ENVELOPE", envelope=env)
        assert (entry.status, entry.value) == ("PASS", integral)


def test_envelope_monotone_on_log_grid():
    for env in (TailEnvelope.exponential(), TailEnvelope.pareto(1.5)):
        t = np.geomspace(1e-3, 1e3, 1000)
        g = env.survival(t)
        assert np.all(np.diff(g) <= 0)
        assert g[0] <= 1.0


def test_v_moment_check():
    exp_entry = _theorem_entry("V_MOMENT", envelope=TailEnvelope.exponential())
    assert (exp_entry.status, exp_entry.value) == ("PASS", 1.0)
    assert "lose their mean" not in exp_entry.detail
    pareto_entry = _theorem_entry("V_MOMENT", envelope=TailEnvelope.pareto(2.0))
    assert pareto_entry.value == 2.0
    assert pareto_entry.detail.endswith("transformed draws lose their mean from index 55")


def test_v_moment_empirical_median():
    env = TailEnvelope.pareto(2.0)
    v = env.sample_v(derive_stream(StreamKey(77, 0, Channel.Y)).uniforms(10 ** 6))
    assert abs(np.median(v) - 2.0 ** 0.5) < 0.01


# --- infrequency ------------------------------------------------------------------------

def test_infrequency_pass_for_built_pattern():
    entry = _theorem_entry("INFREQUENCY", horizon=10 ** 5, pattern=build_sparsity(SCHED, 1.0))
    assert entry.status == "PASS"
    assert entry.value <= 2.0


def test_infrequency_fail_for_dense_pattern():
    # n / n**a_n at horizon 1e4: 1e4 / e^{sqrt(ln 1e4)} = 480.84...
    entry = _theorem_entry("INFREQUENCY", horizon=10 ** 4, pattern=SparsityPattern(mode=SparsityMode.ALL_ONE))
    assert entry.status == "FAIL"
    assert entry.value == pytest.approx(10 ** 4 / math.exp(math.sqrt(math.log(10 ** 4))), rel=1e-9)
    assert entry.value == pytest.approx(481, abs=1.0)
    assert entry.detail.endswith("(new max in last decade: True)")


def test_infrequency_trivial_for_empty_pattern():
    entry = _theorem_entry("INFREQUENCY", horizon=10 ** 4, pattern=SparsityPattern(mode=SparsityMode.ALL_ZERO))
    assert entry.status == "PASS"
    assert entry.value == 0.0


def test_infrequency_counts_the_pattern_own_inserts():
    # an AUTO pattern built from another schedule than the spec's keeps its own inserts
    constant = MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5)
    n = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    want = np.max(build_sparsity(SCHED, 1.0).phi(10 ** 4) / np.power(n, 0.5))
    assert _theorem_entry("INFREQUENCY", horizon=10 ** 4, schedule=constant).value == want


# --- umbrella -----------------------------------------------------------------------------

# (id, status, repr(value), detail) of every entry, for each bundled fixture, recorded at 7ad2ba8
_CENTERED = [
    ("CENTERING", "PASS", "0.0", "family is centered by construction"),
    ("CESARO_TAIL", "PASS", "1.0", "tail integral from start index 1 equals E|X| = 1"),
]
_V_MOMENT_ENVELOPE = [
    ("V_MOMENT", "PASS", "2.0",
     "mean of the base variable = envelope integral = 2; transformed draws lose their mean from index 55"),
    ("ENVELOPE", "PASS", "2.0", "nonincreasing envelope with finite integral"),
]
_NO_INSERTS = ("INFREQUENCY", "PASS", "0.0", "sup ratio 0 vs threshold 10 (new max in last decade: False)")
_A_LN_N = ("A_LN_N", "PASS", "8104.0", "a_n*ln n reaches 3.0 at n=8104")
FIXTURE_HYPOTHESES = {
    "theorem.json": _CENTERED + _V_MOMENT_ENVELOPE + [
        ("INFREQUENCY", "PASS", "1.2392161941376152",
         "sup ratio 1.23922 vs threshold 10 (new max in last decade: False)"),
        _A_LN_N,
    ],
    "pure-x.json": _CENTERED + _V_MOMENT_ENVELOPE + [_NO_INSERTS, _A_LN_N],
    "violate-sparsity.json": _CENTERED + _V_MOMENT_ENVELOPE + [
        ("INFREQUENCY", "FAIL", "3360.5342818204476",
         "sup ratio 3360.53 vs threshold 10 (new max in last decade: True)"),
        _A_LN_N,
    ],
    "violate-x-mean.json": [
        ("CENTERING", "FAIL", "nan", "Pareto shape 1.0: no finite mean, centering impossible"),
        ("CESARO_TAIL", "FAIL", "inf", "tail integral beyond any budget: Pareto shape 1.0 has no mean"),
    ] + _V_MOMENT_ENVELOPE + [_NO_INSERTS, _A_LN_N],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_HYPOTHESES))
def test_fixture_hypotheses_are_pinned(name):
    report = verify_hypotheses(cli.load_config(name))
    assert [(e.id, e.status, repr(e.value), e.detail) for e in report.entries] == FIXTURE_HYPOTHESES[name]


def test_verify_hypotheses_theorem_config():
    spec = cli.load_config("theorem.json")
    report = verify_hypotheses(spec)
    assert report.all_pass()
    assert report.entry("CESARO_TAIL").value == 1.0
    assert report.entry("ENVELOPE").value == 2.0
    assert report.entry("A_LN_N").value == 8104


def test_verify_hypotheses_flags_dense_inserts():
    spec = cli.load_config("violate-sparsity.json")
    report = verify_hypotheses(spec)
    assert not report.all_pass()
    assert report.entry("INFREQUENCY").status == "FAIL"
    assert report.entry("CENTERING").status == "PASS"


def test_verify_hypotheses_flags_uncentered_family():
    spec = cli.load_config("violate-x-mean.json")
    report = verify_hypotheses(spec)
    assert report.entry("CENTERING").status == "FAIL"
    assert report.entry("CESARO_TAIL").status == "FAIL"
    assert report.entry("CESARO_TAIL").value == math.inf


@pytest.mark.parametrize("name", ["theorem.json", "pure-x.json"])
def test_schedule_is_evaluated_once(name, monkeypatch):
    # one pass of a_n over the 1e6 indices, in chunks, feeds the AUTO pattern
    # and the INFREQUENCY ratio; the A_LN_N search evaluates scalars
    spec = cli.load_config(name)
    points = []
    value = MomentSchedule.value

    def counting(self, n, out=None):
        if not np.isscalar(n):
            points.append(np.size(n))
        return value(self, n, out=out)

    monkeypatch.setattr(MomentSchedule, "value", counting)
    verify_hypotheses(spec)
    assert sum(points) == 10 ** 6
    assert max(points) <= _CHUNK


def test_verify_hypotheses_peak_memory_is_chunk_sized():
    # whole-horizon float64 temporaries would take 7.6 MiB each at 1e6
    spec = cli.load_config("theorem.json")
    tracemalloc.start()
    try:
        verify_hypotheses(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
