import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate as integrate

from slln_lab import cli
from slln_lab.errors import DivergentIntegral
from slln_lab.generators import TailEnvelope, XFamily
from slln_lab.hypotheses import (
    cesaro_tail_constant,
    infrequency_check,
    v_moment_check,
    verify_hypotheses,
)
from slln_lab.quadrature import adaptive_simpson, integrate_piecewise
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import (
    MomentSchedule,
    ScheduleForm,
    SparsityMode,
    SparsityPattern,
    build_sparsity,
)

SCHED = MomentSchedule(ScheduleForm.INV_SQRT_LOG)


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
    theorem = cli.load_config("theorem.json")
    for env, integral in ((TailEnvelope.exponential(), 1.0), (TailEnvelope.pareto(2.0), 2.0),
                          (TailEnvelope.pareto(1.5), 3.0)):
        entry = verify_hypotheses(replace(theorem, envelope=env)).entry("ENVELOPE")
        assert (entry.status, entry.value) == ("PASS", integral)


def test_envelope_monotone_on_log_grid():
    for env in (TailEnvelope.exponential(), TailEnvelope.pareto(1.5)):
        t = np.geomspace(1e-3, 1e3, 1000)
        g = env.survival(t)
        assert np.all(np.diff(g) <= 0)
        assert g[0] <= 1.0


def test_v_moment_check():
    exp_report = v_moment_check(TailEnvelope.exponential())
    assert exp_report.status == "PASS"
    assert exp_report.mean_v == 1.0
    pareto_report = v_moment_check(TailEnvelope.pareto(2.0), SCHED)
    assert pareto_report.mean_v == 2.0
    assert pareto_report.infinite_mean_onset_index == 55


def test_v_moment_empirical_median():
    env = TailEnvelope.pareto(2.0)
    v = env.sample_v(derive_stream(StreamKey(77, 0, Channel.Y)).uniforms(10 ** 6))
    assert abs(np.median(v) - 2.0 ** 0.5) < 0.01


# --- infrequency ------------------------------------------------------------------------

def test_infrequency_pass_for_built_pattern():
    pattern = build_sparsity(SCHED, 1.0)
    report = infrequency_check(pattern, SCHED, 10 ** 5)
    assert report.status == "PASS"
    assert report.sup_ratio <= 2.0


def test_infrequency_fail_for_dense_pattern():
    report = infrequency_check(SparsityPattern(mode=SparsityMode.ALL_ONE), SCHED, 10 ** 4)
    assert report.status == "FAIL"
    assert report.sup_ratio == pytest.approx(10 ** 4 / math.exp(math.sqrt(math.log(10 ** 4))), rel=1e-9)
    assert report.new_max_in_last_decade


def test_infrequency_trivial_for_empty_pattern():
    report = infrequency_check(SparsityPattern(mode=SparsityMode.ALL_ZERO), SCHED, 10 ** 4)
    assert report.status == "PASS"
    assert report.sup_ratio == 0.0


# --- umbrella -----------------------------------------------------------------------------

# (id, status, repr(value)) of every entry, for each bundled fixture
FIXTURE_HYPOTHESES = {
    "theorem.json": [
        ("CENTERING", "PASS", "0.0"), ("CESARO_TAIL", "PASS", "1.0"), ("V_MOMENT", "PASS", "2.0"),
        ("ENVELOPE", "PASS", "2.0"), ("INFREQUENCY", "PASS", "1.2392161941376152"), ("A_LN_N", "PASS", "8104.0"),
    ],
    "pure-x.json": [
        ("CENTERING", "PASS", "0.0"), ("CESARO_TAIL", "PASS", "1.0"), ("V_MOMENT", "PASS", "2.0"),
        ("ENVELOPE", "PASS", "2.0"), ("INFREQUENCY", "PASS", "0.0"), ("A_LN_N", "PASS", "8104.0"),
    ],
    "violate-sparsity.json": [
        ("CENTERING", "PASS", "0.0"), ("CESARO_TAIL", "PASS", "1.0"), ("V_MOMENT", "PASS", "2.0"),
        ("ENVELOPE", "PASS", "2.0"), ("INFREQUENCY", "FAIL", "3360.5342818204476"), ("A_LN_N", "PASS", "8104.0"),
    ],
    "violate-x-mean.json": [
        ("CENTERING", "FAIL", "nan"), ("CESARO_TAIL", "FAIL", "inf"), ("V_MOMENT", "PASS", "2.0"),
        ("ENVELOPE", "PASS", "2.0"), ("INFREQUENCY", "PASS", "0.0"), ("A_LN_N", "PASS", "8104.0"),
    ],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_HYPOTHESES))
def test_fixture_hypotheses_are_pinned(name):
    report = verify_hypotheses(cli.load_config(name))
    assert [(e.id, e.status, repr(e.value)) for e in report.entries] == FIXTURE_HYPOTHESES[name]


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
