"""Acceptance suite.

One test per criterion; each prints a PASS line with its witness once its
assertions hold (run with ``pytest -s`` to see them).  Criteria 4 and 8
share the two full-scale ensemble runs through module-scoped fixtures.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from slln_lab import cli
from slln_lab.calculus import (
    bound_suite,
    build_block_schedule,
    kronecker_check,
    weighted_y_series,
    weighted_y_series_ensemble,
)
from slln_lab.errors import DivergentIntegral
from slln_lab.generators import TailEnvelope, XFamily
from slln_lab.hypotheses import cesaro_tail_constant
from slln_lab.rng import Channel, StreamKey, derive_stream
from slln_lab.schedules import MomentSchedule, ScheduleForm


def _announce(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# --- criterion 1: proof-calculus bound suite ------------------------------------------

def test_criterion_1_bound_suite():
    t0 = time.perf_counter()
    rows = bound_suite(
        envelopes=(TailEnvelope.exponential(), TailEnvelope.pareto(1.5), TailEnvelope.pareto(2.0)),
        ps=(1.01, 1.5, 2.0, 3.0, 10.0),
    )
    elapsed = time.perf_counter() - t0
    assert len(rows) == 15
    slacks = []
    for row in rows:
        for name in ("slack_A", "slack_B", "slack_combined"):
            assert row[name] >= 0.0, f"{row['envelope']} p={row['p']}: {name} negative"
            slacks.append(row[name])
    assert len(slacks) == 45
    assert elapsed < 10.0
    _announce(1, f"45 bound assertions hold, min slack {min(slacks):.4g}, {elapsed:.2f}s")


# --- criterion 2: hypothesis constants -------------------------------------------------

def test_criterion_2_hypothesis_constants():
    t0 = time.perf_counter()
    c_uniform = cesaro_tail_constant(XFamily.uniform(1.0))
    assert c_uniform == pytest.approx(0.5, abs=1e-9)
    c_exp = TailEnvelope.exponential().integral()
    assert c_exp == pytest.approx(1.0, abs=1e-9)
    c_pareto = TailEnvelope.pareto(2.0).integral()
    assert c_pareto == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(DivergentIntegral):
        cesaro_tail_constant(XFamily.pareto_centered(1.0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(2, f"constants 0.5 / 1 / 2 within 1e-9; infinite mean flagged; {elapsed:.2f}s")


# --- criterion 3: pairwise independence -------------------------------------------------

def test_criterion_3_pairwise_independence():
    t0 = time.perf_counter()
    n_blocks = 10 ** 5
    blocks = XFamily.parity(2).sample_block(
        3 * n_blocks, derive_stream(StreamKey(0, 0, Channel.X))
    ).reshape(n_blocks, 3)
    bound = 4.0 * math.sqrt(0.25 * 0.75 / n_blocks)  # 0.0055
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    cell = float(np.mean((blocks[:, i] == si) & (blocks[:, j] == sj)))
                    worst = max(worst, abs(cell - 0.25))
                    assert abs(cell - 0.25) < bound
    impossible = int(np.sum((blocks[:, 0] == 1) & (blocks[:, 1] == 1) & (blocks[:, 2] == -1)))
    assert impossible == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(3, f"worst joint-cell deviation {worst:.4f} < {bound:.4f}; impossible event count 0; {elapsed:.2f}s")


# --- criteria 4 and 8: theorem regime, determinism across workers -------------------------

@pytest.fixture(scope="module")
def theorem_run_threads8(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorem8")
    spec = cli.load_config("theorem.json")
    t0 = time.perf_counter()
    code = cli.run(spec, subcommand="simulate", out_dir=out, threads=8)
    elapsed = time.perf_counter() - t0
    return out, code, elapsed


@pytest.fixture(scope="module")
def theorem_run_threads1(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorem1")
    spec = cli.load_config("theorem.json")
    code = cli.run(spec, subcommand="simulate", out_dir=out, threads=1)
    return out, code


def test_criterion_4_theorem_regime(theorem_run_threads8):
    out, code, elapsed = theorem_run_threads8
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    conv = report["convergence"]
    assert report["status"]["convergence"] == "CONVERGENT"
    assert conv["epsilon_target"] == 0.05
    assert conv["fraction_target"] == 0.10
    frac_final = conv["fractions_above"]["0.05"][-1]
    assert frac_final < 0.10
    checkpoints = conv["checkpoints"]
    medians = conv["median_D"]
    idx = [checkpoints.index(c) for c in (10 ** 4, 10 ** 5, 10 ** 6)]
    window = [medians[i] for i in idx]
    assert window[0] > window[1] > window[2]
    assert elapsed < 120.0
    _announce(4, f"CONVERGENT at eps 0.05 (final fraction {frac_final:.3f}); "
                 f"median D over 1e4/1e5/1e6: {window[0]:.4f} > {window[1]:.4f} > {window[2]:.5f}; {elapsed:.1f}s")


# sha256 of theorem.json's deviations.csv, recorded at 84ecdc7 (bench/references.json)
# and reproduced at 5deae7e
THEOREM_DEVIATIONS_SHA256 = "b1f8e856085b895f602608bde7812c542be14c6d451cf694b7f72b65601576d7"


def test_criterion_8_worker_count_determinism(theorem_run_threads8, theorem_run_threads1):
    out8, _, _ = theorem_run_threads8
    out1, code1 = theorem_run_threads1
    assert code1 == 0
    bytes8 = (out8 / "deviations.csv").read_bytes()
    bytes1 = (out1 / "deviations.csv").read_bytes()
    assert bytes8 == bytes1
    assert hashlib.sha256(bytes8).hexdigest() == THEOREM_DEVIATIONS_SHA256
    _announce(8, f"deviations.csv byte-identical across 1 and 8 workers and to its pin ({len(bytes8)} bytes)")


# sha256 of pure-x.json's deviations.csv, recorded at 7ad2ba8
PURE_X_DEVIATIONS_SHA256 = "cd64014681609b9e8a47d4af982cc70f35c57ab72944615462f5b0139c3858f9"


def test_pure_x_deviations_are_pinned(tmp_path):
    code = cli.run(cli.load_config("pure-x.json"), subcommand="simulate", out_dir=tmp_path)
    assert code == 0
    assert hashlib.sha256((tmp_path / "deviations.csv").read_bytes()).hexdigest() == PURE_X_DEVIATIONS_SHA256


# --- criterion 5: counterexample sensitivity -----------------------------------------------

# sha256 of each counterexample's deviations.csv, recorded at 7ad2ba8
COUNTEREXAMPLE_DEVIATIONS_SHA256 = {
    "violate-sparsity.json": "bd9189d5fe651357ba5e2c45703e1352a3a269c6648468b73fac27a0093f094c",
    "violate-x-mean.json": "2755456faf2e6a19ce27859cad80c2c2fdbf096b00e333cf9358e470b45edd31",
}


def test_criterion_5_counterexamples(tmp_path):
    t0 = time.perf_counter()
    verdicts = {}
    for fixture in ("violate-sparsity.json", "violate-x-mean.json"):
        spec = cli.load_config(fixture)
        assert spec.horizon == 10 ** 5 and spec.n_paths == 100
        assert spec.epsilon_target == 0.05 and spec.fraction_target == 0.10
        out = tmp_path / fixture.replace(".json", "")
        code = cli.run(spec, subcommand="simulate", out_dir=out)
        report = json.loads((out / "report.json").read_text())
        verdicts[fixture] = report["status"]["convergence"]
        assert code == 1
        assert verdicts[fixture] != "CONVERGENT"
        digest = hashlib.sha256((out / "deviations.csv").read_bytes()).hexdigest()
        assert digest == COUNTEREXAMPLE_DEVIATIONS_SHA256[fixture]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(5, f"verdicts {verdicts}; {elapsed:.1f}s")


# --- criterion 6: weighted heavy series ------------------------------------------------------

# sha256 of the repr of the ensemble's increments as a list of floats (as bench/workloads.py
# hashes them), recorded at 7ad2ba8; bench/references.json holds the same value
WEIGHTED_INCREMENTS_SHA256 = "250841bd0c27eb01191fb37e9f4d86a35d06134cb889a87893b75ee3c1d2510c"


def test_criterion_6_weighted_series():
    ens = weighted_y_series_ensemble(
        TailEnvelope.pareto(2.0), MomentSchedule(ScheduleForm.INV_SQRT_LOG),
        c=1.0, k_max=10 ** 4, n_paths=100, master_seed=0,
    )
    assert ens.fraction_converged >= 0.95
    increments = [float(x) for x in ens.increments]
    assert hashlib.sha256(repr(increments).encode()).hexdigest() == WEIGHTED_INCREMENTS_SHA256
    det = weighted_y_series(np.ones(10 ** 4), np.full(10 ** 4, 0.5))
    assert abs(det.total - math.pi ** 2 / 6.0) < 1e-3
    _announce(6, f"{ens.fraction_converged:.0%} of 100 paths converged; "
                 f"deterministic partial sum off zeta(2) by {abs(det.total - math.pi ** 2 / 6.0):.2e}")


# --- criterion 7: series-to-average utility and block construction ----------------------------

def test_criterion_7_kronecker_and_blocks():
    k = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    alternating = kronecker_check((-1.0) ** k, k)
    assert alternating.status == "PASS"
    assert alternating.scaled_average_final <= 1.0 / 10 ** 4
    diverging = kronecker_check(np.ones(k.size), k)
    assert diverging.status == "PREMISE_FAILED"
    squares = kronecker_check(1.0 / k ** 2, k)
    assert squares.status == "PASS"
    assert squares.scaled_average_final <= (math.pi ** 2 / 6.0) / 10 ** 4

    blocks = build_block_schedule(
        TailEnvelope.exponential(), MomentSchedule(ScheduleForm.CONSTANT, constant_a=0.5), 5
    )
    assert all(b > a for a, b in zip(blocks.boundaries, blocks.boundaries[1:]))
    for idx, tail in enumerate(blocks.tail_bounds, start=1):
        assert tail < 1.0 / idx ** 2
    _announce(7, f"kronecker examples PASS/PREMISE_FAILED/PASS; boundaries {blocks.boundaries}")
