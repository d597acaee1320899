import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slln_lab import cli, mixture
from slln_lab.diagnostics import MAX_THREADS
from slln_lab.errors import ConfigError
from slln_lab.generators import DependenceMode, EnvelopeKind, XKind
from slln_lab.mixture import MAX_PATH_CHECKPOINTS, MAX_PATHS
from slln_lab.schedules import MomentSchedule, ScheduleForm, SparsityMode


def test_bundled_theorem_fixture():
    spec = cli.load_config("theorem.json")
    assert spec.x_family.kind is XKind.PARITY_RADEMACHER
    assert spec.envelope.kind is EnvelopeKind.PARETO
    assert spec.envelope.gamma == 2.0
    assert spec.dependence is DependenceMode.COMONOTONE
    assert spec.schedule.form is ScheduleForm.INV_SQRT_LOG
    assert spec.pattern.c == 1.0
    assert spec.seed == 0
    assert spec.n_paths == 200
    assert spec.horizon == 10 ** 6


FIXTURES = ("theorem.json", "pure-x.json", "violate-x-mean.json", "violate-sparsity.json")


def test_import_and_fixture_loading_leave_scipy_unloaded():
    # scipy takes about 0.3 s to import; only the exp envelope's power integral needs it
    script = ("import sys; from slln_lab import cli; "
              f"[cli.load_config(name) for name in {FIXTURES!r}]; print('scipy' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_bundled_violation_fixtures():
    sparsity = cli.load_config("violate-sparsity.json")
    assert sparsity.pattern.mode is SparsityMode.ALL_ONE
    mean = cli.load_config("violate-x-mean.json")
    assert mean.x_family.kind is XKind.IID_PARETO_CENTERED
    assert mean.x_family.shape == 1.0


def test_constant_a_out_of_range_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "schedule": {"form": "constant", "constant_a": 1.5}}))
    with pytest.raises(ConfigError, match="out of \\(0,1\\]"):
        cli.load_config(bad)


def test_parse_error_carries_line(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",\n  "seed": }')
    with pytest.raises(ConfigError, match="line 2"):
        cli.load_config(bad)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("no-such-config.json")


def test_missing_seed_defaults_to_zero(tmp_path):
    cfg = tmp_path / "min.json"
    cfg.write_text(json.dumps({"name": "minimal", "horizon": 100, "checkpoints": [10, 100]}))
    spec = cli.load_config(cfg)
    assert spec.seed == 0
    assert spec.to_dict()["seed"] == 0  # echoed back for provenance


def test_integral_floats_are_integers(tmp_path):
    cfg = tmp_path / "floats.json"
    cfg.write_text(json.dumps({
        "horizon": 100.0, "seed": 3.0, "n_paths": 4.0, "checkpoints": [10.0, 100],
        "x": {"family": "parity_rademacher", "params": {"block_bits": 3.0}},
    }))
    spec = cli.load_config(cfg)
    assert (spec.horizon, spec.seed, spec.n_paths, spec.checkpoints) == (100, 3, 4, (10, 100))
    assert spec.x_family.block_bits == 3
    assert all(type(v) is int for v in (spec.horizon, spec.seed, spec.n_paths, *spec.checkpoints))


def test_spec_roundtrip():
    for fixture in ("theorem.json", "pure-x.json", "violate-sparsity.json", "violate-x-mean.json"):
        spec = cli.load_config(fixture)
        again = cli.ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()


def test_checkpoint_validation(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"name": "c", "horizon": 100, "checkpoints": [10, 200]}))
    with pytest.raises(ConfigError, match="checkpoints"):
        cli.load_config(cfg)


def _small_spec(**overrides):
    spec = cli.load_config("theorem.json")
    small = dict(horizon=2 * 10 ** 4, n_paths=10, checkpoints=(10 ** 3, 10 ** 4, 2 * 10 ** 4))
    small.update(overrides)
    return dataclasses.replace(spec, **small)


# sha256 of the calculus.csv of every bundled fixture (all Pareto(2)), recorded at 7ad2ba8
CALCULUS_SHA256 = "47491ddaee7f66278c5659ceed44c7095800f0967e9bdaa79c318f4f1bff6db0"


def _calculus_sha256(out: Path) -> str:
    return hashlib.sha256((out / "calculus.csv").read_bytes()).hexdigest()


def test_run_calculus_section(tmp_path):
    code = cli.run(_small_spec(), subcommand="calculus", out_dir=tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"]["calculus"] == "PASS"
    assert report["exit_code"] == 0
    csv = (tmp_path / "calculus.csv").read_text().splitlines()
    assert csv[0] == "envelope,p,A,bound_A,B,bound_B,combined,bound_combined"
    assert len(csv) == 6  # five exponents for the config envelope
    assert _calculus_sha256(tmp_path) == CALCULUS_SHA256


def test_run_simulate_writes_artifacts(tmp_path):
    code = cli.run(_small_spec(), subcommand="simulate", out_dir=tmp_path, plot=True)
    assert code == 0
    assert (tmp_path / "deviations.csv").exists()
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"]["convergence"] == "CONVERGENT"
    assert report["spec"]["horizon"] == 2 * 10 ** 4


def test_csv_has_17_significant_digits(tmp_path):
    cli.run(_small_spec(), subcommand="simulate", out_dir=tmp_path)
    lines = (tmp_path / "deviations.csv").read_text().splitlines()
    header, first = lines[0], lines[1].split(",")
    assert header.startswith("checkpoint,median_D,q90_D,q99_D,frac_gt_")
    # round-trip: parse and re-format reproduces the cell exactly
    for cell in first[1:4]:
        assert "{:.17g}".format(float(cell)) == cell


def test_rerun_from_embedded_spec_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    cli.run(_small_spec(), subcommand="simulate", out_dir=first)
    embedded = json.loads((first / "report.json").read_text())["spec"]
    respec = cli.ExperimentSpec.from_dict(embedded)
    cli.run(respec, subcommand="simulate", out_dir=second, threads=2)
    assert (first / "deviations.csv").read_bytes() == (second / "deviations.csv").read_bytes()


def test_violation_run_exits_nonzero(tmp_path):
    spec = dataclasses.replace(
        cli.load_config("violate-sparsity.json"),
        horizon=10 ** 4, n_paths=10, checkpoints=(10 ** 3, 5 * 10 ** 3, 10 ** 4),
    )
    code = cli.run(spec, subcommand="all", out_dir=tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"]["convergence"] != "CONVERGENT"
    assert "hypotheses" in report["failures"]
    assert report["exit_code"] == 1
    assert _calculus_sha256(tmp_path) == CALCULUS_SHA256


def test_main_entrypoint(tmp_path):
    out = tmp_path / "out"
    code = cli.main([
        "run", "theorem.json",
        "--horizon", "10000", "--paths", "6", "--seed", "1",
        "--out", str(out), "--subcommand", "simulate",
    ])
    report = json.loads((out / "report.json").read_text())
    assert code == report["exit_code"]
    assert report["spec"]["seed"] == 1
    assert report["spec"]["n_paths"] == 6
    assert report["threads"] == cli.default_threads()
    # horizon override clips checkpoints and keeps the horizon as the last one
    assert report["spec"]["checkpoints"][-1] == 10000
    assert (out / "deviations.csv").exists()


def test_default_threads_are_the_usable_cpus_up_to_4(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
    assert cli.default_threads() == 4
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert cli.default_threads() == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli.default_threads() == 3


def test_main_entrypoint_calculus_exit_zero(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "theorem.json", "--out", str(out), "--subcommand", "calculus"]) == 0
    assert _calculus_sha256(out) == CALCULUS_SHA256


def test_main_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": {"form": "constant", "constant_a": 2.0}}))
    assert cli.main(["run", str(bad)]) == 2


def _main_on(tmp_path, data, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out), *flags])
    return code, out


@pytest.mark.parametrize("flags", [(), ("--seed", "3")], ids=["loaded", "overridden"])
def test_main_evaluates_the_schedule_only_for_the_hypotheses(tmp_path, monkeypatch, flags):
    # validation evaluates no a_n, overridden or not: the hypotheses take 1e6
    counted = []
    value = MomentSchedule.value

    def counting(self, n, out=None):
        if not np.isscalar(n):
            counted.append(np.size(n))
        return value(self, n, out=out)

    monkeypatch.setattr(MomentSchedule, "value", counting)
    args = ["run", "theorem.json", "--subcommand", "hypotheses", "--out", str(tmp_path / "out"), *flags]
    assert cli.main(args) == 0
    assert sum(counted) == 10 ** 6


def test_main_paths_override_is_validated(tmp_path, capsys):
    assert cli.main(["run", "theorem.json", "--subcommand", "hypotheses", "--paths", "1",
                     "--out", str(tmp_path / "out")]) == 2
    assert "n_paths" in json.loads(capsys.readouterr().err)["message"]


def test_main_overrides_are_checked_together(tmp_path):
    # --paths alone would pass the n_paths * len(checkpoints) cap on these 2,000
    # checkpoints; with --horizon clipping them to 100 the spec is within it
    data = {"horizon": 2000, "checkpoints": list(range(1, 2001)), "n_paths": 2}
    code, out = _main_on(tmp_path, data, "--paths", "10000", "--horizon", "100", "--subcommand", "hypotheses")
    assert code in (0, 1)  # run, not refused
    spec = json.loads((out / "report.json").read_text())["spec"]
    assert (spec["n_paths"], spec["horizon"], spec["checkpoints"]) == (10000, 100, list(range(1, 101)))


def test_main_explicit_alpha_shorter_than_horizon(tmp_path, capsys):
    data = {"horizon": 100, "sparsity": {"mode": "explicit_list", "alpha": [1, 0, 1]}}
    code, out = _main_on(tmp_path, data)
    assert code == 2
    assert "sparsity.alpha" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_main_hypotheses_on_a_short_explicit_pattern(tmp_path):
    # the schedule checks take 3 indices, INFREQUENCY only the 2 the pattern defines
    data = {"horizon": 2, "checkpoints": [1, 2], "sparsity": {"mode": "explicit_list", "alpha": [0, 1]}}
    code, out = _main_on(tmp_path, data, "--subcommand", "hypotheses")
    assert code in (0, 1)
    entries = json.loads((out / "report.json").read_text())["hypotheses"]["entries"]
    assert [e["id"] for e in entries] == ["CENTERING", "CESARO_TAIL", "V_MOMENT", "ENVELOPE", "INFREQUENCY", "A_LN_N"]


def test_main_explicit_mode_without_alpha(tmp_path, capsys):
    code, _ = _main_on(tmp_path, {"horizon": 100, "sparsity": {"mode": "explicit_list"}})
    assert code == 2
    assert "sparsity" in json.loads(capsys.readouterr().err)["message"]


def test_main_unknown_top_level_key(tmp_path, capsys):
    code, _ = _main_on(tmp_path, {"horizn": 100})
    assert code == 2
    assert "horizn" in json.loads(capsys.readouterr().err)["message"]


def test_main_horizon_cap_checked_before_any_section(tmp_path, capsys):
    code, out = _main_on(tmp_path, {"name": "big"}, "--horizon", "20000000")
    assert code == 2
    assert "horizon" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_main_threads_below_one_exits_2(tmp_path, capsys, threads):
    code, out = _main_on(tmp_path, {"horizon": 100}, "--threads", threads)
    assert code == 2
    assert f"threads must be >= 1, got {threads}" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("data, prefix", [
    ({"seed": "abc"}, "seed:"),
    ({"n_paths": "many"}, "n_paths:"),
    ({"checkpoints": ["a"]}, "checkpoints:"),
    ({"checkpoints": 5}, "checkpoints:"),
    ({"epsilons": "0.1"}, "epsilons:"),
    ({"verdict": {"epsilon_target": "x"}}, "verdict.epsilon_target:"),
    ({"infrequency_threshold": "hi"}, "infrequency_threshold:"),
    ({"verdict": []}, "verdict:"),
    ({"verdict": [["epsilon_target", 0.1]]}, "verdict:"),
    ({"y": "x"}, "y:"),
    ({"y": {"envelope": {"kind": "pareto", "gamma": math.nan}}}, "y.envelope.gamma:"),
    ({"x": {"family": "iid_uniform", "params": {"half_width": math.nan}}}, "x.params.half_width:"),
    ({"sparsity": {"c": math.nan}}, "sparsity.c:"),
    ({"schedule": {"floor_index": math.nan}}, "schedule.floor_index:"),
    ({"schedule": {"floor_index": 3.5}}, "schedule.floor_index:"),
    ({"x": {"family": "parity_rademacher", "params": {"block_bits": 40}}}, "x.params.block_bits:"),
    ({"infrequency_threshold": math.nan}, "infrequency_threshold:"),
    ({"x": {"family": "parity_rademacher", "params": {"block_bits": 2.7}}}, "x.params.block_bits:"),
    ({"seed": 1.9}, "seed:"),
    ({"seed": True}, "seed:"),
    ({"horizon": 1000.5}, "horizon:"),
    ({"n_paths": 3.9}, "n_paths:"),
    ({"checkpoints": [10, 50.5]}, "checkpoints:"),
    ({"schedule": {"floor_index": True}}, "schedule.floor_index:"),
    ({"schedule": {"floor_index": 1}}, "schedule.floor_index:"),
    ({"schedule": {"form": "constant", "constant_a": True}}, "schedule.constant_a:"),
    ({"sparsity": {"c": "0.5"}}, "sparsity.c:"),
    ({"sparsity": {"c": 10 ** 400}}, "sparsity.c:"),
    ({"sparsity": {"mode": "explicit_list", "alpha": [True] * 100}}, "sparsity.alpha:"),
    ({"verdict": {"epsilon_target": "0.05"}}, "verdict.epsilon_target:"),
    ({"verdict": {"fraction_target": True}}, "verdict.fraction_target:"),
    ({"x": {"family": "iid_uniform", "params": {"half_width": "2"}}}, "x.params.half_width:"),
    ({"x": {"family": "iid_shifted_exp", "params": {"rate": True}}}, "x.params.rate:"),
    ({"y": {"envelope": {"kind": "pareto", "gamma": "3"}}}, "y.envelope.gamma:"),
    ({"epsilons": ["0.2", True]}, "epsilons:"),
    ({"infrequency_threshold": True}, "infrequency_threshold:"),
    ({"name": 5}, "name:"),
    ({"sparsity": 5}, "sparsity: expected an object, got int"),
    ({"schedule": "s"}, "schedule: expected an object, got str"),
    ({"x": "s"}, "x: expected an object, got str"),
    ({"y": {"envelope": "p"}}, "y.envelope: expected an object, got str"),
    ({"x": {"family": "iid_uniform", "params": {"half_widht": 2.0}}}, "x.params.half_widht: unknown key"),
    ({"schedule": {"floor": 20}}, "schedule.floor: unknown key"),
    ({"sparsity": {"C": 0.5}}, "sparsity.C: unknown key"),
    ({"y": {"dependance": "comonotone"}}, "y.dependance: unknown key"),
    ({"verdict": {"epsilon_taget": 0.1}}, "verdict.epsilon_taget: unknown key"),
    ({"y": {"envelope": {"kind": "exp", "gamma": 2.0}}}, "y.envelope.gamma: unknown key"),
    ({"sparsity": {"mode": "all_one", "alpha": [1] * 100}}, "sparsity.alpha: unknown key"),
    ({"x": {"family": "iid_uniform", "params": "wide"}}, "x.params: expected an object, got str"),
    ({"x": {"params": {"half_width": 2.0}}}, "x.family: required key is missing"),
    ({"y": {"envelope": {"kind": "pareto"}}}, "y.envelope.gamma: required key is missing"),
    ({"schedule": {"floor_index": 10 ** 400}}, "schedule.floor_index: floor_index must be at most 10**300"),
    ({"schedule": {"form": "loglog_over_log", "floor_index": 14}}, "schedule.floor_index:"),
    ({"n_paths": 10 ** 30}, f"n_paths must lie in [2, {MAX_PATHS}]"),
    ({"--paths": MAX_PATHS + 1}, f"n_paths must lie in [2, {MAX_PATHS}]"),
    ({"n_paths": 50_001, "horizon": 200, "checkpoints": list(range(1, 201))},
     f"n_paths * len(checkpoints) must be at most {MAX_PATH_CHECKPOINTS}"),
    ({"horizon": 200, "checkpoints": list(range(1, 201)), "--paths": 50_001},
     f"n_paths * len(checkpoints) must be at most {MAX_PATH_CHECKPOINTS}"),
    ({"--threads": MAX_THREADS + 1}, f"threads must be at most {MAX_THREADS}"),
    ({"--threads": 10 ** 30}, f"threads must be at most {MAX_THREADS}"),
    ({"y": {"envelope": {"kind": json.loads("[" * 300 + '"exp"' + "]" * 300)}}},
     "y.envelope.kind: " + "[" * 40 + " ... " + "]" * 12 + " is not a valid EnvelopeKind"),
    ({"schedule": {"form": "x" * 10 ** 4}}, "schedule.form: '" + "x" * 39 + " ... "),
    ({"schedule": {"y" * 10 ** 4: 20}}, "schedule." + "y" * 40 + " ... "),
    ({"epsilons": [0.2, 0.1, 0.1, 0.05]}, "epsilons must be unique"),
    ({"epsilons": [0.2, 0.1, 0.1]}, "epsilons must be unique"),  # epsilon_target 0.05 joins them
    ({"epsilons": [0.2, 0.1, 0.1000001, 0.05]}, "epsilons must be unique"),  # both columns frac_gt_0.1
], ids=["seed", "n_paths", "checkpoint_item", "checkpoints_scalar", "epsilons_string",
       "epsilon_target", "infrequency_threshold", "verdict_list", "verdict_pairs", "y_string",
       "gamma_nan", "half_width_nan", "sparsity_c_nan", "floor_index_nan", "floor_index_fraction",
       "block_bits_huge", "infrequency_threshold_nan", "block_bits_fraction", "seed_fraction",
       "seed_bool", "horizon_fraction", "n_paths_fraction", "checkpoint_fraction",
       "floor_index_bool", "floor_index_below_log_domain", "constant_a_bool", "sparsity_c_string",
       "sparsity_c_overflow", "alpha_bools", "epsilon_target_string", "fraction_target_bool",
       "half_width_string", "rate_bool", "gamma_string", "epsilons_string_and_bool",
       "infrequency_threshold_bool", "name_number", "sparsity_number", "schedule_string", "x_string",
       "envelope_string", "params_key_typo", "schedule_key_typo", "sparsity_key_case", "y_key_typo",
       "verdict_key_typo", "gamma_on_exp", "alpha_on_all_one", "params_string", "family_missing",
       "gamma_missing", "floor_index_overflow", "floor_index_below_loglog_peak",
       "n_paths_huge", "paths_flag_above_cap", "path_checkpoints_above_cap",
       "paths_flag_path_checkpoints_above_cap", "threads_above_cap",
       "threads_huge", "kind_nested_deeply", "form_string_huge", "schedule_key_huge",
       "epsilons_repeated", "epsilons_repeated_target_joined", "epsilons_same_column"])
def test_main_malformed_scalar_field(tmp_path, capsys, data, prefix):
    # a "--flag" key is passed on the command line, not in the config
    flags = [str(part) for key, value in data.items() if key.startswith("--") for part in (key, value)]
    config = {key: value for key, value in data.items() if not key.startswith("--")}
    code, out = _main_on(tmp_path, {"horizon": 100, **config}, *flags)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(prefix)
    assert len(message) < 200  # a value is named, not echoed at any length
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ('{"name": "caf\xe9"}'.encode("latin-1"), "codec can't decode"),
    (b"[" * 100_000 + b"]" * 100_000, "recursion"),
    (b'{"seed": ' + b"1" * 5001 + b"}", "4300 digits"),
], ids=["not_utf8", "nested_arrays", "int_digits"])
def test_main_unreadable_config(tmp_path, capsys, text, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    code = cli.main(["run", str(cfg), "--subcommand", "hypotheses", "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"{cfg}: ") and reason in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", ["inv_sqrt_log", "loglog_over_log", "inv_log"])
@pytest.mark.parametrize("floor_index", [1, 2])
def test_main_log_form_floor_below_3_names_floor_index(tmp_path, capsys, form, floor_index):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _main_on(tmp_path, {"horizon": 100, "schedule": {"form": form, "floor_index": floor_index}})
    assert code == 2
    assert "floor_index" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_integral_float_floor_index_is_an_integer():
    spec = cli.ExperimentSpec.from_dict({"horizon": 100, "schedule": {"floor_index": 3.0}})
    assert spec.schedule.floor_index == 3
    assert type(spec.to_dict()["schedule"]["floor_index"]) is int


def test_main_out_under_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["run", "theorem.json", "--subcommand", "hypotheses", "--out", str(blocker / "sub")])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NotADirectoryError"
    assert captured.out == ""


def test_main_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "run", broken)
    code, _ = _main_on(tmp_path, {"horizon": 100})
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "RuntimeError", "message": "injected"}
    assert captured.out == ""


def test_main_non_finite_run_is_divergent_and_strict(tmp_path):
    # a_n = 0.001 raises Pareto(1.1) draws to the power 1000: they overflow to inf
    data = {
        "horizon": 2 * 10 ** 4, "n_paths": 10,
        "schedule": {"form": "constant", "constant_a": 0.001},
        "y": {"envelope": {"kind": "pareto", "gamma": 1.1}},
        "sparsity": {"mode": "auto", "c": 3.0},
    }
    with np.errstate(over="ignore"):
        code, out = _main_on(tmp_path, data, "--subcommand", "simulate", "--plot")
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["status"]["convergence"] == "DIVERGENT"
    assert report["convergence"]["median_D"][-1] == "inf"
    assert report["convergence"]["fractions_above"]["0.05"][-1] == 1.0
    spec = cli.load_config(tmp_path / "cfg.json")
    with np.errstate(over="ignore"):
        counts = [sum(np.count_nonzero(~np.isfinite(z))
                      for _, z in mixture._path_chunks(path, mixture.path_workspace(path)))
                  for path in map(spec.with_path, range(spec.n_paths))]
    assert report["convergence"]["nonfinite_values"] == sum(counts)
    # an inf median at the end means at least 6 of the 10 paths are inf there
    assert 6 <= report["convergence"]["nonfinite_paths"] == sum(c > 0 for c in counts)
    svg = (out / "plot.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
