"""Batch front door: config files in, reports and CSV artifacts out.

One experiment is described by a JSON :class:`ExperimentSpec`.  ``slln run``
loads it, applies flag overrides, executes the requested sections
(hypothesis checks, series-bound calculus, ensemble simulation) and writes
``report.json`` (embedding the fully resolved spec for provenance),
``deviations.csv``, ``calculus.csv`` and optionally ``plot.svg``.  Exit
status 0 means every requested section passed, 1 that one failed, 2 a
config, argument or file-system error and 3 an internal error.

Numbers in CSV files carry 17 significant digits so a re-run from the
embedded spec reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import __version__
from .calculus import DEFAULT_PS, bound_suite
from .diagnostics import ConvergenceReport, Verdict, run_ensemble
from .errors import BoundViolation, ConfigError, SllnLabError
from .hypotheses import verify_hypotheses
from .mixture import ExperimentSpec, _clip_checkpoints

_FMT = "{:.17g}"
_MAX_DEFAULT_THREADS = 4  # a large machine need not hold dozens of workers


def default_threads() -> int:
    """The CPUs this process may use, at most :data:`_MAX_DEFAULT_THREADS`."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(usable, _MAX_DEFAULT_THREADS)


def resolve_config_path(path: str) -> Path:
    """Filesystem path if it exists, else a bundled fixture of that name."""
    p = Path(path)
    if p.exists():
        return p
    bundled = resources.files("slln_lab").joinpath("configs", path)
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config not found: {path}")


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and validate a JSON experiment file."""
    resolved = resolve_config_path(str(path))
    try:
        data = json.loads(resolved.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{resolved}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{resolved}: top-level JSON object expected")
    return ExperimentSpec.from_dict(data)


def _csv_cell(value: float) -> str:
    return _FMT.format(float(value))


def write_deviations_csv(report: ConvergenceReport, path: Path) -> None:
    eps_cols = [f"frac_gt_{eps:g}" for eps in report.epsilons]
    lines = [",".join(["checkpoint", "median_D", "q90_D", "q99_D"] + eps_cols)]
    for i, cp in enumerate(report.checkpoints):
        row = [str(int(cp)), _csv_cell(report.median[i]), _csv_cell(report.q90[i]), _csv_cell(report.q99[i])]
        row += [_csv_cell(report.fractions_above[eps][i]) for eps in report.epsilons]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_calculus_csv(rows: Sequence[dict], path: Path) -> None:
    header = ["envelope", "p", "A", "bound_A", "B", "bound_B", "combined", "bound_combined"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["envelope"],
                    _csv_cell(row["p"]),
                    _csv_cell(row["A"]),
                    _csv_cell(row["bound_A"]),
                    _csv_cell(row["B"]),
                    _csv_cell(row["bound_B"]),
                    _csv_cell(row["combined"]),
                    _csv_cell(row["bound_combined"]),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def plot_svg(report: ConvergenceReport) -> str:
    """Minimal line chart of D quantiles vs checkpoint (log-x), as SVG text."""
    width, height, margin = 640, 400, 56
    cps = [float(c) for c in report.checkpoints]
    logs = [math.log10(c) for c in cps]
    span = max(logs[-1] - logs[0], 1e-9)
    finite = [float(v) for q in (report.median, report.q90, report.q99) for v in q if math.isfinite(v)]
    ymax = max(finite, default=0.0) * 1.05 or 1.0

    def x_at(cp_log: float) -> float:
        return margin + (cp_log - logs[0]) / span * (width - 2 * margin)

    def y_at(v: float) -> float:
        if not math.isfinite(v):
            return float(margin)  # off the scale: pinned to the top edge
        return height - margin - (v / ymax) * (height - 2 * margin)

    series = [
        ("median", report.median, "#1f77b4"),
        ("q90", report.q90, "#ff7f0e"),
        ("q99", report.q99, "#d62728"),
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">checkpoint (log scale)</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">suffix-sup deviation</text>',
    ]
    for i, (lg, cp) in enumerate(zip(logs, cps)):
        x = x_at(lg)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin + 20}" text-anchor="middle" '
            f'font-size="11">{int(cp)}</text>'
        )
    for label, values, color in series:
        pts = " ".join(
            f"{x_at(lg):.2f},{y_at(float(v)):.2f}" for lg, v in zip(logs, values)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    for i, (label, _, color) in enumerate(series):
        y = margin + 18 * i
        parts.append(f'<rect x="{width - margin - 90}" y="{y - 9}" width="12" height="3" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 72}" y="{y}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _strict_json(value):
    """``value`` with each non-finite float as the string "inf", "-inf" or
    "nan", so that it encodes as standard JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


SUBCOMMANDS = ("hypotheses", "calculus", "simulate", "all")


def run(
    spec: ExperimentSpec,
    subcommand: str = "all",
    out_dir: str | Path = "slln_out",
    threads: int = 1,
    plot: bool = False,
) -> int:
    """Execute the requested sections; return the process exit status."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections: dict = {}
    status: dict[str, str] = {}
    failures: list[str] = []

    want = (
        {"hypotheses", "calculus", "simulate"} if subcommand == "all" else {subcommand}
    )

    if "hypotheses" in want:
        report = verify_hypotheses(spec)
        sections["hypotheses"] = report.to_dict()
        ok = report.all_pass()
        status["hypotheses"] = "PASS" if ok else "FAIL"
        if not ok:
            failures.append("hypotheses")

    if "calculus" in want:
        try:
            rows = bound_suite(envelopes=[spec.envelope], ps=DEFAULT_PS)
            sections["calculus"] = {"bounds": rows, "all_hold": True}
            status["calculus"] = "PASS"
            write_calculus_csv(rows, out / "calculus.csv")
        except BoundViolation as exc:
            sections["calculus"] = {"all_hold": False, "error": str(exc)}
            status["calculus"] = "FAIL"
            failures.append("calculus")

    if "simulate" in want:
        report = run_ensemble(spec, threads=threads)
        sections["convergence"] = report.to_dict()
        status["convergence"] = report.verdict.value
        if report.verdict is not Verdict.CONVERGENT:
            failures.append("convergence")
        write_deviations_csv(report, out / "deviations.csv")
        if plot:
            (out / "plot.svg").write_text(plot_svg(report))

    exit_code = 0 if not failures else 1
    payload = {
        "artifact": {"name": "slln-lab", "version": __version__},
        "spec": spec.to_dict(),
        "subcommand": subcommand,
        "threads": threads,
        **sections,
        "status": status,
        "failures": failures,
        "exit_code": exit_code,
    }
    text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    return exit_code


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slln",
        description="Verification lab for a strong law over sparse heavy-tailed mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", help="JSON config path or bundled fixture name")
    runp.add_argument("--seed", type=int, default=None, help="master seed override (u64)")
    runp.add_argument("--paths", type=int, default=None, help="ensemble size override")
    runp.add_argument("--horizon", type=int, default=None, help="horizon override")
    runp.add_argument("--threads", type=int, default=default_threads(),
                      help="worker count (default: the usable CPUs, at most 4; results unaffected)")
    runp.add_argument("--out", default="slln_out", help="output directory")
    runp.add_argument(
        "--subcommand", default="all", choices=SUBCOMMANDS, help="which sections to run"
    )
    runp.add_argument("--plot", action="store_true", help="emit plot.svg")
    args = parser.parse_args(argv)

    try:
        spec = load_config(args.config)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.paths is not None:
            spec = replace(spec, n_paths=args.paths)
        if args.horizon is not None:
            spec = replace(spec, horizon=args.horizon, checkpoints=_clip_checkpoints(spec.checkpoints, args.horizon))
        spec.validate()
        return run(spec, subcommand=args.subcommand, out_dir=args.out, threads=args.threads, plot=args.plot)
    except Exception as exc:  # one JSON line on stderr instead of a traceback
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, (SllnLabError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
