"""Theorem-regime ensemble at desk scale: suffix-sup deviations shrink."""

import dataclasses

from slln_lab import cli, diagnostics

spec = dataclasses.replace(cli.load_config("theorem.json"),
                           horizon=10 ** 5, n_paths=60, checkpoints=(10 ** 3, 10 ** 4, 10 ** 5))
report = diagnostics.run_ensemble(spec)

print(f"{spec.n_paths} paths to horizon {spec.horizon}, seed {spec.seed}")
print(f"{'checkpoint':>10} {'median D':>12} {'q90 D':>12} {'q99 D':>12} {'frac > 0.05':>12}")
for i, cp in enumerate(report.checkpoints):
    print(f"{int(cp):>10} {report.median[i]:>12.5f} {report.q90[i]:>12.5f} "
          f"{report.q99[i]:>12.5f} {report.fractions_above[0.05][i]:>12.2f}")
print("verdict:", report.verdict.value)

print("\nsame ensemble, pure pairwise-independent part (no inserts):")
pure = dataclasses.replace(cli.load_config("pure-x.json"), x_family=spec.x_family, horizon=10 ** 5,
                           n_paths=60, checkpoints=(10 ** 3, 10 ** 4, 10 ** 5))
x_rep = diagnostics.run_ensemble(pure)
for i, cp in enumerate(x_rep.checkpoints):
    print(f"{int(cp):>10} median D = {x_rep.median[i]:.5f}")
print("verdict:", x_rep.verdict.value)
