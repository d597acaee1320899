"""Breaking one hypothesis at a time: the diagnostic must notice."""

import dataclasses

from slln_lab import cli, diagnostics

print("dense inserts with infinite-mean draws (the infrequency condition fails):")
spec = dataclasses.replace(cli.load_config("violate-sparsity.json"), horizon=2 * 10 ** 4, n_paths=40,
                           checkpoints=(10 ** 3, 5 * 10 ** 3, 2 * 10 ** 4))
rep = diagnostics.run_ensemble(spec)
for i, cp in enumerate(rep.checkpoints):
    print(f"  n={int(cp):>6}: median D = {rep.median[i]:.3g}, frac > 0.05 = {rep.fractions_above[0.05][i]:.2f}")
print("  verdict:", rep.verdict.value)

print("\nuncentered infinite-mean base family (the centering condition fails):")
spec = dataclasses.replace(cli.load_config("violate-x-mean.json"), horizon=2 * 10 ** 4, n_paths=40,
                           checkpoints=(10 ** 3, 5 * 10 ** 3, 2 * 10 ** 4))
rep = diagnostics.run_ensemble(spec)
for i, cp in enumerate(rep.checkpoints):
    print(f"  n={int(cp):>6}: median D = {rep.median[i]:.3g}, frac > 0.05 = {rep.fractions_above[0.05][i]:.2f}")
print("  verdict:", rep.verdict.value)

print("\nrunning averages cannot settle: every path carries deviations above the target")
