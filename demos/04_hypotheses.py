"""Hypothesis verification on healthy and deliberately broken configs."""

from slln_lab import cli
from slln_lab.hypotheses import verify_hypotheses


def show(name: str) -> None:
    spec = cli.load_config(name)
    report = verify_hypotheses(spec)
    print(f"{name}:")
    for e in report.entries:
        print(f"  {e.id:<12} {e.status:<5} value={e.value:<12.6g} {e.detail}")
    print("  all pass:", report.all_pass())
    print()


for fixture in ("theorem.json", "violate-sparsity.json", "violate-x-mean.json"):
    show(fixture)
