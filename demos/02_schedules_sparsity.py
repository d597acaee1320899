"""Vanishing exponent schedules and the insert-budget pattern they induce."""

import numpy as np

from slln_lab import MomentSchedule, ScheduleForm, build_sparsity
from slln_lab.cli import load_config
from slln_lab.hypotheses import verify_hypotheses
from slln_lab.schedules import y_insertion_positions

theorem = load_config("theorem.json")  # a_n = 1/sqrt(ln n), AUTO pattern at c = 1, horizon 1e6
sched = theorem.schedule
print("exponent a_n = 1/sqrt(ln n):")
for n in (10, 100, 10 ** 4, 10 ** 6):
    print(f"  a({n}) = {sched.value(n):.5f}")

report = verify_hypotheses(theorem)
print("growth check:", report.entry("A_LN_N").detail)

n = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
growth = MomentSchedule(ScheduleForm.INV_LOG).value(n) * np.log(n)
print(f"designed violation: a_n*ln n reaches 2.0 on [1, 1000000]: {bool(np.any(growth >= 2.0))}"
      f" (value {growth[-1]:.6g} at horizon)")

phi = build_sparsity(sched, c=1.0).phi(10 ** 6)
print(f"inserts among the first 1e6 indices: {phi[-1]}")
print(f"sup of phi_n / n**a_n: {report.entry('INFREQUENCY').value:.4f} (stays below c + 1 = 2)")
print("first 12 insert positions:", y_insertion_positions(sched, 1.0, 12))
print("insert positions grow like exp((ln k)^2); the 50th sits at",
      f"{y_insertion_positions(sched, 1.0, 50)[-1]:.3e}")
