"""Vanishing exponent schedules and the insert-budget pattern they induce."""

from slln_lab import MomentSchedule, ScheduleForm, build_sparsity
from slln_lab.schedules import sparsity_ratio_sup, validate_schedule, y_insertion_positions

sched = MomentSchedule(ScheduleForm.INV_SQRT_LOG)
print("exponent a_n = 1/sqrt(ln n):")
for n in (10, 100, 10 ** 4, 10 ** 6):
    print(f"  a({n}) = {sched.value(n):.5f}")

report = validate_schedule(sched, 10 ** 6, growth_target=3.0)
print("growth check:", report.detail)

broken = MomentSchedule(ScheduleForm.INV_LOG)
print("designed violation:", validate_schedule(broken, 10 ** 6, growth_target=2.0).detail)

pattern = build_sparsity(sched, c=1.0)
phi = pattern.phi(10 ** 6)
print(f"inserts among the first 1e6 indices: {phi[-1]}")
print(f"sup of phi_n / n**a_n: {sparsity_ratio_sup(pattern, sched, 10 ** 6):.4f} (stays below c + 1 = 2)")
print("first 12 insert positions:", y_insertion_positions(sched, 1.0, 12))
print("insert positions grow like exp((ln k)^2); the 50th sits at",
      f"{y_insertion_positions(sched, 1.0, 50)[-1]:.3e}")
