"""
Probabilistic admission, measured
=================================

The clone interface rejects calls with probability target/100, remembers what
it rejected, and never rejects the same call twice. Seeded, so every run of
this script prints the same numbers.
"""

from acdroute import (
    REJECTION_CODE,
    AdmissionController,
    QualityInput,
    RouteGroup,
    compute_rejection,
)

target = compute_rejection(QualityInput((8.67, 0.6), (9, 8), 0.1))
print(f"targets from the quality pair: {target.reject_pct}  (exact "
      f"{target.reject_pct_exact[0]:.6f} on the preferred clone)")

group = RouteGroup(vendors=(55, 62), prefs=(9, 8))
controller = AdmissionController(group, seed=202)
controller.refresh_targets(target)

# 100k first attempts on the preferred clone: the empirical rate converges on
# the exact target, not the 2-decimal presentation value. Each decision is
# counted by the controller as it is made.
n = 100_000
rejected = 0
for i in range(n):
    if not controller.decide(f"c{i}", 55, now=float(i)):
        rejected += 1
print(f"{n} arrivals on clone 55 -> {rejected} rejected "
      f"({100 * rejected / n:.3f}% vs target {target.reject_pct_exact[0]:.3f}%)")

received, rejected_count = controller.counters
print(f"counters (received counts authorized calls only): "
      f"received={received} rejected={rejected_count}")

# At-most-once in action: a rejected call retries via billing failover, in
# preference order, and must pass, wherever it lands. An accepted call:
# pretend the vendor answers, which ends billing's walk.
fresh = AdmissionController(group, seed=7)
fresh.refresh_targets(target)
shown = 0
for i in range(400):
    call_id = f"call-{i}"
    path = []
    for vendor in (55, 62):
        accepted = fresh.decide(call_id, vendor, now=float(i))
        path.append((vendor, "accept" if accepted else f"reject {REJECTION_CODE}"))
        if accepted:
            break
    if len(path) > 1 and shown < 5:
        print(f"{call_id}: {path}")
        shown += 1
