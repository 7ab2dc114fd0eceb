"""
Closed-loop simulation: squeezing out a false-answer route
==========================================================

A false-answer vendor signals "answered" on essentially every call, so the
billing router -- which only fails over on 4xx/5xx/6xx -- never leaves it.
This demo runs the full loop twice: once without the admission layer (the
problem) and once with it (the fix).
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

from acdroute import ScenarioConfig, run_scenario

scenarios = Path(__file__).resolve().parent / "scenarios"

# --- the problem -----------------------------------------------------------
# A perfect false-answer vendor at the higher preference, admission disabled:
# every call is "answered" within seconds and the honest route never sees a
# single attempt.
# run_scenario hands the call attempts to a sink a block at a time: the
# block's first call number, each call's time, and one code per attempt. A
# call tries the vendors in billing order until one answers, which a code of
# 1 or more (the leg's seconds) says; this sink counts the attempts by vendor.
control = ScenarioConfig.load(scenarios / "pure_fas_control.json")
billing_order = [spec.vendor for spec in control.billing_order]
by_vendor = Counter()


def count_attempts(first, times, codes):
    codes = iter(codes)
    for _ in times:
        for vendor in billing_order:
            by_vendor[vendor] += 1
            if next(codes) > 0:
                break


neg = run_scenario(replace(control, admission_enabled=False), on_attempts=count_attempts)

print("without admission control:")
print(f"  {neg.total_calls} calls, routed per vendor: {dict(by_vendor)}")
print(f"  targets the aggregator would set: "
      f"{[iv.result.reject_pct for iv in neg.interval_history]}")
print("  (no evidence for the honest route -> targets stay at zero forever)")
print()

# --- the fix ---------------------------------------------------------------
# Same fraud at preference 9, but now the clone interfaces reject against the
# quality-driven targets. The false-answer vendor's ~3% timeouts leak a few
# calls to the honest route; one closed interval of evidence later the loop
# pins the fraud route to the floor share.
config = ScenarioConfig.load(scenarios / "honest_vs_fas.json")
result = run_scenario(config, on_attempts=lambda *block: None)  # only the intervals are shown

print("with admission control:")
print(f"  {result.total_calls} calls, {len(result.interval_history)} closed intervals")
print(f"  {'interval close':>14}  {'ACD fas':>8}  {'ACD honest':>10}  "
      f"{'reject on fas':>13}  {'minutes fas/honest':>19}")
for interval in result.interval_history:
    # each vendor's share of the interval's answered minutes
    minutes = {s.vendor: s.total_minutes for s in interval.stats}
    total = sum(minutes.values())
    share = {v: m / total if total else 0.0 for v, m in minutes.items()}
    acd_fas, acd_honest = (
        "-" if s.acd_min is None else f"{s.acd_min:.2f}" for s in interval.stats
    )
    print(
        f"  {interval.closed_at:%H:%M}{'':>9}{acd_fas:>8}{acd_honest:>12}"
        f"{interval.result.reject_pct[0]:>13.2f}%"
        f"{share[71]:>11.1%} /{share[72]:>6.1%}"
    )

steady = result.answered_minutes_share(from_interval=2)
print(f"\n  steady-state answered minutes on the honest route: {steady[72]:.1%}")
print(f"  final targets: {result.final_targets()}")
print(f"  abandoned calls (both routes failed): {result.abandoned_calls}")
