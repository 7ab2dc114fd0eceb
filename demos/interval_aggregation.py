"""
Dynamic interval aggregation
============================

Feeds a synthetic morning of CDRs through the interval machinery: ticks every
10 minutes, an interval closes only once it is at least 20 minutes old and
has seen at least 20 ended calls, and each close produces one acd_vendors row
per vendor plus a report table row pair.
"""

import random
from datetime import datetime, timedelta

from acdroute import (
    IntervalAggregator,
    RouteGroup,
    Schedule,
    acd_csv_text,
    render_interval_table,
)

rng = random.Random(2)
start = datetime(2020, 3, 2, 9, 0, 0)

# the paper's schedule, which is also the default: a tick every 10 minutes, an
# interval closes once it is 20 minutes old with at least 20 ended calls
schedule = Schedule(tick_period_s=600, min_age_s=1200, min_calls=20)
agg = IntervalAggregator(RouteGroup(vendors=(55, 62), prefs=(9, 8)), opened_at=start,
                         schedule=schedule)

# Vendor 55 answers ~70% of its calls with long conversations; vendor 62
# answers everything but holds callers for seconds only. Each CDR goes to the
# aggregator as it ends, as its leg: the vendor, the end in whole seconds after
# the start, the duration and whether the router refused it. A tick, given in
# seconds after the start too, counts the ones that ended before it.
t = 0.0
i = 0
while t < 3 * 3600:
    t += rng.expovariate(1.2 / 60.0)  # ~1.2 calls per minute
    vendor = 55 if rng.random() < 0.6 else 62
    if vendor == 55:
        duration = round(rng.expovariate(1 / 500.0)) if rng.random() < 0.7 else 0
    else:
        duration = max(1, round(rng.expovariate(1 / 30.0)))
    agg.add_ended([(vendor, int(t) + duration, duration, False)])
    i += 1

print(f"{i} CDRs over 3 hours")

# The 10-minute CRON-style tick loop. Watch which ticks actually close an
# interval: quiet stretches leave it open, so closes land on 20-, 30- or
# 40-minute boundaries.
for k in range(1, 22):
    now_s = schedule.tick_period_s * k
    closed = agg.tick(now_s)
    now = start + timedelta(seconds=now_s)
    if closed is None:
        print(f"{now:%H:%M}  open (not old or busy enough yet)")
    else:
        acds = [
            "-" if s.acd_min is None else f"{s.acd_min:.2f}" for s in closed.stats
        ]
        print(
            f"{now:%H:%M}  CLOSED after "
            f"{(closed.closed_at - closed.opened_at).total_seconds() / 60:.0f} min: "
            f"ACD {acds[0]} / {acds[1]} min -> reject "
            f"{closed.result.reject_pct[0]:.2f}% / {closed.result.reject_pct[1]:.2f}%"
        )

print()
print("acd_vendors table:")
print(acd_csv_text(agg.history, prefix="37410"))

print("interval report (csv):")
print(render_interval_table(agg.history, "csv"))
