"""Dynamic measurement intervals and per-vendor call statistics.

An interval only closes on a scheduler tick, and only once it is old enough
*and* has seen enough ended calls; otherwise it stays open and is re-examined
on the next tick, which is why closed intervals always span a whole number of
tick periods. Closing an interval computes both vendors' statistics, runs the
rejection rule on the ACD pair, persists the row pair, and opens the next
interval at the exact close time so intervals partition the CDR timeline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .domain import CallRecord, RouteGroup
from .rejection import QualityInput, RejectionResult, compute_rejection
from .store import AcdVendorsTable, CdrStore

logger = logging.getLogger(__name__)

TICK_PERIOD_S = 600
MIN_INTERVAL_AGE_S = 1200
MIN_INTERVAL_CALLS = 20

# received/rejected counter maps, keyed by vendor id
CounterSnapshot = Tuple[Dict[int, int], Dict[int, int]]


class TickDecision(Enum):
    KEEP_OPEN = "keep_open"
    CLOSE = "close"


def tick_decision(
    now: datetime,
    opened_at: datetime,
    calls_ended_in_interval: int,
    min_age_s: int = MIN_INTERVAL_AGE_S,
    min_calls: int = MIN_INTERVAL_CALLS,
) -> TickDecision:
    """Close only when the interval is old enough and busy enough; otherwise
    it stays open until the next tick."""
    if now < opened_at:
        raise ValueError(f"tick time {now} precedes interval start {opened_at}")
    age_s = (now - opened_at).total_seconds()
    if age_s >= min_age_s and calls_ended_in_interval >= min_calls:
        return TickDecision.CLOSE
    return TickDecision.KEEP_OPEN


@dataclass(frozen=True)
class VendorIntervalStats:
    """Duration buckets and averages for one vendor over one interval.

    Bucket bounds are seconds. ``acd_min`` is total answered minutes divided
    by the number of answered (nonzero-duration) calls, absent when the vendor
    answered nothing.
    """

    vendor: int
    bucket_zero: int
    bucket_0_5: int
    bucket_5_30: int
    bucket_over_30: int
    calls: int
    total_minutes: float
    acd_min: Optional[float]


def vendor_stats(cdrs: Sequence[CallRecord], vendor: int) -> VendorIntervalStats:
    """Bucket one vendor's calls by duration; router-rejected attempts are
    skipped because they never reached the vendor."""
    bucket_zero = bucket_0_5 = bucket_5_30 = bucket_over_30 = 0
    total_s = 0
    answered = 0
    for record in cdrs:
        if record.vendor != vendor or record.rejected_by_router:
            continue
        d = record.duration_s
        if d == 0:
            bucket_zero += 1
        elif d <= 5:
            bucket_0_5 += 1
        elif d <= 30:
            bucket_5_30 += 1
        else:
            bucket_over_30 += 1
        total_s += d
        if d > 0:
            answered += 1
    total_minutes = total_s / 60.0
    acd_min = total_minutes / answered if answered else None
    return VendorIntervalStats(
        vendor=vendor,
        bucket_zero=bucket_zero,
        bucket_0_5=bucket_0_5,
        bucket_5_30=bucket_5_30,
        bucket_over_30=bucket_over_30,
        calls=bucket_zero + bucket_0_5 + bucket_5_30 + bucket_over_30,
        total_minutes=total_minutes,
        acd_min=acd_min,
    )


@dataclass
class ClosedInterval:
    """Everything produced by closing one interval."""

    opened_at: datetime
    closed_at: datetime
    vendors: Tuple[int, int]
    prefs: Tuple[int, int]
    stats: Tuple[VendorIntervalStats, VendorIntervalStats]
    result: RejectionResult
    received: Dict[int, int] = field(default_factory=dict)
    rejected: Dict[int, int] = field(default_factory=dict)


class IntervalAggregator:
    """Owns the open interval and turns scheduler ticks into closed intervals.

    Single-writer: one aggregator instance per routing group, ticks serialized
    with CDR ingestion by the caller. ``counter_source`` is called exactly once
    per close to snapshot-and-reset the router's received/rejected counters;
    without one the counters are derived from the CDR log's rejected flags.
    """

    def __init__(
        self,
        group: RouteGroup,
        cdr_store: CdrStore,
        opened_at: datetime,
        acd_table: Optional[AcdVendorsTable] = None,
        tick_period_s: int = TICK_PERIOD_S,
        min_age_s: int = MIN_INTERVAL_AGE_S,
        min_calls: int = MIN_INTERVAL_CALLS,
        dest_prefix: str = "",
        counter_source: Optional[Callable[[], CounterSnapshot]] = None,
    ):
        if tick_period_s <= 0:
            raise ValueError("tick period must be positive")
        self.group = group
        self.tick_period_s = tick_period_s
        self.min_age_s = min_age_s
        self.min_calls = min_calls
        self.dest_prefix = dest_prefix
        self.opened_at = opened_at
        self.history: List[ClosedInterval] = []
        self._cdr_store = cdr_store
        self.acd_table = acd_table if acd_table is not None else AcdVendorsTable()
        self._counter_source = counter_source

    def tick(self, now: datetime) -> Optional[ClosedInterval]:
        """Evaluate the close conditions at a scheduler tick.

        Returns the closed interval, or None when it stays open (including
        when persistence failed, which keeps the interval open for a retry
        on the next tick).
        """
        opened_at = self.opened_at
        offset_s = (now - opened_at).total_seconds()
        if offset_s < 0:
            raise ValueError(f"tick time {now} precedes interval start {opened_at}")
        if offset_s % self.tick_period_s:
            raise ValueError(
                f"tick at {now} is not aligned to the {self.tick_period_s}s schedule"
            )
        in_range = self._cdr_store.query_cdrs(time_range=(opened_at, now))
        vendors = self.group.vendors
        records = [r for r in in_range if r.vendor in vendors]
        ended = [r for r in records if not r.rejected_by_router]
        decision = tick_decision(
            now, opened_at, len(ended), self.min_age_s, self.min_calls
        )
        if decision is TickDecision.KEEP_OPEN:
            return None
        return self._close(now, records, ended)

    def _close(
        self,
        now: datetime,
        records: Sequence[CallRecord],
        ended: Sequence[CallRecord],
    ) -> Optional[ClosedInterval]:
        group = self.group
        stats = tuple(vendor_stats(ended, v) for v in group.vendors)
        result = compute_rejection(
            QualityInput(
                acd_min=(stats[0].acd_min, stats[1].acd_min),
                prefs=group.prefs,
                load_min=group.load_min,
            )
        )
        try:
            self.acd_table.insert_acd_rows(
                (group.vendors[0], now, stats[0].acd_min, result.reject_pct[0], self.dest_prefix),
                (group.vendors[1], now, stats[1].acd_min, result.reject_pct[1], self.dest_prefix),
            )
        except OSError as exc:
            logger.warning("interval stays open, row persistence failed: %s", exc)
            return None

        if self._counter_source is not None:
            received, rejected = self._counter_source()
        else:
            received = {
                v: sum(1 for r in ended if r.vendor == v) for v in group.vendors
            }
            rejected = {
                v: sum(1 for r in records if r.rejected_by_router and r.vendor == v)
                for v in group.vendors
            }
        closed = ClosedInterval(
            opened_at=self.opened_at,
            closed_at=now,
            vendors=group.vendors,
            prefs=group.prefs,
            stats=stats,
            result=result,
            received=received,
            rejected=rejected,
        )
        self.history.append(closed)
        self.opened_at = now
        return closed


def replay_cdrs(
    records: Sequence[CallRecord],
    group: RouteGroup,
    tick_period_s: int = TICK_PERIOD_S,
    min_age_s: int = MIN_INTERVAL_AGE_S,
    min_calls: int = MIN_INTERVAL_CALLS,
    dest_prefix: str = "",
) -> Tuple[List[ClosedInterval], AcdVendorsTable]:
    """Replay the tick schedule over a batch of historical CDRs.

    The schedule anchors at the earliest connect time and runs until no open
    interval can still close. Input order does not matter (records are
    canonicalized first) and records outside the configured vendor pair are
    ignored.
    """
    ordered = sorted(
        (r for r in records if r.vendor in group.vendors),
        key=lambda r: (r.disconnect_time, r.connect_time, r.call_id),
    )
    if not ordered:
        return [], AcdVendorsTable()
    start = min(r.connect_time for r in ordered)
    last_end = max(r.disconnect_time for r in ordered)

    cdr_store = CdrStore()
    for record in ordered:
        cdr_store.append_cdr(record)
    agg = IntervalAggregator(
        group,
        cdr_store=cdr_store,
        opened_at=start,
        tick_period_s=tick_period_s,
        min_age_s=min_age_s,
        min_calls=min_calls,
        dest_prefix=dest_prefix,
    )
    # once a tick falls this far past the last CDR, the open interval's call
    # count is frozen and the age condition has been evaluated at least once,
    # so any still-open interval can never close
    horizon = last_end + timedelta(seconds=min_age_s + tick_period_s)
    now = start + timedelta(seconds=tick_period_s)
    while now <= horizon:
        agg.tick(now)
        now += timedelta(seconds=tick_period_s)
    return agg.history, agg.acd_table
