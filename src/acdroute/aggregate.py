"""Dynamic measurement intervals and per-vendor call statistics.

CDRs are fed to the aggregator as they end and counted, by vendor and duration
bucket, toward the first tick after they ended, which adds the counts into the
open interval's: the aggregator keeps no CDR. Its one ``datetime`` is its
anchor; every other time is whole seconds after it. ``add_ended`` takes any
number of legs, each as its vendor, its end, its duration and its rejected
flag: the simulator hands it the legs of each block of attempts it hands its
sink, a replay one generator over the CDRs ``store.read_cdr_csv`` reads. A
``Schedule`` holds the tick period and the two minima, validated once. An
interval only closes on a tick, once it is old enough *and* has seen enough
ended calls; otherwise it stays open and is re-examined on the next tick, so
closed intervals span a whole number of tick periods. Closing an interval
dates it, computes both vendors' statistics, runs the rejection rule on the
ACD pair, appends the result to the history, and opens the next interval at
the exact close time so intervals partition the CDR timeline. The history is
the one record of what closed: the CLI renders the acd_vendors file and the
interval tables from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .domain import RouteGroup, whole_seconds
from .rejection import QualityInput, RejectionResult, compute_rejection

_SECOND = timedelta(seconds=1)
_MAX_PERIOD_S = timedelta.max // _SECOND

# received/rejected counter maps, keyed by vendor id
CounterSnapshot = Tuple[Dict[int, int], Dict[int, int]]
# a CDR as ``store.read_cdr_csv`` reads it: (vendor, connect_s, end_s,
# duration_s, rejected), both times in whole seconds after ``datetime.min``
Cdr = Tuple[int, int, int, int, bool]


@dataclass(frozen=True)
class Schedule:
    """The interval schedule: a tick every ``tick_period_s``, and an interval
    closes on a tick once it is at least ``min_age_s`` old and has at least
    ``min_calls`` ended calls.

    Validated once: a positive tick period and minimum age, neither longer
    than a timedelta holds, and at least one ended call per interval. The
    grid's anchor is not part of it: each run or replay sets its own.
    """

    tick_period_s: int = 600
    min_age_s: int = 1200
    min_calls: int = 20

    def __post_init__(self) -> None:
        if self.tick_period_s <= 0 or self.min_age_s <= 0 or self.min_calls < 1:
            raise ValueError(
                "interval schedule needs tick period > 0, minimum age > 0 and minimum calls "
                f">= 1, got {self.tick_period_s} s, {self.min_age_s} s, {self.min_calls}"
            )
        for name, seconds in (("tick period", self.tick_period_s),
                              ("minimum age", self.min_age_s)):
            if seconds > _MAX_PERIOD_S:
                raise ValueError(f"interval schedule needs a {name} of at most {_MAX_PERIOD_S} s "
                                 f"({timedelta.max.days} days), the longest a timedelta holds")

    @classmethod
    def from_minutes(cls, tick_min: float, min_age_min: float, min_calls: int) -> "Schedule":
        """The schedule as scenario files and ``aggregate``'s flags give it,
        its two periods in minutes, each a whole number of seconds."""
        return cls(whole_seconds(tick_min), whole_seconds(min_age_min), min_calls)


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


# One vendor's whole-number counts: calls of 0 s, <=5 s, <=30 s and >30 s,
# their answered seconds, and router-rejected attempts. Summing integers keeps
# the ACD floats independent of the order the CDRs are counted in.
Tally = List[int]


def _stats(vendor: int, tally: Tally) -> VendorIntervalStats:
    zero, up_to_5, up_to_30, over_30, total_s, _ = tally
    answered = up_to_5 + up_to_30 + over_30
    total_minutes = total_s / 60.0
    return VendorIntervalStats(
        vendor=vendor,
        bucket_zero=zero,
        bucket_0_5=up_to_5,
        bucket_5_30=up_to_30,
        bucket_over_30=over_30,
        calls=zero + answered,
        total_minutes=total_minutes,
        acd_min=total_minutes / answered if answered else None,
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
    with CDR ingestion by the caller, never going back in time. Ticks fall on
    ``schedule``'s grid from ``anchor``, the first ``opened_at``, and every
    time it takes or keeps is whole seconds after it. A CDR counts in the
    interval open at the first tick after its disconnect time, unless it
    ended before that interval opened. It keeps no CDR, only per-vendor
    tallies: one per tick that has CDRs due, and the open interval's.
    ``counter_source`` is called exactly once per close to snapshot-and-reset
    the router's received/rejected counters; without one the counters are
    derived from the CDRs' flags.
    Each close appends its ``ClosedInterval`` to ``history``, which is all the
    aggregator keeps of it; the acd_vendors rows are rendered from there.
    """

    def __init__(
        self,
        group: RouteGroup,
        opened_at: datetime,
        schedule: Schedule = Schedule(),
        counter_source: Optional[Callable[[], CounterSnapshot]] = None,
    ):
        self.group = group
        self.schedule = schedule
        self.anchor = opened_at
        self.opened_s = 0  # the open interval's start; tick n is n periods after the anchor
        self.history: List[ClosedInterval] = []
        self._counter_source = counter_source
        self._ticked_s = 0
        self._period_s = schedule.tick_period_s
        self._due: Dict[int, Dict[int, Tally]] = {}  # tick number -> vendor -> tally
        self._due_ticks: List[int] = []  # a min-heap of _due's keys
        self._open = self._tallies()

    def _tallies(self) -> Dict[int, Tally]:
        return {v: [0] * 6 for v in self.group.vendors}

    def _ended(self) -> int:
        """The open interval's ended calls: all but the router rejections."""
        return sum(sum(tally[:4]) for tally in self._open.values())

    def add_ended(self, legs: Iterable[Tuple[int, int, int, bool]]) -> None:
        """Count each ``(vendor, end_s, duration_s, rejected)`` leg of a group
        vendor toward the first tick after it ended, ``end_s`` s after the
        anchor, unless it ended before the open interval.

        The one place durations are bucketed. A router-rejected attempt never
        reached the vendor, so it counts as a rejection only."""
        period_s, due = self._period_s, self._due
        open_tick = self.opened_s // period_s
        for vendor, end_s, duration_s, rejected in legs:
            tick_no = end_s // period_s + 1
            if tick_no > open_tick:
                tallies = due.get(tick_no)
                if tallies is None:
                    tallies = due[tick_no] = self._tallies()
                    heapq.heappush(self._due_ticks, tick_no)
                tally = tallies[vendor]
                if rejected:
                    tally[5] += 1
                else:
                    tally[0 if duration_s == 0 else 1 if duration_s <= 5
                          else 2 if duration_s <= 30 else 3] += 1
                    tally[4] += duration_s

    def tick(self, now_s: int) -> Optional[ClosedInterval]:
        """Take in the CDRs that ended before the tick ``now_s`` seconds after
        the anchor; close the interval if it is due.

        Returns the closed interval, or None when it stays open: it is younger
        than the schedule's ``min_age_s`` or has fewer than its ``min_calls``
        ended calls.
        """
        schedule, period_s = self.schedule, self._period_s
        if now_s < self._ticked_s:
            raise ValueError(f"tick at {now_s} s precedes the last tick at {self._ticked_s} s")
        if now_s % period_s:
            raise ValueError(f"tick at {now_s} s is not aligned to the {period_s} s schedule")
        self._ticked_s = now_s
        tick_no = now_s // period_s
        while self._due_ticks and self._due_ticks[0] <= tick_no:
            due = self._due.pop(heapq.heappop(self._due_ticks))
            for v, tally in self._open.items():
                tally[:] = map(add, tally, due[v])
        if now_s - self.opened_s < schedule.min_age_s or self._ended() < schedule.min_calls:
            return None
        return self._close(now_s)

    def next_tick(self, now_s: int) -> int:
        """The first tick after one at ``now_s`` that can close the interval:
        the interval is ``min_age_s`` old by then and, with fewer than
        ``min_calls`` ended calls, it is the next to take in a CDR. A CDR added
        after the tick at ``now_s`` may be due at a tick already past; the tick
        after ``now_s`` takes it in."""
        schedule, period_s = self.schedule, self._period_s
        after = now_s + period_s
        if self._due_ticks and self._ended() < schedule.min_calls:
            after = max(after, period_s * self._due_ticks[0])
        return max(after, self.opened_s + period_s * -(-schedule.min_age_s // period_s))

    def _close(self, now_s: int) -> ClosedInterval:
        group = self.group
        stats = tuple(_stats(v, self._open[v]) for v in group.vendors)
        acds = (stats[0].acd_min, stats[1].acd_min)
        result = compute_rejection(QualityInput(acds, group.prefs, group.load_min))
        if self._counter_source is not None:
            received, rejected = self._counter_source()
        else:
            received = {s.vendor: s.calls for s in stats}
            rejected = {v: self._open[v][5] for v in group.vendors}
        closed = ClosedInterval(
            opened_at=self.history[-1].closed_at if self.history else self.anchor,
            closed_at=self.anchor + timedelta(seconds=now_s),
            vendors=group.vendors,
            prefs=group.prefs,
            stats=stats,
            result=result,
            received=received,
            rejected=rejected,
        )
        self.history.append(closed)
        self.opened_s = now_s
        self._open = self._tallies()
        return closed


def replay_cdrs(
    cdrs: Sequence[Cdr],
    group: RouteGroup,
    schedule: Schedule = Schedule(),
) -> List[ClosedInterval]:
    """Replay the tick schedule over a batch of historical CDRs.

    The schedule anchors at the earliest connect time and runs until no open
    interval can still close. Input order does not matter, because the
    aggregator counts each CDR toward the tick after its disconnect time,
    and CDRs outside the configured vendor pair are ignored. Every tick it
    may need falls at or before its horizon; a horizon past the last
    ``datetime`` is an ``OverflowError``.
    """
    ours = [cdr for cdr in cdrs if cdr[0] in group.vendors]
    if not ours:
        return []
    start_s = min(cdr[1] for cdr in ours)
    # once a tick falls this far past the last CDR, the open interval's call
    # count is frozen and the age condition has been evaluated at least once,
    # so any still-open interval can never close
    horizon_s = (max(cdr[2] for cdr in ours) - start_s
                 + schedule.min_age_s + schedule.tick_period_s)
    if start_s + horizon_s > (datetime.max - datetime.min) // _SECOND:
        raise OverflowError("the replay's ticks run past the last datetime")
    agg = IntervalAggregator(group, opened_at=datetime.min + timedelta(seconds=start_s),
                             schedule=schedule)
    agg.add_ended((vendor, end_s - start_s, duration_s, rejected)
                  for vendor, _, end_s, duration_s, rejected in ours)
    now_s = schedule.tick_period_s
    while now_s <= horizon_s:
        agg.tick(now_s)
        now_s = agg.next_tick(now_s)
    return agg.history
