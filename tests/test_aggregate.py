import csv
import gc
import io
import itertools
import json
import random
import weakref
from datetime import datetime, timedelta

import pytest

from acdroute.aggregate import (
    ClosedInterval,
    IntervalAggregator,
    Schedule,
    replay_cdrs,
)
from acdroute.codec import decode, encode
from acdroute.domain import RouteGroup
from acdroute.store import acd_csv_text
from conftest import SECOND, T0, add_records, as_read, make_cdr, spread_cdrs
from reference import vendor_stats

GROUP = RouteGroup((55, 62), (9, 8))

# duration multisets reproducing the documented bucket/total/ACD combinations
STRONG_ROW = [0] * 17 + [25] + [851] * 9 + [854]          # 28 calls, 142.3 min
WEAK_ROW = [0] * 5 + [10, 20] + [816] * 8                  # 15 calls, 109.3 min


def closed_stats(cdrs, vendor, other=999):
    """``vendor``'s statistics in the interval that an aggregator of
    ``vendor`` and ``other`` closes over ``cdrs``: its one tick falls at the
    end of the 20 minutes ``spread_cdrs`` spreads them over, and one ended
    call of either vendor is enough to close."""
    agg = IntervalAggregator(RouteGroup((vendor, other), (9, 8)), opened_at=T0,
                             schedule=Schedule(1200, 1200, 1))
    add_records(agg, cdrs)
    return agg.tick(1200).stats[0]


class TestVendorStats:
    """The statistics of a closed interval, one vendor at a time."""

    def test_strong_row(self):
        stats = closed_stats(spread_cdrs(1, STRONG_ROW), 1)
        assert (stats.bucket_zero, stats.bucket_0_5, stats.bucket_5_30,
                stats.bucket_over_30) == (17, 0, 1, 10)
        assert stats.calls == 28
        assert stats.total_minutes == pytest.approx(142.3, abs=1e-9)
        assert stats.acd_min == pytest.approx(12.94, abs=0.01)

    def test_weak_row(self):
        stats = closed_stats(spread_cdrs(2, WEAK_ROW), 2)
        assert (stats.bucket_zero, stats.bucket_0_5, stats.bucket_5_30,
                stats.bucket_over_30) == (5, 0, 2, 8)
        assert stats.calls == 15
        assert stats.total_minutes == pytest.approx(109.3, abs=1e-9)
        assert stats.acd_min == pytest.approx(10.93, abs=0.01)

    def test_empty_input(self):
        # the other vendor's call closes the interval
        stats = closed_stats(spread_cdrs(999, [60]), 1)
        assert stats.calls == 0
        assert stats.total_minutes == 0.0
        assert stats.acd_min is None

    def test_bucket_edges_at_0_5_and_30_s(self):
        stats = closed_stats(spread_cdrs(1, [0, 1, 5, 6, 30, 31]), 1)
        assert (stats.bucket_zero, stats.bucket_0_5, stats.bucket_5_30,
                stats.bucket_over_30) == (1, 2, 2, 1)
        assert stats.calls == 6
        assert stats.total_minutes == 73 / 60

    def test_all_zero_durations_have_no_acd(self):
        stats = closed_stats(spread_cdrs(1, [0, 0, 0]), 1)
        assert stats.calls == 3
        assert stats.acd_min is None

    def test_excludes_other_vendors_and_rejected(self):
        cdrs = spread_cdrs(1, [60, 120]) + spread_cdrs(2, [30])
        cdrs.append(make_cdr("rej", 1, T0 + timedelta(seconds=100), 0, rejected=True))
        stats = closed_stats(cdrs, 1, other=2)
        assert stats.calls == 2
        assert stats.total_minutes == pytest.approx(3.0)

    def test_matches_brute_force_recount(self):
        rng = random.Random(1234)
        durations = [rng.choice([0, 0, rng.randint(1, 5), rng.randint(6, 30),
                                 rng.randint(31, 3000)]) for _ in range(200)]
        cdrs = spread_cdrs(7, durations)
        stats = closed_stats(cdrs, 7)

        # independent single-pass recount
        buckets = [0, 0, 0, 0]
        total_s = 0
        nonzero = 0
        for d in durations:
            if d == 0:
                buckets[0] += 1
            elif 0 < d <= 5:
                buckets[1] += 1
            elif 5 < d <= 30:
                buckets[2] += 1
            else:
                buckets[3] += 1
            total_s += d
            nonzero += d > 0
        assert [stats.bucket_zero, stats.bucket_0_5, stats.bucket_5_30,
                stats.bucket_over_30] == buckets
        assert stats.calls == len(durations)
        assert stats.total_minutes == pytest.approx(total_s / 60.0, abs=1e-9)
        assert stats.acd_min == pytest.approx(total_s / 60.0 / nonzero, abs=1e-9)

    def test_acd_times_answered_equals_total_minutes(self):
        rng = random.Random(5)
        for _ in range(50):
            durations = [rng.randint(0, 600) for _ in range(rng.randint(1, 60))]
            stats = closed_stats(spread_cdrs(3, durations), 3)
            answered = sum(1 for d in durations if d > 0)
            if answered:
                assert stats.acd_min * answered == pytest.approx(
                    stats.total_minutes, abs=1e-9
                )


class TestSchedule:
    @pytest.mark.parametrize("values, message", [
        ((0, 1200, 20), "interval schedule needs tick period > 0, minimum age > 0 and "
                        "minimum calls >= 1, got 0 s, 1200 s, 20"),
        ((600, -600, 20), "interval schedule needs tick period > 0, minimum age > 0 and "
                          "minimum calls >= 1, got 600 s, -600 s, 20"),
        ((600, 1200, 0), "interval schedule needs tick period > 0, minimum age > 0 and "
                         "minimum calls >= 1, got 600 s, 1200 s, 0"),
        ((86_400_000_000_000, 1200, 20),
         "interval schedule needs a tick period of at most 86399999999999 s "
         "(999999999 days), the longest a timedelta holds"),
        ((600, 86_400_000_000_000, 20),
         "interval schedule needs a minimum age of at most 86399999999999 s "
         "(999999999 days), the longest a timedelta holds"),
    ], ids=["zero-tick", "negative-age", "zero-calls", "huge-tick", "huge-age"])
    def test_refuses_a_bad_schedule(self, values, message):
        with pytest.raises(ValueError) as refused:
            Schedule(*values)
        assert str(refused.value) == message

    def test_from_minutes(self):
        assert Schedule() == Schedule(tick_period_s=600, min_age_s=1200, min_calls=20)
        assert Schedule.from_minutes(10, 20, 20) == Schedule()
        assert Schedule.from_minutes(0.1, 0.25, 1) == Schedule(6, 15, 1)
        with pytest.raises(ValueError, match="^10.004 min is not a whole number of seconds$"):
            Schedule.from_minutes(10.004, 20, 20)
        with pytest.raises(ValueError, match="^interval schedule needs tick period > 0"):
            Schedule.from_minutes(0, 20, 20)


class TestTickDecision:
    """The close rule: an interval closes on a tick iff it is at least
    ``min_age_s`` old and at least ``min_calls`` of its calls ended."""

    def test_too_young(self):
        agg = _aggregator(spread_cdrs(55, [60] * 50, window_s=600))
        assert agg.tick(600) is None
        assert agg.opened_s == 0

    def test_too_quiet(self):
        agg = _aggregator(spread_cdrs(55, [60] * 12))
        assert agg.tick(1800) is None
        assert agg.opened_s == 0

    def test_boundary_closes(self):
        agg = _aggregator(spread_cdrs(55, [60] * 20))
        closed = agg.tick(1200)
        assert closed is not None
        assert closed.stats[0].calls == 20
        assert (closed.opened_at, closed.closed_at) == (T0, T0 + timedelta(minutes=20))

    def test_clock_error(self):
        agg = _aggregator(spread_cdrs(55, [60] * 100))
        with pytest.raises(ValueError, match="^tick at -1 s precedes the last tick at 0 s$"):
            agg.tick(-1)

    def test_next_tick_is_after_now_when_a_late_cdr_is_due_at_a_past_tick(self):
        agg = _aggregator([], schedule=Schedule(min_calls=100))
        assert agg.tick(1800) is None
        # ends inside the open interval, so it is counted toward tick 1 (00:10)
        add_records(agg, [make_cdr("late", 55, T0 + timedelta(minutes=2, seconds=10), 10)])
        assert agg.next_tick(1800) == 2400

    def test_next_tick_never_goes_back(self):
        rng = random.Random(31)
        agg = _aggregator([], schedule=Schedule(min_calls=5))
        now_s = 600
        for i in range(300):
            agg.tick(now_s)
            for j in range(rng.randint(0, 3)):
                end = T0 + timedelta(seconds=now_s - rng.randint(0, 3600))
                add_records(agg, [make_cdr(f"n{i}-{j}", 55, end, rng.randint(0, 60))])
            after = agg.next_tick(now_s)
            assert after > now_s, f"step {i}"
            now_s = after


def _aggregator(cdrs, **kwargs):
    agg = IntervalAggregator(GROUP, opened_at=T0, **kwargs)
    add_records(agg, cdrs)
    return agg


# ACDs of exactly 8.67 and 0.6 minutes, padded with zero-duration calls so the
# interval reaches the 20-call minimum
GOLDEN_V55 = [520, 520, 520, 520, 521] + [0] * 10
GOLDEN_V62 = [36] + [0] * 5


def acd_data_rows(history, prefix=""):
    """The data rows of the acd_vendors file of ``history``, as ``csv``
    splits them."""
    return list(csv.reader(io.StringIO(acd_csv_text(history, prefix))))[1:]


class TestCloseInterval:
    def test_golden_close(self):
        cdrs = spread_cdrs(55, GOLDEN_V55) + spread_cdrs(62, GOLDEN_V62)
        agg = _aggregator(cdrs)
        assert agg.tick(600) is None
        closed = agg.tick(1200)
        assert closed is not None
        assert closed.stats[0].acd_min == pytest.approx(8.67, abs=1e-9)
        assert closed.stats[1].acd_min == pytest.approx(0.6, abs=1e-9)
        assert closed.result.reject_pct == (12.77, 0.0)
        rows = acd_data_rows(agg.history, "37410")
        assert len(rows) == 2
        assert rows[0][1] == "55" and rows[0][4] == "12.77"
        assert rows[1][1] == "62" and rows[1][4] == "0.00"
        assert rows[0][5] == "37410"
        # next interval opens exactly where this one closed
        assert agg.opened_s == 1200

    def test_vendor_without_calls_gets_null_row(self):
        cdrs = spread_cdrs(55, [77] * 25)
        agg = _aggregator(cdrs)
        closed = agg.tick(1200)
        assert closed is not None
        assert closed.stats[1].acd_min is None
        assert closed.result.reject_pct == (0.0, 0.0)
        rows = acd_data_rows(agg.history)
        assert rows[1][3] == "" and rows[1][4] == "0.00"

    def test_derived_counters_from_cdr_flags(self):
        cdrs = spread_cdrs(55, [60] * 25)
        cdrs += [
            make_cdr(f"r{i}", 55, T0 + timedelta(seconds=30 + i), 0, rejected=True)
            for i in range(4)
        ]
        agg = _aggregator(cdrs)
        closed = agg.tick(1200)
        assert closed.received == {55: 25, 62: 0}
        assert closed.rejected == {55: 4, 62: 0}

    def test_misaligned_tick_rejected(self):
        agg = _aggregator(spread_cdrs(55, [60] * 25))
        with pytest.raises(ValueError, match="^tick at 420 s is not aligned to the 600 s schedule$"):
            agg.tick(420)

    def test_tick_before_open_rejected(self):
        agg = _aggregator([])
        with pytest.raises(ValueError):
            agg.tick(-600)

    def test_tick_going_back_in_time_rejected(self):
        agg = _aggregator(spread_cdrs(55, [60] * 12))
        assert agg.tick(1800) is None
        with pytest.raises(ValueError, match="precedes the last tick"):
            agg.tick(1200)

    def test_cdr_ending_on_the_tick_counts_in_the_next_interval(self):
        edge = T0 + timedelta(minutes=20)
        cdrs = spread_cdrs(55, [60] * 20) + [make_cdr("edge", 55, edge, 5)]
        cdrs += spread_cdrs(55, [60] * 19, start=edge, tag="y")
        agg = _aggregator(cdrs)
        first = agg.tick(1200)
        assert first.stats[0].calls == 20
        second = agg.tick(2400)
        assert second.stats[0].calls == 20
        assert second.stats[0].bucket_0_5 == 1

    @pytest.mark.parametrize("offset_s, counts", [(-1, False), (-599, False), (0, True)])
    def test_cdr_ending_before_the_first_interval_is_dropped(self, offset_s, counts):
        # a negative offset from the anchor floors to tick 0, which never comes
        edge = make_cdr("edge", 55, T0 + timedelta(seconds=offset_s), 5)
        agg = _aggregator(spread_cdrs(55, [60] * 19) + [edge])
        closed = agg.tick(1200)
        assert (closed is not None) == counts
        if counts:
            assert closed.stats[0].calls == 20 and closed.stats[0].bucket_0_5 == 1
        else:
            assert agg.tick(1800) is None

    def test_late_cdr_is_dropped(self):
        agg = _aggregator(spread_cdrs(55, [60] * 20))
        assert agg.tick(1200) is not None
        # ended inside the interval that already closed
        add_records(agg, [make_cdr("late", 55, T0 + timedelta(minutes=19), 5)])
        add_records(agg, spread_cdrs(55, [60] * 20, start=T0 + timedelta(minutes=20), tag="y"))
        closed = agg.tick(2400)
        assert closed.stats[0].calls == 20 and closed.stats[0].bucket_0_5 == 0

    def test_counter_source_snapshot_is_used(self):
        calls = []

        def source():
            calls.append(1)
            return {55: 11, 62: 3}, {55: 2, 62: 0}

        cdrs = spread_cdrs(55, [60] * 25)
        agg = _aggregator(cdrs, counter_source=source)
        closed = agg.tick(1200)
        assert closed.received == {55: 11, 62: 3}
        assert closed.rejected == {55: 2, 62: 0}
        assert calls == [1]


def _random_stream(rng, vendors=(55, 62)):
    """A few hours of CDRs with bursts and lulls."""
    cdrs = []
    t = 0.0
    total_s = rng.randint(2, 5) * 3600
    i = 0
    while t < total_s:
        rate = rng.choice([0.2, 0.8, 2.0])  # calls per minute
        t += rng.expovariate(rate / 60.0)
        if t >= total_s:
            break
        vendor = rng.choice(vendors)
        duration = rng.choice([0, 0, rng.randint(1, 40), rng.randint(41, 900)])
        cdrs.append(
            make_cdr(f"s{i:05d}", vendor, T0 + timedelta(seconds=int(t) + duration),
                     duration)
        )
        i += 1
    return cdrs


class TestIntervalScheduleProperties:
    RUNS = 100

    def test_closed_intervals_respect_minima_and_partition_timeline(self):
        for run in range(self.RUNS):
            rng = random.Random(9000 + run)
            cdrs = _random_stream(rng)
            if not cdrs:
                continue
            agg = _aggregator(cdrs)
            last_end = max(r.disconnect_time for r in cdrs)
            k = 1
            while T0 + timedelta(seconds=600 * k) <= last_end + timedelta(seconds=1800):
                agg.tick(600 * k)
                k += 1

            previous_close = T0
            for closed in agg.history:
                age_s = (closed.closed_at - closed.opened_at).total_seconds()
                assert age_s >= 1200, f"run {run}: interval younger than 20 min"
                assert age_s % 600 == 0, f"run {run}: age not a multiple of 10 min"
                # recount ended calls straight from the input
                in_range = [r for r in cdrs
                            if closed.opened_at <= r.disconnect_time < closed.closed_at]
                ended = [r for r in in_range if not r.rejected_by_router]
                assert len(ended) >= 20, f"run {run}: interval closed under 20 calls"
                assert sum(s.calls for s in closed.stats) == len(ended)
                # gapless timeline
                assert closed.opened_at == previous_close, f"run {run}: gap in timeline"
                previous_close = closed.closed_at


class TestPushFedOracle:
    """Each closed interval's statistics and counters equal a brute-force
    recount over every CDR added before its closing tick that ended inside
    [opened_at, closed_at), whatever the order and timing of the adds."""

    RUNS = 60

    def test_matches_brute_force_recount(self):
        seen = {"closed": 0, "late_dropped": 0, "late_kept": 0,
                "on_tick": 0, "other_vendor": 0}
        for run in range(self.RUNS):
            rng = random.Random(4100 + run)
            # a coarse grid gives many equal disconnect times, some on ticks
            grid_s = rng.choice((1, 60, 600))
            n_ticks = rng.randint(6, 30)
            # the CDRs added just before each tick, in shuffled order
            batches = [[] for _ in range(n_ticks + 1)]
            for i in range(rng.randint(0, 500)):
                vendor = rng.choice((55, 55, 62, 62, 99))
                rejected = rng.random() < 0.15
                duration = 0 if rejected else rng.choice(
                    [0, rng.randint(1, 30), rng.randint(31, 900)])
                end_s = rng.randint(0, n_ticks * 600 // grid_s) * grid_s
                record = make_cdr(f"o{i}", vendor, T0 + timedelta(seconds=end_s), duration,
                                  rejected=rejected)
                due = end_s // 600  # index of the first tick after it ended
                if due < n_ticks and rng.random() < 0.1:
                    batches[rng.randint(due + 1, n_ticks)].append(record)  # late
                else:
                    batches[rng.randint(0, min(due, n_ticks))].append(record)
            agg = IntervalAggregator(GROUP, opened_at=T0)
            added = []
            for k, batch in enumerate(batches):
                opened_s = agg.opened_s
                opened = T0 + timedelta(seconds=opened_s)
                for record in batch:
                    if record.disconnect_time < T0 + timedelta(seconds=600 * k):
                        late = record.disconnect_time < opened
                        seen["late_dropped" if late else "late_kept"] += 1
                    add_records(agg, [record])
                added += batch
                now = T0 + timedelta(seconds=600 * (k + 1))
                ours = [r for r in added
                        if r.vendor in GROUP.vendors and opened <= r.disconnect_time < now]
                ended = [r for r in ours if not r.rejected_by_router]
                due = (now - opened).total_seconds() >= 1200 and len(ended) >= 20
                closed = agg.tick(600 * (k + 1))
                assert (closed is not None) == due, f"run {run} tick {k}"
                seen["on_tick"] += sum(r.disconnect_time == now for r in added)
                seen["other_vendor"] += sum(r.vendor == 99 for r in batch)
                if closed is None:
                    assert agg.opened_s == opened_s
                    continue
                seen["closed"] += 1
                assert (closed.opened_at, closed.closed_at) == (opened, now)
                assert encode(closed.stats) == [
                    vendor_stats(v, [r.duration_s for r in ended if r.vendor == v])
                    for v in GROUP.vendors]
                assert sum(s.calls for s in closed.stats) == len(ended)
                assert closed.received == {
                    v: sum(r.vendor == v for r in ended) for v in GROUP.vendors}
                assert closed.rejected == {
                    v: sum(r.vendor == v and r.rejected_by_router for r in ours)
                    for v in GROUP.vendors}
        # every kind of feed the recount is meant to cover occurred
        assert all(count >= 10 for count in seen.values()), seen


# past the longest stream of the idle-tick test: 5 lulls of 3 days, plus an hour
HUGE_AGE_S = 600 * 3000


def _counted_replay(monkeypatch, cdrs, schedule):
    """``replay_cdrs``' history, and the number of ticks it made."""
    ticks = []
    tick = IntervalAggregator.tick

    def counted(self, now):
        ticks.append(now)
        return tick(self, now)

    with monkeypatch.context() as patch:
        patch.setattr(IntervalAggregator, "tick", counted)
        history = replay_cdrs(as_read(cdrs), GROUP, schedule)
    return history, len(ticks)


class TestReplay:
    def test_shuffle_invariance(self):
        rng = random.Random(77)
        cdrs = as_read(_random_stream(rng))
        history = replay_cdrs(cdrs, GROUP)
        shuffled = list(cdrs)
        rng.shuffle(shuffled)
        assert encode(replay_cdrs(shuffled, GROUP)) == encode(history)

    def test_empty_input(self):
        assert replay_cdrs([], GROUP) == []

    def test_trailing_interval_can_close_after_last_record(self):
        # 25 calls inside the first 5 minutes: the age condition is met only
        # by ticks well past the last record; at an age of 7,000 years the
        # interval after that close could only grow old after year 9999
        cdrs = as_read(spread_cdrs(55, [30] * 25, window_s=300))
        for min_age_s in (1200, 600 * 144 * 365 * 7000):
            history = replay_cdrs(cdrs, GROUP, Schedule(min_age_s=min_age_s))
            assert len(history) == 1
            assert history[0].closed_at - history[0].opened_at >= timedelta(seconds=min_age_s)

    def test_records_of_other_vendors_are_ignored(self):
        rng = random.Random(88)
        cdrs = as_read(_random_stream(rng))
        noisy = cdrs + as_read(spread_cdrs(99, [0] * 30 + [120] * 30, tag="noise"))
        rng.shuffle(noisy)
        assert encode(replay_cdrs(noisy, GROUP)) == encode(replay_cdrs(cdrs, GROUP))

    def test_skipping_idle_ticks_keeps_every_close(self, monkeypatch):
        # bursts of calls, some router-rejected, with lulls of up to three
        # days: replay closes what a tick on every period closes, also with a
        # minimum age beyond the whole stream, and ticks as often at any such age
        closes = 0
        for run, min_age_s in itertools.product(range(30), (1200, HUGE_AGE_S)):
            rng = random.Random(5200 + run)
            cdrs, offset_s = [], 0
            for burst in range(rng.randint(2, 5)):
                offset_s += rng.randint(0, 3 * 86400)
                for i in range(rng.randint(0, 60)):
                    rejected = rng.random() < 0.3
                    end = T0 + timedelta(seconds=offset_s + rng.randint(0, 3600))
                    cdrs.append(make_cdr(f"b{burst}-{i}", rng.choice((55, 62)), end,
                                         0 if rejected else rng.randint(0, 600),
                                         rejected=rejected))
            if not cdrs:
                continue
            start = min(r.connect_time for r in cdrs)
            schedule = Schedule(min_age_s=min_age_s)
            agg = IntervalAggregator(GROUP, opened_at=start, schedule=schedule)
            add_records(agg, cdrs)
            last_end_s = (max(r.disconnect_time for r in cdrs) - start) // SECOND
            for now_s in range(600, last_end_s + min_age_s + 600 + 1, 600):
                agg.tick(now_s)
            history, ticks = _counted_replay(monkeypatch, cdrs, schedule)
            assert encode(history) == encode(agg.history), f"run {run}, age {min_age_s} s"
            if min_age_s == HUGE_AGE_S:
                _, older_ticks = _counted_replay(monkeypatch, cdrs,
                                                Schedule(min_age_s=1000 * min_age_s))
                assert older_ticks == ticks, f"run {run}"
            closes += len(history)
        assert closes >= 60

    def test_replay_closes_what_ticking_every_period_closes(self):
        # small random logs, ticks of 60 or 600 s, minimum ages of 37-1200 s
        # (some below the tick, most off its multiples): replay's horizon
        # misses no close that a tick on every period, up to two periods
        # past the last end plus the minimum age, makes
        closes = 0
        for run in range(50):
            rng = random.Random(9100 + run)
            schedule = Schedule(rng.choice((60, 600)), rng.choice((37, 60, 299, 600, 601, 1200)),
                                rng.randint(1, 5))
            cdrs = []
            for i in range(rng.randint(1, 30)):
                rejected = rng.random() < 0.2
                end = T0 + timedelta(seconds=rng.randint(0, 3 * schedule.tick_period_s
                                                         + schedule.min_age_s))
                cdrs.append(make_cdr(f"h{i}", rng.choice((55, 62)), end,
                                     0 if rejected else rng.randint(0, 90), rejected=rejected))
            start = min(r.connect_time for r in cdrs)
            agg = IntervalAggregator(GROUP, opened_at=start, schedule=schedule)
            add_records(agg, cdrs)
            period_s = schedule.tick_period_s
            horizon_s = ((max(r.disconnect_time for r in cdrs) - start) // SECOND
                         + schedule.min_age_s + 2 * period_s)
            for now_s in range(period_s, horizon_s + 1, period_s):
                agg.tick(now_s)
            assert encode(replay_cdrs(as_read(cdrs), GROUP, schedule)) == encode(agg.history), (
                f"run {run}, {schedule}")
            closes += len(agg.history)
        assert closes >= 50

    def test_gap_of_centuries_is_not_ticked_through(self, monkeypatch):
        cdrs = as_read(spread_cdrs(55, [30] * 25, window_s=300))
        late = as_read(spread_cdrs(55, [30, 0], start=datetime(9999, 12, 31, 23, 0, 0),
                                   window_s=1800, tag="late"))
        want = encode(replay_cdrs(cdrs, GROUP))
        ticks = []
        tick = IntervalAggregator.tick

        def counted(self, now):
            ticks.append(now)
            assert len(ticks) < 100, "replay ticks through the gap"
            return tick(self, now)

        monkeypatch.setattr(IntervalAggregator, "tick", counted)
        assert encode(replay_cdrs(cdrs + late, GROUP)) == want


def _weak_feed(seed):
    """About a thousand CDRs, some router-rejected, ending over six hours."""
    rng = random.Random(seed)
    cdrs = []
    for i in range(1000):
        rejected = rng.random() < 0.15
        duration = 0 if rejected else rng.choice([0, rng.randint(1, 30), rng.randint(31, 900)])
        end = T0 + timedelta(seconds=rng.randint(0, 6 * 3600))
        cdrs.append(make_cdr(f"w{i:04d}", rng.choice((55, 62, 99)), end, duration,
                             rejected=rejected))
    return cdrs


class _Leg(list):
    """A leg ``add_ended`` takes, as an object a weak reference can follow."""


class TestNoRecordRetained:
    def test_aggregator_keeps_no_cdr(self):
        cdrs = _weak_feed(31)
        want = replay_cdrs(as_read(cdrs), GROUP)
        start = min(r.connect_time for r in cdrs)
        last_end_s = (max(r.disconnect_time for r in cdrs) - start) // SECOND
        del cdrs
        agg = IntervalAggregator(GROUP, opened_at=start)
        refs = []
        for record in _weak_feed(31):
            if record.vendor in GROUP.vendors:
                leg = _Leg([record.vendor, (record.disconnect_time - start) // SECOND,
                            record.duration_s, record.rejected_by_router])
                agg.add_ended([leg])
                refs.append(weakref.ref(leg))
        del leg
        gc.collect()
        assert all(ref() is None for ref in refs)
        for now_s in range(600, last_end_s + 1800 + 1, 600):
            agg.tick(now_s)
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(want) >= 5
        assert encode(agg.history) == encode(want)


class TestClosedIntervalSerialization:
    def test_round_trip(self):
        cdrs = spread_cdrs(55, GOLDEN_V55) + spread_cdrs(62, GOLDEN_V62)
        agg = _aggregator(cdrs)
        closed = agg.tick(1200)
        data = encode(closed)
        rebuilt = decode(ClosedInterval, json.loads(json.dumps(data)))
        assert encode(rebuilt) == data
        assert rebuilt.result == closed.result
        assert rebuilt.stats == closed.stats
