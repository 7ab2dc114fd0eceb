import bisect
import random
import sys
import threading
from collections import OrderedDict

import pytest

from acdroute.admission import REJECTION_CODE, SEEN_TTL_S, AdmissionController
from acdroute.domain import RouteGroup, triggers_failover
from acdroute.rejection import QualityInput, compute_rejection

GOLDEN = compute_rejection(QualityInput((8.67, 0.6), (9, 8), 0.1))  # 12.77 on 55


def controller(seed=0):
    return AdmissionController(RouteGroup((55, 62), (9, 8)), seed=seed)


class OrderedDictLedger:
    """The at-most-once ledger as an ``OrderedDict`` in insertion order:
    expired ids are popped from its oldest end before an id is added, and a
    re-refused id moves to the newest end."""

    def __init__(self, seed):
        self.rng, self.seen = random.Random(seed), OrderedDict()

    def decide(self, call_id, target, now):
        seen = self.seen
        if target > 0.0 and seen.get(call_id, now) <= now and self.rng.random() < target / 100.0:
            while seen and next(iter(seen.values())) <= now:
                seen.popitem(last=False)
            seen.pop(call_id, None)
            seen[call_id] = now + SEEN_TTL_S
            return False
        return True


class TestDecide:
    def test_refusal_code_triggers_failover(self):
        # a refused attempt is answered with REJECTION_CODE: billing must retry
        assert triggers_failover(REJECTION_CODE)

    def test_cold_start_accepts_everything(self):
        # no evidence yet is a 0% target, the same as a refreshed one: every
        # call passes without drawing from the rng, so the refusal stream of
        # a run does not depend on how many calls came before the first close
        c = controller()
        assert c.targets == {55: 0.0, 62: 0.0}
        state = c._rng.getstate()
        for i in range(500):
            assert c.decide(f"c{i}", 55, now=float(i))
            assert c.decide(f"c{i}", 62, now=float(i))
        assert c._rng.getstate() == state

    def test_zero_target_vendor_always_accepts(self):
        c = controller()
        c.refresh_targets(GOLDEN)
        for i in range(2000):
            assert c.decide(f"c{i}", 62, now=float(i))

    def test_unknown_vendor_is_config_error(self):
        c = controller()
        with pytest.raises(ValueError):
            c.decide("c1", 99, now=0.0)
        # checked first: ``counters`` takes the same lock, and a lock left
        # held would hang the test instead of failing it
        assert not c._lock.locked()
        assert c.counters == ({55: 0, 62: 0}, {55: 0, 62: 0})

    def test_at_most_once_per_call(self):
        c = controller(seed=3)
        # force certain rejection
        forced = compute_rejection(QualityInput((5.0, 5.0), (8, 9), 0.1))
        assert forced.reject_pct_exact[1] == 50.0
        rejected_ids = set()
        double = 0
        for i in range(5000):
            call_id = f"c{i}"
            first = c.decide(call_id, 62, now=float(i))
            c.refresh_targets(forced)
            second = c.decide(call_id, 62, now=float(i))
            if not first:
                rejected_ids.add(call_id)
            if not second:
                if call_id in rejected_ids:
                    double += 1
                rejected_ids.add(call_id)
            c.refresh_targets(forced)
        assert double == 0

    def test_retry_after_reject_passes_on_either_clone(self):
        c = controller(seed=1)
        forced = compute_rejection(QualityInput((5.0, 5.0), (9, 8), 0.1))
        c.refresh_targets(forced)  # 50% on vendor 55
        saw_reject = False
        for i in range(200):
            call_id = f"c{i}"
            first = c.decide(call_id, 55, now=float(i))
            if not first:
                saw_reject = True
                assert c.decide(call_id, 62, now=float(i))
                assert c.decide(call_id, 55, now=float(i))
        assert saw_reject

    def test_ledger_entry_expires_after_ttl(self):
        c = controller(seed=2)
        half = compute_rejection(QualityInput((5.0, 5.0), (8, 9), 0.1))
        assert half.reject_pct_exact[1] == 50.0
        c.refresh_targets(half)
        # hammer until the draw rejects once
        t = 0.0
        call_id = "sticky"
        while c.decide(call_id, 62, now=t):
            t += 1.0
        # within TTL the retry passes, after TTL it may be rejected again
        assert c.decide(call_id, 62, now=t + SEEN_TTL_S - 1.0)
        later = t + SEEN_TTL_S + 1.0
        outcomes = {c.decide(call_id, 62, now=later + i) for i in range(200)}
        assert False in outcomes

    def test_ledger_ttl_is_one_hour(self):
        # README's default, as a literal: an id refused at t is live until
        # just before t + 3600 s, and may be refused again from t + 3600 s
        c = controller(seed=5)
        c.refresh_targets(compute_rejection(QualityInput((5.0, 5.0), (8, 9), 0.1)))
        t = 1000.0
        while c.decide("sticky", 62, now=t):
            t += 1.0
        assert all(c.decide("sticky", 62, now=t + 3599.9) for _ in range(200))
        assert not all(c.decide("sticky", 62, now=t + 3600.0) for _ in range(200))

    def test_ledger_matches_reference_across_expiries(self):
        """Decisions equal a plain-dict reference ("live iff expiry > now",
        same seed) over > 3 TTLs with retries and ids that recur after they
        expire, across backward steps of ``now``; once ``now`` is a TTL past
        every step, the ledger holds exactly the live entries after each
        rejection.

        The steps fall in the first TTL, before any entry has expired: an
        entry the purge has popped stays forgotten, so a later step back
        below its expiry would make the never-forgetting reference call it
        live (it was held a full TTL by the clock of its time).
        """
        seed = 11
        c = controller(seed=seed)
        c.refresh_targets(compute_rejection(QualityInput((5.0, 5.0), (8, 9), 0.1)))
        ref_rng, ref_seen = random.Random(seed), {}

        def ref_decide(call_id, now):
            if ref_seen.get(call_id, now) > now:
                return True
            if ref_rng.random() < 0.5:
                ref_seen[call_id] = now + SEEN_TTL_S
                return False
            return True

        draw = random.Random(5)
        backward = {600: 300.0, 1500: 600.0, 2500: 150.0}
        now = high = 0.0
        in_order_after = 0.0  # the ledger is in expiry order again past this time
        live_expiries, checks = [], 0
        for step in range(26_000):
            if step in backward:
                now -= backward[step]
                in_order_after = high + SEEN_TTL_S
            now += 0.5  # exact in binary, so expiries meet `now` exactly
            high = max(high, now)
            call_id = f"c{draw.randrange(4000)}"
            attempts = 2 if draw.random() < 0.3 else 1  # sometimes an immediate retry
            for _ in range(attempts):
                accepted = c.decide(call_id, 62, now=now)
                assert accepted == ref_decide(call_id, now), (step, call_id)
                if not accepted:
                    live_expiries.append(now + SEEN_TTL_S)
                    if now > in_order_after:
                        # any expiry out of order is <= now here, so bisect still splits
                        live = len(live_expiries) - bisect.bisect_right(live_expiries, now)
                        assert len(c._seen) == live, step
                        checks += 1
        assert now > 3 * SEEN_TTL_S and checks > 4000

    @pytest.mark.parametrize("first_trial", range(0, 300, 75))
    def test_ledger_equals_the_ordered_dict_rule(self, first_trial):
        """The dict-plus-FIFO ledger decides and remembers exactly as an
        ``OrderedDict`` purged from its oldest end before each insert, a
        re-refused id moved to the newest end, with the same seed: across
        backward steps of ``now`` at any time (also after entries expired and
        were purged), ids that recur, immediate retries and target changes."""
        half_on_62 = compute_rejection(QualityInput((5.0, 5.0), (8, 9), 0.1))
        for trial in range(first_trial, first_trial + 75):
            draw = random.Random(trial)
            c, model = controller(seed=trial), OrderedDictLedger(seed=trial)
            c.refresh_targets(half_on_62)
            targets = dict(zip((55, 62), half_on_62.reject_pct_exact))
            now, pool = 0.0, draw.choice((20, 200, 1000))
            for step in range(3000):
                if draw.random() < 0.005:  # a step back of up to a TTL
                    now -= 0.5 * draw.randrange(1, 2 * int(SEEN_TTL_S))
                else:
                    now += draw.choice((0.0, 0.5, 1.0, 5.0, 30.0, 120.0))  # exact in binary
                if draw.random() < 0.002:
                    result = compute_rejection(QualityInput(
                        (draw.uniform(0.1, 9.0), draw.uniform(0.1, 9.0)), (8, 9), 0.1))
                    c.refresh_targets(result)
                    targets = dict(zip((55, 62), result.reject_pct_exact))
                call_id = f"c{draw.randrange(pool)}"
                for _ in range(2 if draw.random() < 0.3 else 1):  # sometimes an immediate retry
                    vendor = 62 if draw.random() < 0.8 else 55
                    expected = model.decide(call_id, targets[vendor], now)
                    assert c.decide(call_id, vendor, now) == expected, (trial, step)
                    assert c._seen == model.seen, (trial, step)
            # past every expiry, one refusal purges the whole FIFO, stale pairs too
            now = max(model.seen.values(), default=now) + 1.0
            c.refresh_targets(half_on_62)
            fresh = 0
            while c.decide(f"fresh{fresh}", 62, now):
                assert model.decide(f"fresh{fresh}", 50.0, now)
                fresh += 1
            assert not model.decide(f"fresh{fresh}", 50.0, now)
            assert c._seen == model.seen == {f"fresh{fresh}": now + SEEN_TTL_S}
            assert len(c._ids) == len(c._expiries) <= len(c._seen)

    def test_a_raising_decide_releases_the_lock(self):
        c = controller()
        with pytest.raises(ValueError):
            c.decide("x", 99, 0.0)  # 99 is not a clone
        outcomes = []
        # a daemon thread: a lock left held blocks it, not the test run
        t = threading.Thread(target=lambda: outcomes.append(c.decide("y", 55, 0.0)),
                             daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive() and outcomes == [True]

    def test_empirical_rate_matches_target(self):
        c = controller(seed=202)
        c.refresh_targets(GOLDEN)
        n = 100_000
        rejected = 0
        for i in range(n):
            if not c.decide(f"c{i}", 55, now=float(i)):
                rejected += 1
        rate = 100.0 * rejected / n
        assert rate == pytest.approx(12.77, abs=0.3)


class TestCounters:
    def test_accepts_and_rejects_counted_separately(self):
        c = controller(seed=4)
        c.refresh_targets(compute_rejection(QualityInput((5.0, 5.0), (9, 8), 0.1)))
        outcomes = [c.decide(f"c{i}", 55, now=float(i)) for i in range(40)]
        assert {type(outcome) for outcome in outcomes} == {bool}
        received, rejected = c.counters
        assert 0 < outcomes.count(False) < 40
        assert received == {55: outcomes.count(True), 62: 0}
        assert rejected == {55: outcomes.count(False), 62: 0}

    def test_zero_traffic(self):
        received, rejected = controller().counters
        assert received == {55: 0, 62: 0}
        assert rejected == {55: 0, 62: 0}

    def test_snapshot_resets(self):
        c = controller()
        assert c.decide("c1", 62, now=0.0)
        snap = c.snapshot_and_reset_counters()
        assert snap == ({55: 0, 62: 1}, {55: 0, 62: 0})
        received, rejected = c.counters
        assert received == {55: 0, 62: 0} and rejected == {55: 0, 62: 0}

    def test_counters_match_decision_log_recount(self):
        c = controller(seed=11)
        c.refresh_targets(GOLDEN)
        rng = random.Random(40)
        log = []
        for i in range(10_000):
            vendor = rng.choice((55, 62))
            log.append((vendor, c.decide(f"c{i}", vendor, now=float(i))))
        received, rejected = c.counters
        # independent recount of the log
        for vendor in (55, 62):
            assert received[vendor] == sum(
                1 for v, acc in log if v == vendor and acc
            )
            assert rejected[vendor] == sum(
                1 for v, acc in log if v == vendor and not acc
            )

    def test_conservation_arrivals_equal_received_plus_rejected(self):
        c = controller(seed=12)
        c.refresh_targets(GOLDEN)
        arrivals = {55: 0, 62: 0}
        rng = random.Random(41)
        for i in range(5000):
            vendor = rng.choice((55, 62))
            arrivals[vendor] += 1
            c.decide(f"c{i}", vendor, now=float(i))
        received, rejected = c.counters
        for vendor in (55, 62):
            assert arrivals[vendor] == received[vendor] + rejected[vendor]


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def run(seed):
            c = controller(seed=seed)
            c.refresh_targets(GOLDEN)
            return [c.decide(f"c{i}", 55, now=float(i)) for i in range(2000)]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_refresh_swaps_targets(self):
        c = controller()
        c.refresh_targets(GOLDEN)
        assert c.targets == {55: GOLDEN.reject_pct_exact[0], 62: 0.0}
        other = compute_rejection(QualityInput((0.17, 0.79), (9, 8), 0.1))
        c.refresh_targets(other)
        assert c.targets == {55: other.reject_pct_exact[0], 62: 0.0}


class TestConcurrency:
    def test_decision_burst_with_concurrent_refresh(self):
        c = controller(seed=9)
        c.refresh_targets(GOLDEN)
        per_thread = 4000
        n_threads = 8
        errors = []
        stop = threading.Event()

        def worker(worker_id):
            try:
                for i in range(per_thread):
                    vendor = 55 if i % 2 == 0 else 62
                    c.decide(f"w{worker_id}-{i}", vendor, now=float(i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def refresher():
            flip = [GOLDEN, compute_rejection(QualityInput((0.17, 0.79), (9, 8), 0.1))]
            i = 0
            while not stop.is_set():
                c.refresh_targets(flip[i % 2])
                i += 1

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_threads)]
        refresh_thread = threading.Thread(target=refresher)
        refresh_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        refresh_thread.join()

        assert not errors
        received, rejected = c.counters
        total = sum(received.values()) + sum(rejected.values())
        assert total == per_thread * n_threads
        # targets are never torn: always exactly one nonzero, on vendor 55
        assert c.targets[62] == 0.0

    def test_concurrent_snapshots_count_every_decision_once(self):
        # decisions and interval snapshots race; every decision lands in
        # exactly one snapshot (or the final counters), counted once
        c = controller(seed=10)
        c.refresh_targets(GOLDEN)
        per_thread, n_threads = 3000, 6
        snapshots = []
        stop = threading.Event()

        def worker(worker_id):
            for i in range(per_thread):
                c.decide(f"w{worker_id}-{i}", 55 if i % 3 else 62, now=float(i))

        def snapshotter():
            while not stop.is_set():
                snapshots.append(c.snapshot_and_reset_counters())

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_threads)]
            snap_thread = threading.Thread(target=snapshotter)
            snap_thread.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            snap_thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads) and not snap_thread.is_alive()
        snapshots.append(c.counters)
        counted = sum(sum(rec.values()) + sum(rej.values()) for rec, rej in snapshots)
        assert counted == per_thread * n_threads
