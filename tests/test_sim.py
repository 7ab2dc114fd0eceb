import json
import math
import random
from array import array
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest

import reference
from acdroute.admission import REJECTION_CODE, AdmissionController
from acdroute.aggregate import IntervalAggregator
from acdroute.codec import decode, encode
from acdroute.domain import DisconnectCause
from acdroute.sim import (
    MAX_EXPECTED_CALLS,
    DurationSpec,
    ScenarioConfig,
    VendorModel,
    VendorSpec,
    _leg_sampler,
    run_scenario,
)
from acdroute.store import SEND_BLOCK
from conftest import assert_rows_equal, attempt_sink, billing_vendors, decode_block, record_sink

FAS = VendorModel("false_answer", 0.97, DurationSpec("exponential", mean_s=36.0),
                  failure_code=408)
PURE_FAS = VendorModel("false_answer", 1.0, DurationSpec("exponential", mean_s=36.0),
                       failure_code=408)
HONEST = VendorModel("honest", 0.9, DurationSpec("exponential", mean_s=520.2),
                     failure_code=480)


def fas_preferred_config(seed=7, rate=30.0, duration=400.0, admission=True,
                         fas_model=FAS):
    """The fraud case: the false-answer vendor holds the higher preference."""
    return ScenarioConfig(
        seed=seed,
        arrival_rate_per_min=rate,
        duration_min=duration,
        vendors=(
            VendorSpec(71, 9, fas_model),
            VendorSpec(72, 8, HONEST),
        ),
        admission_enabled=admission,
    )


def discard(first, times, codes):
    """A ``run_scenario`` sink that keeps nothing."""


def run_collecting(config):
    """``run_scenario(config)`` with a sink that keeps each attempt's
    ``(record, t_s)`` event; returns the result and the events."""
    attempts = []
    result = run_scenario(config, on_attempts=record_sink(attempts, config))
    return result, attempts


def honest_preferred_config(seed=11, rate=30.0, duration=400.0):
    """The healthy case: the good route is preferred, the weak route still
    keeps its minimum measurement share."""
    return ScenarioConfig(
        seed=seed,
        arrival_rate_per_min=rate,
        duration_min=duration,
        vendors=(
            VendorSpec(55, 9, HONEST),
            VendorSpec(62, 8, FAS),
        ),
    )


class TestBillingRoute:
    """The reference's failover picker, which the run's attempts are checked
    against (``TestRoutingMatchesBillingRoute``)."""

    PREFS = {55: 9, 62: 8}

    def test_first_attempt_goes_to_higher_preference(self):
        assert reference.billing_route(self.PREFS, []) == 55

    def test_failover_after_rejection(self):
        assert reference.billing_route(self.PREFS, [(55, 503)]) == 62

    def test_failover_after_vendor_failure(self):
        assert reference.billing_route(self.PREFS, [(55, 486)]) == 62

    def test_success_ends_routing_even_for_one_second_calls(self):
        assert reference.billing_route(self.PREFS, [(55, 200)]) is None

    def test_abandoned_after_both_fail(self):
        assert reference.billing_route(self.PREFS, [(55, 503), (62, 480)]) is None


SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


class TestRoutingMatchesBillingRoute:
    """``run_scenario`` walks the billing order once per call; every call's
    attempts must be exactly the ones the reference's ``billing_route``
    picks, one at a time, from the responses the call got."""

    # the hundreds digits of a call's response codes, in order: answered at once;
    # rejected (503) or unanswered (4xx) and then answered or unanswered
    # at the other route; the pure false-answer route answers every call
    ALL_SHAPES = {(2,), (4, 2), (4, 4), (5, 2), (5, 4)}

    @pytest.mark.parametrize("name, failure_codes, shapes", [
        pytest.param("honest_vs_fas", {}, ALL_SHAPES, id="honest_vs_fas"),
        pytest.param("preferred_honest", {}, ALL_SHAPES, id="preferred_honest"),
        # the preferred honest vendor fails with the clone's refusal code, so
        # a refusal and a failure send billing the same code and only the
        # rejected flag tells them apart (with admission off every 503 is a
        # failure, with it on some are refusals)
        pytest.param("preferred_honest", {55: REJECTION_CODE}, {(2,), (5, 2), (5, 4)},
                     id="preferred_honest-fails-503"),
        pytest.param("pure_fas_control", {}, {(2,)}, id="pure_fas_control"),
    ])
    def test_each_attempt_is_billing_routes_choice(self, name, failure_codes, shapes):
        base = ScenarioConfig.load(SCENARIOS / f"{name}.json")
        base = replace(base, vendors=tuple(
            replace(spec, model=replace(spec.model, failure_code=failure_codes[spec.vendor]))
            if spec.vendor in failure_codes else spec
            for spec in base.vendors))
        prefs = {spec.vendor: spec.pref for spec in base.vendors}
        models = {spec.vendor: spec.model for spec in base.vendors}
        seen = set()
        for seed in range(1, 6):
            for admission in (True, False):
                attempts = []
                config = replace(base, seed=seed, admission_enabled=admission)
                result = run_scenario(config, on_attempts=attempt_sink(attempts, config))
                calls = defaultdict(list)
                for attempt in attempts:
                    call_id, vendor, _, duration_s, cause, rejected, _ = attempt
                    # the three outcomes of an attempt: refused, answered, failed
                    if rejected:
                        code, want = REJECTION_CODE, DisconnectCause.OTHER
                    elif duration_s > 0:
                        code, want = 200, DisconnectCause.NORMAL_CLEARING
                    else:
                        code = models[vendor].failure_code
                        want = DisconnectCause.NO_USER_RESPONDING
                    assert cause == want.value, attempt
                    calls[call_id].append((vendor, code))
                assert len(calls) == result.total_calls
                for call_id, history in calls.items():
                    for k, (vendor, _) in enumerate(history):
                        assert reference.billing_route(prefs, history[:k]) == vendor, (
                            call_id, history)
                    assert reference.billing_route(prefs, history) is None, (call_id, history)
                    seen.add(tuple(code // 100 for _, code in history))
        assert seen == shapes, seen


class TestEventOrder:
    """Ticks and calls interleave in time order: every tick falls on the
    period grid, a CDR emitted before the tick at T connected before T and
    one emitted after it connected at T or later, and the run ticks
    ``int(duration_s // period)`` times, also past the last arrival."""

    @pytest.mark.parametrize("name", ["honest_vs_fas", "preferred_honest", "pure_fas_control"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["bundled", "sparse-65min"])
    def test_ticks_and_cdrs_interleave_in_time_order(self, name, sparse, monkeypatch):
        events = []
        tick = IntervalAggregator.tick

        def logged_tick(self, now_s):
            events.append(("tick", self.anchor + timedelta(seconds=now_s)))
            return tick(self, now_s)

        monkeypatch.setattr(IntervalAggregator, "tick", logged_tick)
        base = ScenarioConfig.load(SCENARIOS / f"{name}.json")
        if sparse:
            # 65 min is not a whole number of 10-min periods, and at this rate
            # the last ticks come after the last call
            base = replace(base, duration_min=65.0, arrival_rate_per_min=0.1)
        period = timedelta(seconds=base.schedule.tick_period_s)
        ticks_after_last_cdr = 0
        vendors = billing_vendors(base)
        for seed in (1, 2, 3):
            events.clear()
            run_scenario(replace(base, seed=seed),
                         on_attempts=lambda *block: events.extend(
                             ("cdr", base.start_time + timedelta(seconds=connect_s))
                             for _, _, connect_s, *rest in decode_block(vendors, *block)))
            ticks = [at for kind, at in events if kind == "tick"]
            assert ticks == [base.start_time + k * period for k in range(1, len(ticks) + 1)]
            assert len(ticks) == int(base.duration_min * 60.0 // base.schedule.tick_period_s)
            last_tick = base.start_time
            for kind, at in events:
                if kind == "tick":
                    last_tick = at
                else:
                    assert last_tick <= at < last_tick + period, (seed, at, last_tick)
            kinds = [kind for kind, _ in events]
            ticks_after_last_cdr += len(kinds) - 1 - kinds[::-1].index("cdr")
        if sparse:
            assert ticks_after_last_cdr >= 3


class TestVendorLeg:
    """A vendor's leg sampler: each call of it is one attempt that reached the
    vendor, and returns its duration, 0 when unanswered."""

    def test_false_answer_burst_durations(self):
        model = VendorModel("false_answer", 1.0, DurationSpec("uniform", low_s=1, high_s=7))
        leg = _leg_sampler(model, random.Random(3))
        for _ in range(500):
            assert 1 <= leg() <= 7

    def test_honest_never_answering(self):
        model = VendorModel("honest", 0.0, DurationSpec("fixed", value_s=60),
                            failure_code=486)
        leg = _leg_sampler(model, random.Random(4))
        for _ in range(200):
            assert leg() == 0

    def test_empirical_answer_ratio(self):
        model = VendorModel("honest", 0.7, DurationSpec("fixed", value_s=60))
        leg = _leg_sampler(model, random.Random(5))
        n = 100_000
        answered = sum(1 for _ in range(n) if leg() > 0)
        assert answered / n == pytest.approx(0.7, abs=0.005)

    def test_answered_legs_last_at_least_one_second(self):
        model = VendorModel("false_answer", 1.0,
                            DurationSpec("exponential", mean_s=2.0))
        leg = _leg_sampler(model, random.Random(6))
        for _ in range(2000):
            assert leg() >= 1


def stdlib_leg(model, rng):
    """A leg's duration drawn through ``random.Random``'s own methods: one
    ``rng.random()`` for the answer, then ``rng.expovariate`` or
    ``rng.uniform`` for an answered leg's duration."""
    if rng.random() < model.answer_prob:
        spec = model.duration
        if spec.family == "exponential":
            drawn = rng.expovariate(1.0 / spec.mean_s)
        elif spec.family == "uniform":
            drawn = rng.uniform(spec.low_s, spec.high_s)
        else:
            drawn = spec.value_s
        return max(1, round(drawn))
    return 0


# each family over a spread of parameters: tiny and huge means, empty and
# sub-second uniform ranges, fixed durations of 0 and on the .5 rounding edge
DURATIONS = [
    *(DurationSpec("exponential", mean_s=mean) for mean in (0.3, 2.0, 36.0, 520.2, 1e6)),
    *(DurationSpec("uniform", low_s=low, high_s=high)
      for low, high in ((0.0, 0.0), (0.0, 7.0), (1.0, 7.0), (0.2, 0.4), (4.5, 14.5),
                        (25.0, 625.0))),
    *(DurationSpec("fixed", value_s=value) for value in (0.0, 0.4, 0.5, 1.5, 2.5, 60.0, 300.0)),
]
# each kind's answer probabilities, its validated edges included: an honest
# vendor answers in [0, 1), a false-answer vendor in (0.9, 1]
ANSWER_PROBS = {"honest": (0.0, 0.3, 0.9, math.nextafter(1.0, 0.0)),
                "false_answer": (math.nextafter(0.9, 1.0), 0.97, 1.0)}


class TestLegSampler:
    """``_leg_sampler`` computes the stdlib's own arithmetic: its durations,
    and the generator's state after them, equal those of ``stdlib_leg``, which
    draws through ``random.Random``'s methods, on a twin generator."""

    LEGS = 2000

    @pytest.mark.parametrize("duration", DURATIONS, ids=lambda spec: (
        f"{spec.family}-{spec.mean_s or spec.value_s}-{spec.low_s}-{spec.high_s}"))
    def test_durations_equal_the_stdlib_draws(self, duration):
        for kind, probs in ANSWER_PROBS.items():
            for answer_prob in probs:
                model = VendorModel(kind, answer_prob, duration, failure_code=486)
                for seed in (1, 2):
                    rng, twin = random.Random(seed), random.Random(seed)
                    leg = _leg_sampler(model, rng)
                    got = [leg() for _ in range(self.LEGS)]
                    want = [stdlib_leg(model, twin) for _ in range(self.LEGS)]
                    assert got == want, (kind, answer_prob, seed)
                    assert rng.getstate() == twin.getstate()

    def test_the_spread_covers_both_outcomes_and_the_rounding(self):
        legs = []
        for duration in DURATIONS:
            model = VendorModel("honest", 0.5, duration)
            leg = _leg_sampler(model, random.Random(3))
            legs += [leg() for _ in range(200)]
        counts = Counter(min(duration, 2) for duration in legs)
        assert min(counts[0], counts[1], counts[2]) >= 100, counts


class TestAttemptBlocks:
    """What a sink gets: blocks ``(first, times, codes)`` of new packed
    arrays, never empty, of at most ``SEND_BLOCK + len(vendors) - 1``
    attempts (a block is checked after each call), whose first call numbers
    run on without a gap; decoded and joined, they are the per-attempt
    stream: the reference loop's CDR and decision rows, each call's time the
    stdlib's arrival."""

    @pytest.mark.parametrize("name", ["honest_vs_fas", "preferred_honest", "pure_fas_control"])
    @pytest.mark.parametrize("admission", [True, False], ids=["admission", "no-admission"])
    def test_the_lists_joined_are_the_attempt_stream(self, name, admission):
        config = replace(ScenarioConfig.load(SCENARIOS / f"{name}.json"),
                         admission_enabled=admission)
        blocks = []
        result = run_scenario(config, on_attempts=lambda *block: blocks.append(block))
        sizes = [len(codes) for _, _, codes in blocks]
        assert 0 < min(sizes) and max(sizes) <= SEND_BLOCK + len(config.vendors) - 1, sizes
        assert max(sizes) >= SEND_BLOCK
        packed = [values for _, times, codes in blocks for values in (times, codes)]
        assert len({id(values) for values in packed}) == len(packed)
        next_call = 1
        for first, times, codes in blocks:
            assert (type(first), type(times), times.typecode, type(codes), codes.typecode) == (
                int, array, "d", array, "q")
            assert first == next_call and len(times) > 0
            next_call += len(times)
        assert next_call - 1 == result.total_calls
        joined = [attempt for block in blocks
                  for attempt in decode_block(billing_vendors(config), *block)]
        want = reference.simulate(config)
        start = config.start_time
        assert_rows_equal(reference.csv_lines(
            [call_id, vendor, reference.ts(start + timedelta(0, connect_s)),
             reference.ts(start + timedelta(0, connect_s + duration_s)), duration_s, cause,
             int(rejected)]
            for call_id, vendor, connect_s, duration_s, cause, rejected, _ in joined),
            want["cdrs.csv"].splitlines(keepends=True)[1:])
        assert_rows_equal(reference.csv_lines(
            [seq, f"{t_s:.3f}", call_id, vendor, int(not rejected), 503 if rejected else ""]
            for seq, (call_id, vendor, _, _, _, rejected, t_s) in enumerate(joined)),
            want["decisions.csv"].splitlines(keepends=True)[1:])
        # each call's time exactly: the stdlib's arrival times, drawn first
        rng, arrivals = random.Random(config.seed), []
        t = rng.expovariate(config.arrival_rate_per_min / 60.0)
        while t < config.duration_min * 60.0:
            arrivals.append(t)
            t += rng.expovariate(config.arrival_rate_per_min / 60.0)
        assert len(arrivals) == result.total_calls
        assert [t_s for call_id, *_, t_s in joined] == [
            arrivals[int(call_id[1:]) - 1] for call_id, *_ in joined]

    def test_a_block_decodes_call_by_call(self):
        # call 41 is abandoned (its leg fails at 55, and 62 refuses it); call
        # 42 is refused at 55 and answered at 62 after 17 s; call 43 is
        # answered at 55 after 5 s, and call 44 fails at 55 and at 62
        block = 41, array("d", [0.5, 61.25, 61.75, 3600.0]), array("q", [0, -1, -1, 17, 5, 0, 0])
        assert decode_block([55, 62], *block) == [
            ("c000041", 55, 0, 0, "no_answer", False, 0.5),
            ("c000041", 62, 0, 0, "other", True, 0.5),
            ("c000042", 55, 61, 0, "other", True, 61.25),
            ("c000042", 62, 61, 17, "normal", False, 61.25),
            ("c000043", 55, 61, 5, "normal", False, 61.75),
            ("c000044", 55, 3600, 0, "no_answer", False, 3600.0),
            ("c000044", 62, 3600, 0, "no_answer", False, 3600.0),
        ]
        with pytest.raises(AssertionError, match="belong to no call"):
            decode_block([55, 62], 1, array("d", [0.5]), array("q", [3, 0]))


class TestModelValidation:
    def test_honest_must_not_answer_everything(self):
        with pytest.raises(ValueError):
            VendorModel("honest", 1.0, DurationSpec("fixed", value_s=60))

    def test_false_answer_must_answer_almost_everything(self):
        with pytest.raises(ValueError):
            VendorModel("false_answer", 0.5, DurationSpec("fixed", value_s=5))

    def test_failure_code_must_trigger_failover(self):
        with pytest.raises(ValueError):
            VendorModel("honest", 0.9, DurationSpec("fixed", value_s=60),
                        failure_code=200)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            DurationSpec("lognormal", mean_s=10)


class TestScenarioConfig:
    def test_json_round_trip(self):
        config = fas_preferred_config()
        rebuilt = decode(ScenarioConfig, json.loads(json.dumps(encode(config))))
        assert rebuilt == config

    def test_minute_denominated_duration_params(self):
        spec = decode(DurationSpec, {"family": "exponential", "mean_min": 8.67})
        assert spec.mean_s == pytest.approx(520.2)

    def test_unknown_fields_rejected(self):
        data = encode(fas_preferred_config())
        data["typo_field"] = 1
        with pytest.raises(ValueError):
            decode(ScenarioConfig, data)

    def test_equal_preferences_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                seed=1, arrival_rate_per_min=10, duration_min=60,
                vendors=(VendorSpec(71, 9, FAS), VendorSpec(72, 9, HONEST)),
            )

    def test_expected_calls_are_bounded(self):
        config = replace(fas_preferred_config(), duration_min=1000.0)
        assert replace(config, arrival_rate_per_min=MAX_EXPECTED_CALLS / 1000.0)
        with pytest.raises(ValueError, match="^scenario expects 1e\\+07 calls .* more than "
                                             "the 10,000,000 a run holds$"):
            replace(config, arrival_rate_per_min=MAX_EXPECTED_CALLS / 1000.0 + 0.001)

    @pytest.mark.parametrize("field, message", [
        ("arrival_rate_per_min", "arrival rate must be positive"),
        ("duration_min", "scenario duration must be positive")])
    def test_nan_rate_and_duration_rejected(self, field, message):
        # through the Python API: a scenario file's NaN is refused by decode
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(fas_preferred_config(), **{field: math.nan})

    def test_duration_past_year_9999_rejected(self):
        # the duration's timedelta itself overflows (test_cli covers a start
        # late in 9999); run, this would draw arrivals until memory ran out
        with pytest.raises(ValueError, match="after the year 9999"):
            replace(fas_preferred_config(), duration_min=1e300)


class TestClosedLoop:
    def test_fraud_route_gets_squeezed_to_its_floor_share(self):
        result = run_scenario(fas_preferred_config(), on_attempts=discard)
        assert len(result.interval_history) >= 6
        # steady state: every interval from the third close onward pins the
        # false-answer clone near the honest route's load share
        for interval in result.interval_history[2:]:
            assert interval.result.reject_pct_exact[0] == pytest.approx(87.23, abs=3.0)
            assert interval.result.reject_pct_exact[1] == 0.0
        share = result.answered_minutes_share(from_interval=2)
        assert share[72] >= 0.8
        # the share of admitted calls, from the router counters of each close
        routed = Counter()
        for interval in result.interval_history[2:]:
            routed.update(interval.received)
        assert routed[72] / sum(routed.values()) == pytest.approx(0.8723, abs=0.03)

    def test_healthy_route_keeps_its_load_with_small_rejection(self):
        result = run_scenario(honest_preferred_config(), on_attempts=discard)
        assert len(result.interval_history) >= 6
        for interval in result.interval_history[2:]:
            # mirror case: the preferred good route sheds only the weak
            # route's floor-driven share
            assert interval.result.reject_pct_exact[0] == pytest.approx(12.77, abs=3.0)
            assert interval.result.reject_pct_exact[1] == 0.0
        share = result.answered_minutes_share(from_interval=2)
        assert share[55] >= 0.8

    def test_negative_control_routes_everything_to_fraud_route(self):
        result, attempts = run_collecting(
            fas_preferred_config(duration=60.0, admission=False, fas_model=PURE_FAS)
        )
        by_vendor = Counter(r.vendor for r, _ in attempts)
        assert by_vendor[72] == 0
        assert by_vendor[71] == result.total_calls
        assert all(not r.rejected_by_router for r, _ in attempts)
        # and the loop could never have engaged: no evidence for the honest
        # route, so the computed targets stay at zero
        for interval in result.interval_history:
            assert interval.result.reject_pct == (0.0, 0.0)

    def test_two_identical_honest_vendors_split_evenly(self):
        config = ScenarioConfig(
            seed=3, arrival_rate_per_min=30.0, duration_min=200.0,
            vendors=(
                VendorSpec(1, 9, HONEST),
                VendorSpec(2, 8, HONEST),
            ),
        )
        result = run_scenario(config, on_attempts=discard)
        assert result.interval_history
        for interval in result.interval_history[2:]:
            # equal quality: reject target on the preferred clone near 50
            assert interval.result.reject_pct_exact[0] == pytest.approx(50.0, abs=8.0)
            assert interval.result.reject_pct_exact[1] == 0.0


class TestTraceInvariants:
    def test_one_answered_cdr_per_call_and_rejected_attempts_retry(self):
        _, attempts = run_collecting(fas_preferred_config(duration=120.0))
        by_call = defaultdict(list)
        for record, _ in attempts:
            by_call[record.call_id].append(record)
        for call_id, records in by_call.items():
            answered = [r for r in records if r.duration_s > 0]
            assert len(answered) <= 1, f"{call_id} answered twice"
            rejected = [r for r in records if r.rejected_by_router]
            assert len(rejected) <= 1, f"{call_id} rejected twice"
            if rejected:
                # a rejected attempt always has a follow-up at the other vendor
                others = [r for r in records if not r.rejected_by_router]
                assert others, f"{call_id} rejected with no retry"
                assert all(r.vendor != rejected[0].vendor for r in others)

    def test_decision_log_never_rejects_a_call_twice(self):
        _, attempts = run_collecting(fas_preferred_config(duration=120.0))
        rejected_ids = [r.call_id for r, _ in attempts if r.rejected_by_router]
        assert len(rejected_ids) == len(set(rejected_ids))

    def test_counters_match_decision_log(self):
        result, attempts = run_collecting(fas_preferred_config(duration=120.0))
        # recount decisions per interval from the log using the close times
        boundaries = [
            (iv.opened_at, iv.closed_at, iv) for iv in result.interval_history
        ]
        start = result.config.start_time
        for opened, closed, interval in boundaries:
            lo = (opened - start).total_seconds()
            hi = (closed - start).total_seconds()
            for vendor in (71, 72):
                received = sum(
                    1 for r, t_s in attempts
                    if r.vendor == vendor and not r.rejected_by_router and lo <= t_s < hi
                )
                rejected = sum(
                    1 for r, t_s in attempts
                    if r.vendor == vendor and r.rejected_by_router and lo <= t_s < hi
                )
                assert interval.received[vendor] == received
                assert interval.rejected[vendor] == rejected

    def test_decide_is_keyed_by_the_call_number(self, monkeypatch):
        # every attempt of call n hands the ledger the int n, at the call's
        # time, through the unlocked rule the run decides by
        seen = []
        decide = AdmissionController._decide

        def spy(self, call_id, vendor, now):
            seen.append((call_id, vendor, now))
            return decide(self, call_id, vendor, now)

        monkeypatch.setattr(AdmissionController, "_decide", spy)
        config = fas_preferred_config(duration=120.0)
        attempts = []
        result = run_scenario(config, on_attempts=attempt_sink(attempts, config))
        assert all(type(call_id) is int for call_id, _, _ in seen)
        assert seen == [(int(call_id[1:]), vendor, t_s)
                        for call_id, vendor, _, _, _, _, t_s in attempts]
        assert sorted({call_id for call_id, _, _ in seen}) == list(
            range(1, result.total_calls + 1))
        assert any(rejected for *_, rejected, _ in attempts)

    def test_the_run_takes_no_lock_and_hands_the_aggregator_no_refusal(self, monkeypatch):
        # the run owns its controller, so it never calls the locked decide;
        # its refusals reach the aggregator only through the controller's
        # counters, so each leg add_ended gets is one that reached its vendor
        def locked_decide(self, call_id, vendor, now):
            raise AssertionError("run_scenario called the locked decide")

        legs = []
        add_ended = IntervalAggregator.add_ended

        def spy(self, block):
            block = list(block)
            legs.extend(block)
            add_ended(self, block)

        monkeypatch.setattr(AdmissionController, "decide", locked_decide)
        monkeypatch.setattr(IntervalAggregator, "add_ended", spy)
        config = fas_preferred_config(duration=120.0)
        attempts = []
        result = run_scenario(config, on_attempts=attempt_sink(attempts, config))
        assert not any(rejected for *_, rejected in legs)
        assert legs == [(vendor, connect_s + duration_s, duration_s, False)
                        for _, vendor, connect_s, duration_s, _, rejected, _ in attempts
                        if not rejected]
        # the run refused attempts, and its intervals count them
        assert any(rejected for *_, rejected, _ in attempts)
        assert sum(sum(iv.rejected.values()) for iv in result.interval_history) > 0

    def test_replaying_decision_log_reproduces_outcomes(self):
        result, attempts = run_collecting(fas_preferred_config(duration=120.0))
        fresh = AdmissionController(result.config.group, seed=result.config.seed + 1)
        refreshes = [
            ((iv.closed_at - result.config.start_time).total_seconds(), iv.result)
            for iv in result.interval_history
        ]
        next_refresh = 0
        for record, t_s in attempts:
            while (next_refresh < len(refreshes)
                   and refreshes[next_refresh][0] <= t_s):
                fresh.refresh_targets(refreshes[next_refresh][1])
                next_refresh += 1
            accepted = fresh.decide(record.call_id, record.vendor, now=t_s)
            assert accepted == (not record.rejected_by_router)

    def test_same_seed_identical_runs(self):
        a, a_attempts = run_collecting(fas_preferred_config(duration=90.0))
        b, b_attempts = run_collecting(fas_preferred_config(duration=90.0))
        assert [r for r, _ in a_attempts] == [r for r, _ in b_attempts]
        assert [t_s for _, t_s in a_attempts] == [t_s for _, t_s in b_attempts]
        assert encode(a.interval_history) == encode(b.interval_history)

    def test_different_seed_differs(self):
        _, a = run_collecting(fas_preferred_config(seed=7, duration=90.0))
        _, b = run_collecting(fas_preferred_config(seed=8, duration=90.0))
        assert [r for r, _ in a] != [r for r, _ in b]


class TestRecordSinks:
    def test_answered_counts_equal_a_recount_in_cdr_order(self):
        config = fas_preferred_config(duration=120.0)
        result, attempts = run_collecting(config)
        answered = {71: 0, 72: 0}
        minutes = {71: 0.0, 72: 0.0}
        for record, _ in attempts:
            if not record.rejected_by_router and record.duration_s > 0:
                answered[record.vendor] += 1
                minutes[record.vendor] += record.duration_s / 60.0
        assert result.answered_calls == answered
        assert result.answered_minutes == minutes  # exact: same order of sums
        assert all(answered.values())

    def test_streamed_run_memory_does_not_grow_per_call(self):
        """Peak traced memory of a run with a no-op sink grows by far less per
        added call than the ~550 B a list of its CDRs would cost (~1.9 a
        call, ~290 B each)."""

        def peak(duration):
            tracemalloc.start()
            try:
                result = run_scenario(fas_preferred_config(duration=duration),
                                      on_attempts=discard)
                return result.total_calls, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # both past the first close and the ledger's one-hour fill
        (calls_short, peak_short), (calls_long, peak_long) = peak(100.0), peak(400.0)
        per_call = (peak_long - peak_short) / (calls_long - calls_short)
        assert per_call < 100, f"{per_call:.0f} B per added call"
