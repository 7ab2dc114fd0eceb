"""Deterministic end-to-end traffic simulator.

Drives the whole loop at seconds resolution: a Poisson caller population hits
a static-preference billing router, each attempt passes the clone interface's
admission check, the vendor leg answers or fails, each CDR is logged and fed
to the aggregator, and freshly closed intervals feed new targets back into
admission. The event loop is one pass over the arrival times, drawn up front:
each call first runs the aggregator ticks due by its time, and each leg
connects at its call's whole second. Everything derives from one seed, so
two runs of the same scenario are identical event for event. The aggregator
ticks on the scenario's ``schedule``, anchored at its ``start_time``, each
tick given as its whole seconds after it.

Billing's order, highest preference first, is ``ScenarioConfig.billing_order``,
and each call walks it once: this walk is the package's one definition of
static-preference failover. An attempt has one of three outcomes: the clone
interface refuses it (``REJECTION_CODE``, cause ``other``), the vendor leg
fails (the model's failure code, no duration, cause ``no_answer``), or the
vendor answers (200, at least one second, cause ``normal``). A refusal and a
failure both trigger failover (``VendorModel`` refuses a failure code that
would not), so billing tries the next vendor until one answers.

A call is its number in the run, from 1, which keys admission's ledger; only the
sink makes its id text (``store.call_id``). The run owns its
``AdmissionController`` and shares it with no thread, so it decides through the
unlocked rule, ``_decide``, and takes no lock per attempt. Each attempt is one
integer, its code: the leg's duration in seconds when the vendor answered, 0
when the leg failed, -1 when the clone refused it. The run builds no object per
attempt only to move it: it appends the code to a packed array and, for each
leg that reached its vendor, the leg's end to a list, and hands the codes, with
the block's slice of the arrival times, to the caller's sink and the list to the
aggregator's ``add_ended``, once a block holds ``store.SEND_BLOCK`` attempts,
before every tick and at the end. A refusal reaches the aggregator only through
the controller's counters, which each close snapshots. A leg is drawn
by its vendor's sampler (``_leg_sampler``), built once per run, which computes
the stdlib's exponential and uniform draws on the run's generator. No
``datetime`` is built per attempt or per tick, and the run keeps no CDR: the
CLI's sink, ``store.attempt_log``, writes a CDR row and a decision row for each,
a block rendered and written as one text per file.
The run's memory still grows with its length: it draws every arrival time
first, 8 bytes a call. Of each close the result keeps the ``ClosedInterval``
in its interval history; the acd_vendors rows and the interval tables are
rendered from that.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import log
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Tuple

from .admission import AdmissionController
from .aggregate import ClosedInterval, IntervalAggregator, Schedule
from .codec import decode, load_json
from .domain import DEFAULT_LOAD_MIN, RouteGroup, triggers_failover
from .store import SEND_BLOCK, csv_field

if TYPE_CHECKING:
    from .store import Sink

DEFAULT_START = datetime(2020, 1, 1, 0, 0, 0)
# arrival_rate_per_min x duration_min may ask for at most this many calls: a
# run holds every arrival time, 8 bytes each, before its first call
MAX_EXPECTED_CALLS = 10_000_000

# the parameters each duration family reads; the others must stay 0
_DURATION_PARAMS = {
    "exponential": ("mean_s",),
    "uniform": ("low_s", "high_s"),
    "fixed": ("value_s",),
}


@dataclass(frozen=True)
class DurationSpec:
    """Distribution of a call leg's duration, parameters in seconds."""

    family: str
    mean_s: float = 0.0
    low_s: float = 0.0
    high_s: float = 0.0
    value_s: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _DURATION_PARAMS:
            raise ValueError(f"unknown duration family {self.family!r}")
        for name in ("mean_s", "low_s", "high_s", "value_s"):
            if name not in _DURATION_PARAMS[self.family] and getattr(self, name) != 0:
                raise ValueError(f"{self.family} durations do not use {name} / {name[:-2]}_min")
        if self.family == "exponential" and self.mean_s <= 0:
            raise ValueError("exponential durations need a positive mean_s")
        if self.family == "uniform" and not 0 <= self.low_s <= self.high_s:
            raise ValueError("uniform durations need 0 <= low_s <= high_s")
        if self.family == "fixed" and self.value_s < 0:
            raise ValueError("fixed durations must be non-negative")

    @staticmethod
    def _decode_defaults(data: dict, path: str) -> dict:
        data.setdefault("family", "exponential")
        # minute-denominated aliases, converted on the way in
        for name in ("mean", "low", "high", "value"):
            if f"{name}_min" in data:
                minutes = decode(float, data.pop(f"{name}_min"), f"{path}.{name}_min")
                data[f"{name}_s"] = minutes * 60.0
        return data


HONEST = "honest"
FALSE_ANSWER = "false_answer"


@dataclass(frozen=True)
class VendorModel:
    """Behavior of one simulated vendor.

    An honest vendor answers a fraction of calls (its ASR) and signals real
    failures with a 4xx-6xx code, which fails over. A false-answer vendor
    signals success on essentially every call and plays a fake greeting, so
    the deceived caller hangs up within seconds; its duration spec models
    that hold time. Non-answers of a false-answer vendor surface as
    proxy-side timeouts, never as a failure signal of its own.
    """

    kind: str
    answer_prob: float
    duration: DurationSpec
    failure_code: int = 480

    def __post_init__(self) -> None:
        if self.kind not in (HONEST, FALSE_ANSWER):
            raise ValueError(f"unknown vendor kind {self.kind!r}")
        if not 0.0 <= self.answer_prob <= 1.0:
            raise ValueError("answer_prob must lie in [0, 1]")
        if self.kind == HONEST and self.answer_prob >= 1.0:
            raise ValueError("an honest vendor answers strictly less than everything")
        if self.kind == FALSE_ANSWER and self.answer_prob <= 0.9:
            raise ValueError("a false-answer vendor answers (almost) everything")
        if not triggers_failover(self.failure_code):
            raise ValueError(f"failure code {self.failure_code} would not trigger failover")

    @staticmethod
    def _decode_defaults(data: dict, path: str) -> dict:
        if "hold" in data and "duration" not in data:
            data["duration"] = data.pop("hold")
        fraud = data.get("kind") == FALSE_ANSWER
        data.setdefault("answer_prob", 1.0 if fraud else 0.7)
        data.setdefault("failure_code", 408 if fraud else 480)
        return data


def _leg_sampler(model: VendorModel, rng: random.Random) -> Callable[[], int]:
    """``leg()``, which plays out one attempt that reached the vendor and
    returns its duration in seconds: 0 for an unanswered leg, at least 1 for
    an answered one, so a zero duration always means an unanswered call.

    A leg takes one ``rng.random()`` for the answer, and an answered leg one
    more for its duration unless the duration is fixed. The duration is
    computed as ``rng.expovariate(1.0 / mean_s)`` and ``rng.uniform(low_s,
    high_s)`` compute it (the same arithmetic in CPython 3.6-3.13's
    ``random.py``), without their two method calls a leg.
    """
    draw, answer_prob, spec = rng.random, model.answer_prob, model.duration
    if spec.family == "exponential":
        rate = 1.0 / spec.mean_s

        def leg() -> int:
            return (round(-log(1.0 - draw()) / rate) or 1) if draw() < answer_prob else 0
    elif spec.family == "uniform":
        low, width = spec.low_s, spec.high_s - spec.low_s

        def leg() -> int:
            return (round(low + width * draw()) or 1) if draw() < answer_prob else 0
    else:
        fixed = round(spec.value_s) or 1

        def leg() -> int:
            return fixed if draw() < answer_prob else 0
    return leg


@dataclass(frozen=True)
class VendorSpec:
    vendor: int
    pref: int
    model: VendorModel


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run depends on; one seed fixes the whole run."""

    seed: int
    arrival_rate_per_min: float
    duration_min: float
    vendors: Tuple[VendorSpec, VendorSpec]
    load_min: float = DEFAULT_LOAD_MIN
    tick_period_min: float = Schedule.tick_period_s / 60
    min_interval_min: float = Schedule.min_age_s / 60
    min_calls: int = Schedule.min_calls
    admission_enabled: bool = True
    start_time: datetime = DEFAULT_START
    dest_prefix: str = ""

    def __post_init__(self) -> None:
        if len(self.vendors) != 2:
            raise ValueError("a scenario routes between exactly two vendors")
        self.group  # validates the route pair
        if not self.arrival_rate_per_min > 0:
            raise ValueError("arrival rate must be positive")
        # the run draws its gaps at the rate a second, where a subnormal rate is 0
        if self.arrival_rate_per_min / 60.0 == 0:
            raise ValueError(f"arrival rate {self.arrival_rate_per_min!r} a minute is 0 a second")
        if not self.duration_min > 0:
            raise ValueError("scenario duration must be positive")
        # every tick and connect time falls in [start, start + duration]
        try:
            self.start_time + timedelta(minutes=self.duration_min)
        except OverflowError:
            raise ValueError("scenario ends after the year 9999") from None
        calls = self.arrival_rate_per_min * self.duration_min
        if calls > MAX_EXPECTED_CALLS:
            raise ValueError(f"scenario expects {calls:.3g} calls (arrival_rate_per_min x "
                             f"duration_min), more than the {MAX_EXPECTED_CALLS:,} a run holds")
        self.schedule  # validates the interval schedule
        # the acd_vendors rows carry the prefix: text the CSV writer refuses
        # fails here, before the run, not when the rows are written
        csv_field(self.dest_prefix)

    @property
    def group(self) -> RouteGroup:
        return RouteGroup(
            vendors=(self.vendors[0].vendor, self.vendors[1].vendor),
            prefs=(self.vendors[0].pref, self.vendors[1].pref),
            load_min=self.load_min,
        )

    @property
    def billing_order(self) -> Tuple[VendorSpec, ...]:
        """The vendors in the order billing tries them, highest preference first."""
        return tuple(sorted(self.vendors, key=lambda spec: spec.pref, reverse=True))

    @property
    def schedule(self) -> Schedule:
        return Schedule.from_minutes(self.tick_period_min, self.min_interval_min, self.min_calls)

    @classmethod
    def load(cls, path: Path) -> "ScenarioConfig":
        return load_json(cls, path)


@dataclass
class ScenarioResult:
    """What one scenario run keeps: its interval history and its call
    counts; the CDRs went to the run's sink."""

    config: ScenarioConfig
    interval_history: List[ClosedInterval]
    abandoned_calls: int
    total_calls: int
    answered_calls: Dict[int, int]
    answered_minutes: Dict[int, float]

    def final_targets(self) -> Dict[int, float]:
        """The last close's ``reject_pct_exact`` per vendor (zero before any
        close), whether or not admission enforced it."""
        history = self.interval_history
        exact = history[-1].result.reject_pct_exact if history else (0.0, 0.0)
        return dict(zip(self.config.group.vendors, exact))

    def answered_minutes_share(self, from_interval: int = 0) -> Dict[int, float]:
        """Share of answered minutes per vendor, summed over intervals
        ``from_interval`` onward."""
        totals: Counter = Counter()
        for interval in self.interval_history[from_interval:]:
            totals.update({s.vendor: s.total_minutes for s in interval.stats})
        return _shares(totals)


def _shares(totals: Mapping[int, float]) -> Dict[int, float]:
    """Each vendor's fraction of the total; all zero when the total is."""
    grand = sum(totals.values())
    return {v: amount / grand if grand else 0.0 for v, amount in totals.items()}


def run_scenario(
    config: ScenarioConfig,
    on_attempts: Sink,
) -> ScenarioResult:
    """Run one scenario to completion.

    The run walks the call arrivals (Poisson) in time order and, before each
    call, runs every aggregator tick due at or before its time, so a call
    arriving exactly on a tick boundary already sees the refreshed targets.
    After the last call the remaining ticks run, up to the scenario end:
    ``int(duration_s // tick_period_s)`` ticks in all. Ticking stops there;
    calls still in flight then simply never get aggregated.

    The run hands its attempts to ``on_attempts(first, times, codes)``, a
    block of whole calls at a time, the arrays then the sink's: ``first`` is
    the block's first call number (from 1, running on from block to block),
    ``times`` each call's time in seconds after ``start_time`` (an
    ``array("d")``), and ``codes`` one code an attempt (an ``array("q")``)
    in ``config.billing_order``, as ``store.attempt_log`` reads them. A block
    is handed over once it holds ``store.SEND_BLOCK`` attempts (checked after
    each call, so it holds at most ``SEND_BLOCK + len(vendors) - 1``), before
    every tick and at the end; never an empty block. An exception the sink
    raises ends the run, as the ``OverflowError`` of a leg ending past the
    year 9999 does from ``store.attempt_log``'s sink.
    """
    traffic_rng = random.Random(config.seed)
    group = config.group

    controller = AdmissionController(group, seed=config.seed + 1)
    # summed in CDR order, one float per vendor, as summary.json rounds them
    answered = {v: 0 for v in group.vendors}
    answered_minutes = {v: 0.0 for v in group.vendors}
    schedule = config.schedule
    tick_period_s = schedule.tick_period_s
    aggregator = IntervalAggregator(group, opened_at=config.start_time, schedule=schedule,
                                    counter_source=controller.snapshot_and_reset_counters)

    # every arrival is drawn before the first call is handled: vendor legs
    # draw from the same generator, so the order of draws fixes the traffic;
    # a packed array keeps them at 8 bytes each, not a float object apiece.
    # Each gap is computed as ``traffic_rng.expovariate(rate_per_s)`` does.
    duration_s = config.duration_min * 60.0
    rate_per_s = config.arrival_rate_per_min / 60.0
    draw = traffic_rng.random
    arrivals = array("d")
    t = -log(1.0 - draw()) / rate_per_s
    while t < duration_s:
        arrivals.append(t)
        t += -log(1.0 - draw()) / rate_per_s
    # billing's order, each vendor with its leg sampler
    routes = [(spec.vendor, _leg_sampler(spec.model, traffic_rng))
              for spec in config.billing_order]

    abandoned = 0
    # no other thread sees the controller: decide without its lock
    decide = controller._decide
    add_ended = aggregator.add_ended
    # the block not yet handed over: its first call number, each attempt's
    # code, and the (vendor, end_s, duration_s, rejected) of each leg that
    # reached its vendor; a refusal is counted by the controller alone
    first, codes = 1, array("q")
    ended: List[Tuple[int, int, int, bool]] = []

    def run_tick(tick_s: int) -> None:
        closed = aggregator.tick(tick_s)
        if closed is not None and config.admission_enabled:
            controller.refresh_targets(closed.result)

    # a tick at a call's exact time runs before it; ticks past the last call run last
    next_tick_s = tick_period_s
    for idx, t_s in enumerate(arrivals, 1):
        if next_tick_s <= t_s or len(codes) >= SEND_BLOCK:
            if codes:
                on_attempts(first, arrivals[first - 1:idx - 1], codes)
                add_ended(ended)
                first, codes, ended = idx, array("q"), []
            while next_tick_s <= t_s:
                run_tick(next_tick_s)
                next_tick_s += tick_period_s
        # billing walks its order until a vendor answers; legs connect at the
        # call's second. A refusal by the clone and a failure at the vendor
        # both fail over; a failed leg ends at its connect time
        second = int(t_s)
        for vendor, leg in routes:
            if decide(idx, vendor, t_s):
                leg_duration = leg()
                codes.append(leg_duration)
                ended.append((vendor, second + leg_duration, leg_duration, False))
                if leg_duration:
                    answered[vendor] += 1
                    answered_minutes[vendor] += leg_duration / 60.0
                    break
            else:
                codes.append(-1)
        else:
            abandoned += 1
    if codes:
        on_attempts(first, arrivals[first - 1:], codes)
        add_ended(ended)
    last_tick_s = int(duration_s // tick_period_s) * tick_period_s
    for tick_s in range(next_tick_s, last_tick_s + 1, tick_period_s):
        run_tick(tick_s)

    return ScenarioResult(
        config=config,
        interval_history=aggregator.history,
        abandoned_calls=abandoned,
        total_calls=len(arrivals),
        answered_calls=answered,
        answered_minutes=answered_minutes,
    )
