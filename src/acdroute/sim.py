"""Deterministic end-to-end traffic simulator.

Drives the whole loop at seconds resolution: a Poisson caller population hits
a static-preference billing router, each attempt passes the clone interface's
admission check, the vendor leg answers or fails, CDRs land in the store, the
aggregator ticks every period, and freshly closed intervals feed new targets
back into admission. Everything derives from one seed, so two runs of the
same scenario are identical event for event.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .admission import AdmissionController
from .aggregate import (
    MIN_INTERVAL_AGE_S,
    MIN_INTERVAL_CALLS,
    TICK_PERIOD_S,
    ClosedInterval,
    IntervalAggregator,
    validate_schedule,
)
from .codec import decode
from .domain import (
    DEFAULT_LOAD_MIN,
    CallRecord,
    DisconnectCause,
    ResponseClass,
    RouteGroup,
    classify_response,
    triggers_failover,
    whole_seconds,
)
from .store import AcdVendorsTable, CdrStore

DEFAULT_START = datetime(2020, 1, 1, 0, 0, 0)

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

    def draw(self, rng: random.Random) -> float:
        if self.family == "exponential":
            return rng.expovariate(1.0 / self.mean_s)
        if self.family == "uniform":
            return rng.uniform(self.low_s, self.high_s)
        return self.value_s

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
    failures with a failover-class code. A false-answer vendor signals success
    on essentially every call and plays a fake greeting, so the deceived
    caller hangs up within seconds; its duration spec models that hold time.
    Non-answers of a false-answer vendor surface as proxy-side timeouts, never
    as a failure signal of its own.
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
        if not triggers_failover(classify_response(self.failure_code)):
            raise ValueError(f"failure code {self.failure_code} would not trigger failover")

    @staticmethod
    def _decode_defaults(data: dict, path: str) -> dict:
        if "hold" in data and "duration" not in data:
            data["duration"] = data.pop("hold")
        fraud = data.get("kind") == FALSE_ANSWER
        data.setdefault("answer_prob", 1.0 if fraud else 0.7)
        data.setdefault("failure_code", 408 if fraud else 480)
        return data


def vendor_leg(model: VendorModel, rng: random.Random) -> Tuple[int, int]:
    """Play out one attempt that reached the vendor.

    Returns (response code, duration seconds). Answered legs last at least one
    second so a zero duration always means an unanswered call.
    """
    if rng.random() < model.answer_prob:
        duration = max(1, round(model.duration.draw(rng)))
        return 200, duration
    return model.failure_code, 0


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
    tick_period_min: float = TICK_PERIOD_S / 60
    min_interval_min: float = MIN_INTERVAL_AGE_S / 60
    min_calls: int = MIN_INTERVAL_CALLS
    admission_enabled: bool = True
    start_time: datetime = DEFAULT_START
    dest_prefix: str = ""

    def __post_init__(self) -> None:
        if len(self.vendors) != 2:
            raise ValueError("a scenario routes between exactly two vendors")
        self.group  # validates the route pair
        if self.arrival_rate_per_min <= 0:
            raise ValueError("arrival rate must be positive")
        if self.duration_min <= 0:
            raise ValueError("scenario duration must be positive")
        validate_schedule(self.tick_period_s, self.min_age_s, self.min_calls)

    @property
    def group(self) -> RouteGroup:
        return RouteGroup(
            vendors=(self.vendors[0].vendor, self.vendors[1].vendor),
            prefs=(self.vendors[0].pref, self.vendors[1].pref),
            load_min=self.load_min,
        )

    @property
    def tick_period_s(self) -> int:
        return whole_seconds(self.tick_period_min)

    @property
    def min_age_s(self) -> int:
        return whole_seconds(self.min_interval_min)

    @classmethod
    def load(cls, path: Path) -> "ScenarioConfig":
        return decode(cls, json.loads(Path(path).read_text(encoding="utf-8")))


def billing_route(
    prefs: Mapping[int, int], attempt_history: Sequence[Tuple[int, int]]
) -> Optional[int]:
    """Static-preference routing with failover.

    ``attempt_history`` holds (vendor, response code) pairs for this call.
    Returns the next vendor to try, or None when routing is finished: either
    the call connected, or every route failed and the call is abandoned.
    """
    if attempt_history:
        last_code = attempt_history[-1][1]
        if not triggers_failover(classify_response(last_code)):
            return None
    tried = {vendor for vendor, _ in attempt_history}
    remaining = [vendor for vendor in prefs if vendor not in tried]
    if not remaining:
        return None
    return max(remaining, key=lambda vendor: prefs[vendor])


@dataclass(frozen=True)
class DecisionRecord:
    """One admission decision, as logged by the simulator."""

    seq: int
    time_s: float
    call_id: str
    vendor: int
    accepted: bool
    code: Optional[int]


@dataclass
class ScenarioResult:
    """Full trace of one scenario run."""

    config: ScenarioConfig
    cdrs: List[CallRecord]
    interval_history: List[ClosedInterval]
    decision_log: List[DecisionRecord]
    acd_table: AcdVendorsTable
    abandoned_calls: int
    total_calls: int

    def final_targets(self) -> Dict[int, float]:
        """Targets in force at the end of the run (zero before any close)."""
        history = self.interval_history
        exact = history[-1].result.reject_pct_exact if history else (0.0, 0.0)
        return dict(zip(self.config.group.vendors, exact))

    def traffic_share(self) -> List[Dict[int, float]]:
        """Per-interval share of answered minutes per vendor."""
        return [
            _shares({s.vendor: s.total_minutes for s in interval.stats})
            for interval in self.interval_history
        ]

    def answered_minutes_share(self, from_interval: int = 0) -> Dict[int, float]:
        """Share of answered minutes per vendor, summed over intervals
        ``from_interval`` onward."""
        totals: Counter = Counter()
        for interval in self.interval_history[from_interval:]:
            totals.update({s.vendor: s.total_minutes for s in interval.stats})
        return _shares(totals)

    def routed_share(self, from_interval: int = 0) -> Dict[int, float]:
        """Share of admitted (passed-through) calls per vendor over closed
        intervals ``from_interval`` onward, from the router counters."""
        totals: Counter = Counter()
        for interval in self.interval_history[from_interval:]:
            totals.update(interval.received)
        return _shares(totals)


def _shares(totals: Mapping[int, float]) -> Dict[int, float]:
    """Each vendor's fraction of the total; all zero when the total is."""
    grand = sum(totals.values())
    return {v: amount / grand if grand else 0.0 for v, amount in totals.items()}


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one scenario to completion.

    Two interleaved event streams drive the run: call arrivals (Poisson) and
    aggregator ticks on the configured period. At equal times the tick goes
    first, so a call arriving exactly on a tick boundary already sees the
    refreshed targets. Ticking stops at the scenario end; calls still in
    flight then simply never get aggregated.
    """
    traffic_rng = random.Random(config.seed)
    group = config.group
    prefs_map = {spec.vendor: spec.pref for spec in config.vendors}
    models = {spec.vendor: spec.model for spec in config.vendors}

    controller = AdmissionController(group, seed=config.seed + 1)
    cdr_store = CdrStore()
    tick_period_s = config.tick_period_s
    aggregator = IntervalAggregator(
        group,
        cdr_store=cdr_store,
        opened_at=config.start_time,
        tick_period_s=tick_period_s,
        min_age_s=config.min_age_s,
        min_calls=config.min_calls,
        dest_prefix=config.dest_prefix,
        counter_source=controller.snapshot_and_reset_counters,
    )

    # every arrival is drawn before the first call is handled: vendor legs
    # draw from the same generator, so the order of draws fixes the traffic
    duration_s = config.duration_min * 60.0
    rate_per_s = config.arrival_rate_per_min / 60.0
    arrivals: List[float] = []
    t = traffic_rng.expovariate(rate_per_s)
    while t < duration_s:
        arrivals.append(t)
        t += traffic_rng.expovariate(rate_per_s)

    decision_log: List[DecisionRecord] = []
    abandoned = 0

    def handle_call(t_s: float, call_id: str) -> bool:
        """Returns True when the call was answered somewhere."""
        connect = config.start_time + timedelta(seconds=int(t_s))
        history: List[Tuple[int, int]] = []
        while True:
            vendor = billing_route(prefs_map, history)
            if vendor is None:
                return bool(history) and classify_response(history[-1][1]) is ResponseClass.SUCCESS
            decision = controller.decide(call_id, vendor, now=t_s)
            decision_log.append(
                DecisionRecord(
                    len(decision_log), t_s, call_id, vendor, decision.accepted, decision.code
                )
            )
            if decision.accepted:
                code, leg_duration = vendor_leg(models[vendor], traffic_rng)
                cause = (
                    DisconnectCause.NORMAL_CLEARING
                    if classify_response(code) is ResponseClass.SUCCESS
                    else DisconnectCause.NO_USER_RESPONDING
                )
            else:
                code, leg_duration, cause = decision.code, 0, DisconnectCause.OTHER
            cdr_store.append_cdr(
                CallRecord(
                    call_id=call_id,
                    vendor=vendor,
                    connect_time=connect,
                    disconnect_time=connect + timedelta(seconds=leg_duration),
                    duration_s=leg_duration,
                    cause=cause,
                    rejected_by_router=not decision.accepted,
                )
            )
            history.append((vendor, code))

    # one event loop over (time, arrival index) pairs; a tick carries index -1,
    # so it sorts before an arrival at the same time
    num_ticks = int(duration_s // tick_period_s)
    ticks = ((k * tick_period_s, -1) for k in range(1, num_ticks + 1))
    for t_s, idx in heapq.merge(ticks, ((t, i) for i, t in enumerate(arrivals))):
        if idx < 0:
            closed = aggregator.tick(config.start_time + timedelta(seconds=t_s))
            if closed is not None and config.admission_enabled:
                controller.refresh_targets(closed.result)
        elif not handle_call(t_s, f"c{idx + 1:06d}"):
            abandoned += 1

    return ScenarioResult(
        config=config,
        cdrs=cdr_store.all_records(),
        interval_history=aggregator.history,
        decision_log=decision_log,
        acd_table=aggregator.acd_table,
        abandoned_calls=abandoned,
        total_calls=len(arrivals),
    )
