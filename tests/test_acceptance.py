"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest

from acdroute.admission import AdmissionController
from acdroute.aggregate import IntervalAggregator
from acdroute.cli import main
from acdroute.domain import RouteGroup
from acdroute.rejection import QualityInput, compute_rejection, round_half_up
from acdroute.sim import (
    DurationSpec,
    ScenarioConfig,
    VendorModel,
    VendorSpec,
    run_scenario,
)
from conftest import T0, add_records, attempt_sink, make_cdr, spread_cdrs
from reference import write_cdr_csv
from test_aggregate import closed_stats
from test_cli import interval_records, snapshot_dir
from test_rejection import oracle_rejection

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def verdict(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_rejection_calculator_golden():
    result = compute_rejection(QualityInput((8.67, 0.6), (9, 8), 0.1))
    assert abs(result.rank[1] - 0.0692041522491) < 1e-10
    assert result.rank[0] == 1.0
    assert abs(result.load[0] - 0.8723183391) < 1e-10
    assert abs(result.load[1] - 0.1276816609) < 1e-10
    assert result.reject_pct == (12.77, 0.0)
    verdict(1, "rejection calculator golden values")


def test_criterion_2_target_balance_golden():
    result = compute_rejection(QualityInput((0.17, 0.79), (9, 8), 0.1))
    assert int(round_half_up(result.load[0] * 100, 0)) == 19
    assert int(round_half_up(result.load[1] * 100, 0)) == 81
    verdict(2, "target balance rounds to 19% / 81%")


def test_criterion_3_acd_aggregation_golden():
    strong = closed_stats(spread_cdrs(1, [0] * 17 + [25] + [851] * 9 + [854]), 1)
    assert (strong.bucket_zero, strong.bucket_0_5, strong.bucket_5_30,
            strong.bucket_over_30) == (17, 0, 1, 10)
    assert strong.total_minutes == pytest.approx(142.3, abs=1e-9)
    assert strong.acd_min == pytest.approx(12.94, abs=0.01)

    weak = closed_stats(spread_cdrs(2, [0] * 5 + [10, 20] + [816] * 8), 2)
    assert (weak.bucket_zero, weak.bucket_0_5, weak.bucket_5_30,
            weak.bucket_over_30) == (5, 0, 2, 8)
    assert weak.total_minutes == pytest.approx(109.3, abs=1e-9)
    assert weak.acd_min == pytest.approx(10.93, abs=0.01)
    verdict(3, "ACD aggregation on the documented bucket rows")


def test_criterion_4_interval_property_suite():
    violations = 0
    for run in range(100):
        rng = random.Random(52000 + run)
        cdrs = []
        t = 0.0
        total_s = rng.randint(2, 4) * 3600
        i = 0
        while True:
            t += rng.expovariate(rng.choice([0.3, 1.0, 2.5]) / 60.0)
            if t >= total_s:
                break
            duration = rng.choice([0, 0, rng.randint(1, 40), rng.randint(41, 900)])
            cdrs.append(
                make_cdr(f"p{i:05d}", rng.choice((55, 62)),
                         T0 + timedelta(seconds=int(t) + duration), duration)
            )
            i += 1
        if not cdrs:
            continue
        agg = IntervalAggregator(RouteGroup((55, 62), (9, 8)), opened_at=T0)
        add_records(agg, cdrs)
        last_end = max(r.disconnect_time for r in cdrs)
        k = 1
        while T0 + timedelta(seconds=600 * k) <= last_end + timedelta(seconds=1800):
            agg.tick(600 * k)
            k += 1
        previous_close = T0
        for closed in agg.history:
            age_s = (closed.closed_at - closed.opened_at).total_seconds()
            in_range = [r for r in cdrs
                        if closed.opened_at <= r.disconnect_time < closed.closed_at]
            ended = [r for r in in_range if not r.rejected_by_router]
            if age_s < 1200 or age_s % 600 or len(ended) < 20:
                violations += 1
            if closed.opened_at != previous_close:
                violations += 1
            previous_close = closed.closed_at
    assert violations == 0
    verdict(4, "interval minima, 10-minute steps and gapless timeline over 100 runs")


def test_criterion_5_admission_statistics():
    started = time.monotonic()
    controller = AdmissionController(RouteGroup((55, 62), (9, 8)), seed=202)
    controller.refresh_targets(compute_rejection(QualityInput((8.67, 0.6), (9, 8), 0.1)))
    n = 100_000
    rejected_ids = []
    for i in range(n):
        if not controller.decide(f"c{i}", 55, now=float(i)):
            rejected_ids.append(f"c{i}")
    rate = 100.0 * len(rejected_ids) / n
    assert rate == pytest.approx(12.77, abs=0.3), f"empirical rate {rate:.3f}"
    assert len(rejected_ids) == len(set(rejected_ids))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    verdict(5, f"empirical rejection rate {rate:.2f}% vs 12.77% target, "
               "no call rejected twice")


def test_criterion_6_algorithm_property_suite():
    rng = random.Random(20260808)
    for _ in range(10_000):
        acd0 = rng.uniform(0.01, 60.0)
        acd1 = rng.uniform(0.01, 60.0)
        pref0, pref1 = rng.sample(range(1, 10), 2)
        load_min = rng.uniform(0.0, 0.49)
        result = compute_rejection(QualityInput((acd0, acd1), (pref0, pref1), load_min))

        # loads sum to one and stay inside the floor/ceiling band
        assert abs(result.load[0] + result.load[1] - 1.0) < 1e-12
        assert min(result.load) >= load_min - 1e-12
        assert min(result.load) <= 0.5 + 1e-12

        # scale invariance: only the ACD ratio enters
        k = rng.uniform(0.01, 100.0)
        scaled = compute_rejection(
            QualityInput((acd0 * k, acd1 * k), (pref0, pref1), load_min)
        )
        for got, want in zip(scaled.load, result.load):
            assert got == pytest.approx(want, rel=1e-12)
        for got, want in zip(scaled.reject_pct_exact, result.reject_pct_exact):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

        # rejection only on the higher-preference route
        nonzero = [i for i in (0, 1) if result.reject_pct_exact[i] > 0]
        assert len(nonzero) <= 1
        if nonzero:
            assert nonzero[0] == (0 if pref0 > pref1 else 1)

        # equality with the independent exact-rational transcription
        rank, load, reject = oracle_rejection(acd0, acd1, pref0, pref1, load_min)
        for got, want in zip(result.rank, rank):
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
        for got, want in zip(result.load, load):
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
        for got, want in zip(result.reject_pct_exact, reject):
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-10)
    verdict(6, "10k-sample algorithm properties incl. exact-rational oracle")


def test_criterion_7_closed_loop_simulation():
    started = time.monotonic()
    config = ScenarioConfig(
        seed=7,
        arrival_rate_per_min=30.0,
        duration_min=400.0,
        vendors=(
            VendorSpec(71, 9, VendorModel("false_answer", 0.97,
                                          DurationSpec("exponential", mean_s=36.0),
                                          failure_code=408)),
            VendorSpec(72, 8, VendorModel("honest", 0.9,
                                          DurationSpec("exponential", mean_s=520.2),
                                          failure_code=480)),
        ),
    )
    result = run_scenario(config, on_attempts=lambda first, times, codes: None)
    assert len(result.interval_history) >= 3
    steady = result.interval_history[2:]
    for interval in steady:
        target_on_fas = interval.result.reject_pct_exact[0]
        assert target_on_fas == pytest.approx(87.23, abs=3.0), (
            f"interval closing {interval.closed_at}: {target_on_fas:.2f}"
        )
    share = result.answered_minutes_share(from_interval=2)
    assert share[72] >= 0.8, f"honest answered-minute share {share[72]:.3f}"

    # negative control: a perfect false-answer vendor with admission disabled
    # captures every call
    control = ScenarioConfig(
        seed=7,
        arrival_rate_per_min=30.0,
        duration_min=60.0,
        vendors=(
            VendorSpec(71, 9, VendorModel("false_answer", 1.0,
                                          DurationSpec("exponential", mean_s=36.0),
                                          failure_code=408)),
            config.vendors[1],
        ),
        admission_enabled=False,
    )
    attempts = []
    neg = run_scenario(control, on_attempts=attempt_sink(attempts, control))
    by_vendor = Counter(a[1] for a in attempts)
    assert by_vendor[71] == neg.total_calls
    assert by_vendor[72] == 0

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    verdict(7, f"steady-state reject target on the false-answer clone within "
               f"87.2+-3 over {len(steady)} intervals; honest minute share "
               f"{share[72]:.1%}; negative control captured 100%")


def test_criterion_8_subcommand_determinism(tmp_path, capsys):
    cdr_csv = tmp_path / "cdrs.csv"
    write_cdr_csv(cdr_csv, interval_records())

    def run_twice(name, args_for):
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert main(args_for(out_a)) == 0
        stdout_a = capsys.readouterr().out
        assert main(args_for(out_b)) == 0
        stdout_b = capsys.readouterr().out
        assert stdout_a == stdout_b, f"{name}: stdout differs"
        assert snapshot_dir(out_a) == snapshot_dir(out_b), f"{name}: files differ"
        return out_a

    run_twice("compute", lambda out: [
        "compute", "--acd", "8.67,0.6", "--pref", "9,8", "--out", str(out)])
    run_twice("aggregate", lambda out: [
        "aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", "--out", str(out)])
    sim_dir = run_twice("simulate", lambda out: [
        "simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
        "--seed", "5", "--out", str(out)])
    run_twice("report", lambda out: [
        "report", "--history", str(sim_dir / "interval_history.json"),
        "--out", str(out)])
    verdict(8, "compute/aggregate/simulate/report byte-identical across reruns")
