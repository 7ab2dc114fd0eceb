"""acdroute benchmark: two batch workloads through ``acdroute.cli.main``.

    python3 bench/run.py --workload fraud_day --seed 1 --seconds 55 --trace 0

Each workload is one ``simulate`` call on a scenario of fixed size, built
from ``--seed`` during set-up. With ``--trace 0`` the call is repeated
untraced for about ``--seconds`` (at least three times) and the end-to-end
metrics are the medians. With ``--trace 1`` untraced and traced calls
alternate for about ``--seconds`` (at least one pair), the traced calls give
the per-layer split, and the workload is also run at a quarter and half of
its size for the scaling exponent. Every call's artifacts are checked (exit
status, golden hashes at the pinned seed, invariants). Times are adjusted
for the shared host's speed, measured by a probe loop around every call
(``probe``). The human-readable report comes first; the last line of stdout
is the result as one JSON object. See ``bench/README.md`` for why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from checks import (
    artifact_hashes,
    count_rows,
    decision_stats,
    golden_errors,
    interval_errors,
    shape_checks,
)
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = ROOT / ".bench_work"

MIN_ITERATIONS = 3
MIN_SETUPS = 3
MIN_SETUP_S = 1.0

# The probe: a fixed loop that touches nothing of the program. The shared
# host's speed drifts by up to 1.7x within minutes, and the probe's time
# follows it, so every measured time is scaled by REF_PROBE_S / (the probe's
# time around it). REF_PROBE_S is about the probe's median on the 2-vCPU host
# the baseline was measured on, so adjusted times read in seconds of that
# host at its usual speed.
PROBE_LOOPS = 3_000_000
REF_PROBE_S = 0.30

START = datetime(2020, 1, 1)
FALSE_ANSWER = {"kind": "false_answer", "answer_prob": 0.97,
                "duration": {"family": "exponential", "mean_s": 36.0}, "failure_code": 408}
HONEST = {"kind": "honest", "answer_prob": 0.9,
          "duration": {"family": "exponential", "mean_min": 8.67}, "failure_code": 480}
# the shape of demos/scenarios/honest_vs_fas.json
HONEST_VS_FAS = [{"vendor": 71, "pref": 9, "model": FALSE_ANSWER},
                 {"vendor": 72, "pref": 8, "model": HONEST}]


def scenario(seed: int, rate: float, minutes: float) -> dict:
    return {
        "seed": seed,
        "start_time": START.strftime("%Y-%m-%d %H:%M:%S"),
        "arrival_rate_per_min": rate,
        "duration_min": minutes,
        "load_min": 0.1,
        "dest_prefix": "37410",
        "vendors": HONEST_VS_FAS,
    }


def simulate_setup(rate: float, minutes: float) -> Callable[[int, Path], List[List[str]]]:
    """CLI arguments (without ``--out``) of the quarter, half and full run
    length, with their scenario files."""

    def setup(seed: int, inputs: Path) -> List[List[str]]:
        cases = []
        for divisor in (4, 2, 1):
            path = inputs / f"scenario_{divisor}.json"
            data = scenario(seed, rate, minutes / divisor)
            path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
            cases.append(["simulate", "--scenario", str(path)])
        return cases

    return setup


@dataclass
class Workload:
    setup: Callable[[int, Path], List[List[str]]]
    preferred: int


WORKLOADS: Dict[str, Workload] = {
    "fraud_day": Workload(simulate_setup(30.0, 1600.0), preferred=71),
    "carrier_peak": Workload(simulate_setup(600.0, 60.0), preferred=71),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "calls_per_s": "1/s",
    "cdrs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sim.run_scenario.self_s": "s",
    "sim.billing_route.calls": "count",
    "sim.billing_route.self_s": "s",
    "sim.vendor_leg.calls": "count",
    "sim.vendor_leg.self_s": "s",
    "admission.decide.calls": "count",
    "admission.decide.self_s": "s",
    "admission.decide.p50_us": "us",
    "admission.decide.p999_us": "us",
    "admission.record_decision.self_s": "s",
    "admission.reject_ratio": "ratio",
    "admission.retry_passes": "count",
    "admission.ledger_live_max": "count",
    "store.append_cdr.calls": "count",
    "store.append_cdr.self_s": "s",
    "store.query_cdrs.calls": "count",
    "store.query_cdrs.self_s": "s",
    "store.query_cdrs.records_returned": "count",
    "store.query_cdrs.store_size_mean": "count",
    "store.write_cdr_csv.self_s": "s",
    "store.insert_acd_rows.self_s": "s",
    "store.export_csv.self_s": "s",
    "aggregate.tick.calls": "count",
    "aggregate.tick.self_s": "s",
    "aggregate.tick.p50_ms": "ms",
    "aggregate.tick.max_ms": "ms",
    "aggregate.tick.close_ratio": "ratio",
    "aggregate.vendor_stats.self_s": "s",
    "rejection.compute_rejection.calls": "count",
    "rejection.compute_rejection.self_s": "s",
    "report.render_interval_table.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
    "scaling_exponent": "exponent",
}


def import_cli():
    """Import the package from this checkout's ``src``, afresh."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "acdroute" or n.startswith("acdroute.")]:
        del sys.modules[name]
    cli = importlib.import_module("acdroute.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"acdroute imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def probe() -> float:
    """Seconds the host takes for the probe loop now."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def adjusted(seconds: float, probe_s: float) -> float:
    """``seconds`` at the host speed where the probe takes REF_PROBE_S."""
    return seconds * REF_PROBE_S / probe_s


@dataclass
class Outcome:
    """One checked CLI call."""

    wall_s: Optional[float]  # None when the call crashed or returned non-zero
    errors: List[str]
    probe_s: float = REF_PROBE_S  # mean of the probes right before and after the call
    calls: Optional[int] = None
    cdrs: Optional[int] = None
    decisions: Optional[Dict[str, float]] = None

    @property
    def wall_s_adj(self) -> float:
        return adjusted(self.wall_s, self.probe_s)


class Runner:
    def __init__(self, cli, workload: Workload, work: Path, golden: Optional[Dict[str, str]],
                 probe_s: float):
        self.cli = cli
        self.workload = workload
        self.out = work / "out"
        self.golden = golden
        self.outcomes: List[Outcome] = []
        self.last_probe = probe_s  # the probe taken right after the previous call

    def call(self, argv: List[str], tracer: Optional[Tracer] = None,
             golden: bool = False) -> Outcome:
        if self.out.exists():
            shutil.rmtree(self.out)
        gc.collect()
        argv = argv + ["--out", str(self.out)]
        before = self.last_probe
        crash = None
        try:
            with redirect_stdout(io.StringIO()), tracer or nullcontext():
                start = perf_counter()
                rc = self.cli.main(argv)
                wall_s = perf_counter() - start
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            crash = exc
        self.last_probe = probe()
        if crash is not None:
            outcome = Outcome(None, [f"exit: {type(crash).__name__}: {crash}"])
        elif rc != 0:
            outcome = Outcome(None, [f"exit: cli.main returned {rc}"])
        else:
            outcome = self.check(wall_s, golden)
        outcome.probe_s = (before + self.last_probe) / 2
        self.outcomes.append(outcome)
        return outcome

    def check(self, wall_s: float, golden: bool) -> Outcome:
        outcome = Outcome(wall_s, [])
        try:
            outcome.errors += interval_errors(self.out, self.workload.preferred)
            summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
            outcome.calls = summary["total_calls"]
            outcome.cdrs = count_rows(self.out / "cdrs.csv")
            outcome.decisions, errors = decision_stats(
                self.out / "decisions.csv", self.workload.preferred)
            outcome.errors += errors
            if golden:
                outcome.errors += golden_errors(artifact_hashes(self.out), self.golden or {})
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome.errors.append(f"invariant: unreadable artifacts: {type(exc).__name__}: {exc}")
        return outcome


def quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    s = tracer.stats
    decisions = outcome.decisions or {}
    decide = sorted(s["admission.decide"].durations)
    tick = sorted(s["aggregate.tick"].durations)
    n_decisions = decisions.get("decisions", 0)
    return {
        "sim.run_scenario.self_s": s["sim.run_scenario"].self_s,
        "sim.billing_route.calls": s["sim.billing_route"].calls,
        "sim.billing_route.self_s": s["sim.billing_route"].self_s,
        "sim.vendor_leg.calls": s["sim.vendor_leg"].calls,
        "sim.vendor_leg.self_s": s["sim.vendor_leg"].self_s,
        "admission.decide.calls": s["admission.decide"].calls,
        "admission.decide.self_s": s["admission.decide"].self_s,
        "admission.decide.p50_us": quantile(decide, 0.5) * 1e6,
        "admission.decide.p999_us": quantile(decide, 0.999) * 1e6,
        "admission.record_decision.self_s": s["admission.record_decision"].self_s,
        "admission.reject_ratio": decisions.get("rejects", 0) / n_decisions if n_decisions else 0.0,
        "admission.retry_passes": decisions.get("retry_passes", 0),
        "admission.ledger_live_max": decisions.get("ledger_live_max", 0),
        "store.append_cdr.calls": s["store.append_cdr"].calls,
        "store.append_cdr.self_s": s["store.append_cdr"].self_s,
        "store.query_cdrs.calls": s["store.query_cdrs"].calls,
        "store.query_cdrs.self_s": s["store.query_cdrs"].self_s,
        "store.query_cdrs.records_returned": tracer.records_returned,
        "store.query_cdrs.store_size_mean":
            statistics.fmean(tracer.store_sizes) if tracer.store_sizes else 0.0,
        "store.write_cdr_csv.self_s": s["store.write_cdr_csv"].self_s,
        "store.insert_acd_rows.self_s": s["store.insert_acd_rows"].self_s,
        "store.export_csv.self_s": s["store.export_csv"].self_s,
        "aggregate.tick.calls": s["aggregate.tick"].calls,
        "aggregate.tick.self_s": s["aggregate.tick"].self_s,
        "aggregate.tick.p50_ms": quantile(tick, 0.5) * 1e3,
        "aggregate.tick.max_ms": (tick[-1] if tick else 0.0) * 1e3,
        "aggregate.tick.close_ratio":
            tracer.ticks_closed / s["aggregate.tick"].calls if s["aggregate.tick"].calls else 0.0,
        "aggregate.vendor_stats.self_s": s["aggregate.vendor_stats"].self_s,
        "rejection.compute_rejection.calls": s["rejection.compute_rejection"].calls,
        "rejection.compute_rejection.self_s": s["rejection.compute_rejection"].self_s,
        "report.render_interval_table.self_s": s["report.render_interval_table"].self_s,
        "cli.self_s": s["cli.main"].self_s,
    }


def another_round(rounds: List[float], started: float, seconds: float, minimum: int) -> bool:
    """Whether to start one more round of calls: always until ``minimum``
    rounds are done, then only if the run would end nearer to ``seconds``
    with it than without it.

    A call takes up to ~14 s at the baseline, so running "until ``seconds``
    have passed" would overshoot by half a call on average, and by how much
    would depend on the workload and on the host's speed at the time.
    """
    if len(rounds) < minimum:
        return True
    return perf_counter() - started + statistics.median(rounds) / 2 < seconds


def scaling_exponent(points: List[Tuple[int, float]]) -> float:
    """Least-squares slope of log(wall_s) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(wall) for _, wall in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    check_golden = args.seed == golden["seed"]
    work = WORK / args.workload
    inputs = work / "inputs"

    try:
        setup_times = []
        setup_probe = probe()
        while len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_S:
            if work.exists():
                shutil.rmtree(work)
            inputs.mkdir(parents=True)
            start = perf_counter()
            cli = import_cli()
            quarter, half, full = workload.setup(args.seed, inputs)
            setup_times.append(perf_counter() - start)
        last_probe = probe()
        setup_probe = (setup_probe + last_probe) / 2

        runner = Runner(cli, workload, work, golden["workloads"].get(args.workload), last_probe)
        untraced, traced, layer_runs, rounds = [], [], [], []
        started = perf_counter()
        minimum = MIN_ITERATIONS if args.trace == 0 else 1
        while another_round(rounds, started, args.seconds, minimum):
            begin = perf_counter()
            untraced.append(runner.call(full, golden=check_golden))
            if args.trace:
                tracer = Tracer()
                traced.append(runner.call(full, tracer=tracer, golden=check_golden))
                layer_runs.append(layer_metrics(tracer, traced[-1]))
            rounds.append(perf_counter() - begin)
        if args.trace:
            scaled = [runner.call(quarter), runner.call(half)]
    except ImportError as exc:
        print(f"error: cannot import acdroute from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    timed = [o for o in untraced if o.wall_s is not None]
    sized = next((o for o in untraced if o.calls is not None), None)
    if sized is None or any(o.wall_s is None for o in traced):
        for error in [e for o in runner.outcomes for e in o.errors][:5]:
            print(error, file=sys.stderr)
        print("error: no successful call to time", file=sys.stderr)
        return 1
    wall_s = statistics.median(o.wall_s_adj for o in timed)
    end_to_end = {
        "setup_s": adjusted(statistics.median(setup_times), setup_probe),
        "wall_s": wall_s,
        "calls_per_s": sized.calls / wall_s,
        "cdrs_per_s": sized.cdrs / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    errors = [e for o in runner.outcomes for e in o.errors]
    verdicts: List[Tuple[str, Optional[bool], str]] = [
        ("exit", not any(e.startswith("exit:") for e in errors),
         "every cli.main call returned 0"),
        ("invariant", not any(e.startswith("invariant:") for e in errors),
         "artifact invariants hold"),
        ("golden", not any(e.startswith("golden:") for e in errors) if check_golden else None,
         f"artifacts match golden.json at seed {golden['seed']}"),
    ]
    if args.trace:
        per_layer = median_metrics(layer_runs)
        traced_wall = statistics.median(o.wall_s_adj for o in traced)
        per_layer["trace.overhead_pct"] = (traced_wall / wall_s - 1.0) * 100.0
        points = [(o.calls, o.wall_s_adj) for o in scaled if o.calls is not None]
        points.append((sized.calls, wall_s))
        # a failed quarter or half call is already counted in ``failed``
        per_layer["scaling_exponent"] = scaling_exponent(points) if len(points) > 1 else 0.0
        verdicts += [("shape", ok, rule) for ok, rule in shape_checks(args.workload, per_layer)]

    for error in errors[:10]:
        print(error)
    for kind, ok, what in verdicts:
        verdict = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        print(f"check {kind:9s} {verdict}  {what}")
    print(f"\n{args.workload} seed={args.seed}: end-to-end, median of {len(timed)} untraced calls,"
          f" adjusted to a probe time of {REF_PROBE_S} s")
    print("  measured wall_s of each call: " + " ".join(f"{o.wall_s:.3f}" for o in timed))
    print("  probe_s around each call:     " + " ".join(f"{o.probe_s:.3f}" for o in timed))
    print("  adjusted wall_s of each call: " + " ".join(f"{o.wall_s_adj:.3f}" for o in timed))
    print(f"  measured median wall_s {statistics.median(o.wall_s for o in timed):.4f} s,"
          f" median setup_s {statistics.median(setup_times):.4f} s (probe {setup_probe:.3f} s)")
    for name, value in end_to_end.items():
        print(f"  {name:36s} {value:14.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        print(f"per layer, median of {len(layer_runs)} traced calls")
        if tracer.missing:
            print("  not found, reported as 0: " + ", ".join(tracer.missing))
        for name, value in per_layer.items():
            print(f"  {name:36s} {value:14.6g} {PER_LAYER_UNITS[name]}")

    failed = sum(1 for o in runner.outcomes if o.errors)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "checks": {f"{kind}: {what}": "skip" if ok is None else "pass" if ok else "fail"
                   for kind, ok, what in verdicts},
        "claim": None,
    }, indent=2))
    metrics, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
    print(json.dumps({
        "correct": failed == 0 and all(ok is not False for _, ok, _ in verdicts),
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
