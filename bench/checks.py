"""Output checks: golden hashes, seed-independent invariants, workload shape.

Everything is read back from the artifacts a CLI call wrote, streaming, so
the checks hold only a few small sets in memory and do not raise the peak
RSS the benchmark reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import deque
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Tuple

TS_FORMAT = "%Y-%m-%d %H:%M:%S"
TICK_PERIOD_S = 600
LOAD_MIN = 0.1
LEDGER_TTL_S = 3600.0
# AdmissionController rebuilds its ledger on every rejection above this size
LEDGER_PRUNE_SIZE = 16384


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_rows(path: Path) -> int:
    """Data rows of a CSV file with a header line and no quoted newlines."""
    lines = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1


def artifact_hashes(out_dir: Path) -> Dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def golden_errors(actual: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    errors = []
    for name in sorted(set(actual) | set(expected)):
        if actual.get(name) != expected.get(name):
            errors.append(
                f"golden: {name} sha256 {actual.get(name)} != pinned {expected.get(name)}"
            )
    return errors


def decision_stats(path: Path, preferred: int) -> Tuple[Dict[str, float], List[str]]:
    """Counts from ``decisions.csv`` and the two per-decision invariants.

    ``ledger_live_max`` is the most rejections whose TTL had not expired at
    any rejection time, i.e. the size of an ideally pruned ledger.
    """
    errors: List[str] = []
    rejected_ids = set()
    live: deque = deque()
    decisions = rejects = retry_passes = live_max = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for _seq, time_s, call_id, vendor, accepted, _code in reader:
            decisions += 1
            if accepted == "1":
                retry_passes += call_id in rejected_ids
                continue
            rejects += 1
            if call_id in rejected_ids:
                errors.append(f"invariant: call {call_id} rejected twice")
            rejected_ids.add(call_id)
            if int(vendor) != preferred:
                errors.append(f"invariant: call {call_id} rejected on non-preferred vendor {vendor}")
            now = float(time_s)
            live.append(now)
            while live[0] <= now - LEDGER_TTL_S:
                live.popleft()
            live_max = max(live_max, len(live))
    stats = {
        "decisions": decisions,
        "rejects": rejects,
        "retry_passes": retry_passes,
        "ledger_live_max": live_max,
    }
    return stats, errors


def _ts(text: str) -> datetime:
    return datetime.strptime(text, TS_FORMAT)


def interval_errors(out_dir: Path, preferred: int) -> List[str]:
    """Violations of the invariants of ``interval_history.json`` and
    ``acd_vendors.csv``."""
    errors: List[str] = []
    history = json.loads((out_dir / "interval_history.json").read_text(encoding="utf-8"))
    for k, interval in enumerate(history):
        opened, closed = _ts(interval["opened_at"]), _ts(interval["closed_at"])
        span_s = (closed - opened).total_seconds()
        if span_s <= 0 or span_s % TICK_PERIOD_S:
            errors.append(f"invariant: interval {k} spans {span_s}s, not whole ticks")
        if k + 1 < len(history) and interval["closed_at"] != history[k + 1]["opened_at"]:
            errors.append(f"invariant: interval {k} closes at {interval['closed_at']}, "
                          f"next opens at {history[k + 1]['opened_at']}")
        acds = [s["acd_min"] for s in interval["stats"]]
        load = interval["result"]["load"]
        if None not in acds and min(load) < LOAD_MIN:
            errors.append(f"invariant: interval {k} weaker load {min(load)} < load_min")
        for vendor, pct in zip(interval["vendors"], interval["result"]["reject_pct"]):
            if vendor != preferred and pct != 0:
                errors.append(f"invariant: interval {k} rejects {pct}% on non-preferred {vendor}")

    with open(out_dir / "acd_vendors.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    if len(rows) != 2 * len(history):
        errors.append(f"invariant: {len(rows)} acd_vendors rows for {len(history)} intervals")
    for k in range(0, len(rows) - 1, 2):
        first, second = rows[k], rows[k + 1]
        if first[2] != second[2] or first[1] == second[1]:
            errors.append(f"invariant: acd_vendors rows {first[0]},{second[0]} are not a pair")
        if k // 2 < len(history) and first[2] != history[k // 2]["closed_at"]:
            errors.append(f"invariant: acd_vendors pair {first[0]} dated {first[2]}, "
                          f"interval closed at {history[k // 2]['closed_at']}")
        for row in (first, second):
            if int(row[1]) != preferred and float(row[4]) != 0:
                errors.append(f"invariant: acd_vendors row {row[0]} rejects on non-preferred")
    return errors


def shape_checks(workload: str, metrics: Dict[str, float]) -> List[Tuple[bool, str]]:
    """(passed, rule) pairs checking that a workload still exercises the
    mechanism it was chosen for."""
    live = metrics["admission.ledger_live_max"]
    ticks = metrics["aggregate.tick.calls"]
    rules = {
        "carrier_peak": [
            (live > LEDGER_PRUNE_SIZE, f"admission.ledger_live_max {live:g} > {LEDGER_PRUNE_SIZE}"),
            (ticks <= 10, f"aggregate.tick.calls {ticks:g} <= 10"),
        ],
        "fraud_day": [
            (live < LEDGER_PRUNE_SIZE, f"admission.ledger_live_max {live:g} < {LEDGER_PRUNE_SIZE}"),
            (ticks >= 150, f"aggregate.tick.calls {ticks:g} >= 150"),
        ],
    }
    return rules[workload]
