"""``acdroute simulate`` and ``acdroute aggregate`` written the slow and
obvious way: the reference their data files are compared against.

``simulate(config)`` returns the text of ``cdrs.csv``, ``decisions.csv``,
``acd_vendors.csv``, ``interval_history.json`` and ``summary.json`` for a
scenario, laid out as README's "File formats" describes them. From the
package it takes only ``compute_rejection``, which turns a closed
interval's ACD pair into targets, and the ``DisconnectCause`` members.
Everything else it does on its own: it picks each attempt's vendor with
``billing_route``, from the call's response codes so far, draws the
traffic, decides admission with its own generator and ledger, keeps every
CDR in a list and rescans the list at each tick, and writes each file with
``csv.writer`` or ``json``. A fault in any of those steps in the package
shows as a difference from these files.

``replay(rows, vendors, prefs, load_min, schedule)`` returns the text of
``acd_vendors.csv`` and ``interval_history.json`` that ``aggregate`` writes
for a list of CDRs, ticking every period and rescanning the list at each tick.

``cdr_lines`` and ``write_cdr_csv`` write ``Record`` tuples in the same row
format, for the tests that need a CDR file or its rows; ``read_cdr_row``
reads a row back, accepting only a row so written.
"""

import csv
import io
import json
import random
from datetime import datetime, timedelta
from typing import NamedTuple

from acdroute.domain import DisconnectCause
from acdroute.rejection import QualityInput, compute_rejection

CDR_HEADER = ["call_id", "vendor", "connect_time", "disconnect_time", "duration_s", "cause",
              "rejected"]
DECISION_HEADER = ["seq", "time_s", "call_id", "vendor", "accepted", "code"]
ACD_HEADER = ["id", "vendor", "date", "acd_min", "reject_pct", "prefix"]

REFUSAL_CODE = 503
LEDGER_TTL_S = 3600.0


class Record(NamedTuple):
    """One CDR as a test builds it, its cause a ``DisconnectCause``; nothing
    checks that its fields agree."""

    call_id: str
    vendor: int
    connect_time: datetime
    disconnect_time: datetime
    duration_s: int
    cause: DisconnectCause
    rejected_by_router: bool = False


def ts(moment):
    """A timestamp as the files write it: its wall time to the second, each
    field zero-padded, the year to four digits."""
    return (f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d} "
            f"{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d}")


def csv_lines(rows):
    """Each row as one line of text, as ``csv.writer`` writes it with the line
    terminator "\\r\\n", that terminator then written as "\\n"."""
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return lines


def cdr_lines(records):
    """The rows of a CDR file, header excluded, holding ``records``."""
    return csv_lines([record.call_id, record.vendor, ts(record.connect_time),
                      ts(record.disconnect_time), record.duration_s, record.cause.value,
                      int(record.rejected_by_router)] for record in records)


def write_cdr_csv(path, records):
    """Write ``records`` as a CDR file at ``path``."""
    text = "".join(csv_lines([CDR_HEADER]) + cdr_lines(records))
    path.write_text(text, encoding="utf-8", newline="")


def read_cdr_row(row):
    """The ``Record`` of a CDR row as ``csv`` splits it, or None unless the
    row is a whole CDR exactly as ``cdr_lines`` writes it: its timestamps
    calendar times, its disconnect its connect plus its duration, and each
    field in the one form the writer gives it."""
    if len(row) != len(CDR_HEADER):
        return None
    call_id, vendor, connect, disconnect, duration, cause, rejected = row
    try:
        record = Record(call_id, int(vendor), datetime.fromisoformat(connect),
                        datetime.fromisoformat(disconnect), int(duration),
                        DisconnectCause(cause), rejected == "1")
        if record.disconnect_time - record.connect_time != timedelta(seconds=record.duration_s):
            return None
    except (ValueError, TypeError):  # TypeError: one time with an offset, one without
        return None
    return record if next(csv.reader(cdr_lines([record]))) == row else None


def billing_route(prefs, attempt_history):
    """Static-preference routing with failover, from ``prefs``, each vendor's
    billing preference, and ``attempt_history``, the call's (vendor, response
    code) pairs so far: the untried vendor with the highest preference, or
    None when routing is finished, because the last response was not a 4xx,
    5xx or 6xx failure or because every vendor has been tried."""
    if attempt_history:
        last_code = attempt_history[-1][1]
        if not 400 <= last_code <= 699:
            return None
    tried = {vendor for vendor, _ in attempt_history}
    remaining = [vendor for vendor in prefs if vendor not in tried]
    if not remaining:
        return None
    return max(remaining, key=lambda vendor: prefs[vendor])


def draw_duration(spec, rng):
    """A leg's duration in seconds, before rounding, drawn as ``spec``'s
    family says."""
    if spec.family == "exponential":
        return rng.expovariate(1.0 / spec.mean_s)
    if spec.family == "uniform":
        return rng.uniform(spec.low_s, spec.high_s)
    return spec.value_s


def vendor_stats(vendor, durations):
    """One vendor's statistics over an interval, as ``interval_history.json``
    holds them, from the durations of its calls that were not refused."""
    answered = [d for d in durations if d > 0]
    total_minutes = sum(answered) / 60.0
    return {
        "vendor": vendor,
        "bucket_zero": len(durations) - len(answered),
        "bucket_0_5": len([d for d in answered if d <= 5]),
        "bucket_5_30": len([d for d in answered if 5 < d <= 30]),
        "bucket_over_30": len([d for d in answered if d > 30]),
        "calls": len(durations),
        "total_minutes": total_minutes,
        "acd_min": total_minutes / len(answered) if answered else None,
    }


def by_vendor_id(counts):
    """A JSON object of per-vendor values: ids as text, in numeric order."""
    return {str(vendor): counts[vendor] for vendor in sorted(counts)}


def closed_interval(opened_at, closed_at, vendors, prefs, load_min, durations, received,
                    refused):
    """One closed interval as ``interval_history.json`` holds it: ``durations``
    maps each vendor to the durations of its ended calls, ``received`` and
    ``refused`` each vendor to its count of attempts let through and refused."""
    stats = [vendor_stats(v, durations[v]) for v in vendors]
    result = compute_rejection(QualityInput(
        (stats[0]["acd_min"], stats[1]["acd_min"]), tuple(prefs), load_min))
    return {
        "opened_at": opened_at,
        "closed_at": closed_at,
        "vendors": list(vendors),
        "prefs": list(prefs),
        "stats": stats,
        "result": {
            "max_idx": result.max_idx,
            "rank": list(result.rank),
            "load": list(result.load),
            "reject_pct": list(result.reject_pct),
            "reject_pct_exact": list(result.reject_pct_exact),
        },
        "received": by_vendor_id(received),
        "rejected": by_vendor_id(refused),
    }


def history_files(history, prefix):
    """The ``acd_vendors.csv`` and ``interval_history.json`` text of an
    interval history."""
    acd_rows = []
    for interval in history:
        for stats, pct in zip(interval["stats"], interval["result"]["reject_pct"]):
            acd_rows.append([len(acd_rows) + 1, stats["vendor"], interval["closed_at"],
                             stats["acd_min"], f"{pct:.2f}", prefix])
    return {
        "acd_vendors.csv": "".join(csv_lines([ACD_HEADER, *acd_rows])),
        "interval_history.json": json.dumps(history, indent=2) + "\n",
    }


def replay(rows, vendors, prefs, load_min, schedule):
    """The ``acd_vendors.csv`` and ``interval_history.json`` text that
    ``acdroute aggregate`` writes for the CDRs ``rows``, with the vendors
    ``vendors`` in that order, their preferences ``prefs``, the floor
    ``load_min`` and the interval ``schedule`` (the acd_vendors prefix is
    empty).

    Ticks fall every period from the earliest connect time of the two
    vendors' CDRs; the others are ignored. Each tick rescans the whole list
    for the CDRs that ended inside the open interval, ``opened_at <=
    disconnect < closed_at``, and closes it when it is old enough and enough
    of those calls were not refused. The ticks run to a horizon four periods
    past the last end plus the minimum age, where nothing is left to close."""
    ours = [r for r in rows if r.vendor in vendors]
    history = []
    if ours:
        period = timedelta(seconds=schedule.tick_period_s)
        min_age = timedelta(seconds=schedule.min_age_s)
        opened = start = min(r.connect_time for r in ours)
        horizon = max(r.disconnect_time for r in ours) + min_age + 4 * period
        k = 1
        while start + k * period <= horizon:
            now = start + k * period
            window = [r for r in ours if opened <= r.disconnect_time < now]
            ended = [r for r in window if not r.rejected_by_router]
            if now - opened >= min_age and len(ended) >= schedule.min_calls:
                history.append(closed_interval(
                    ts(opened), ts(now), vendors, prefs, load_min,
                    {v: [r.duration_s for r in ended if r.vendor == v] for v in vendors},
                    {v: sum(r.vendor == v for r in ended) for v in vendors},
                    {v: sum(r.vendor == v for r in window if r.rejected_by_router)
                     for v in vendors}))
                opened = now
            k += 1
    return history_files(history, "")


def simulate(config):
    """The five data files of a ``simulate`` run of ``config``, by name."""
    vendors = [spec.vendor for spec in config.vendors]
    prefs = {spec.vendor: spec.pref for spec in config.vendors}
    models = {spec.vendor: spec.model for spec in config.vendors}
    start = config.start_time
    tick_s = round(config.tick_period_min * 60)
    min_age_s = round(config.min_interval_min * 60)
    traffic = random.Random(config.seed)
    admission = random.Random(config.seed + 1)

    def at(s):
        return ts(start + timedelta(seconds=s))

    # every arrival is drawn before the first vendor leg
    duration_s = config.duration_min * 60.0
    rate_per_s = config.arrival_rate_per_min / 60.0
    arrivals = []
    t = traffic.expovariate(rate_per_s)
    while t < duration_s:
        arrivals.append(t)
        t += traffic.expovariate(rate_per_s)

    targets = {v: 0.0 for v in vendors}
    refused_until = {}  # call id -> when its refusal is forgotten
    received = {v: 0 for v in vendors}
    refused = {v: 0 for v in vendors}
    cdrs = []  # (call id, vendor, connect s, duration s, cause, refused)
    decisions = []
    history = []
    opened_s = 0
    answered = {v: 0 for v in vendors}
    answered_minutes = {v: 0.0 for v in vendors}

    def admit(call_id, vendor, now):
        if (refused_until.get(call_id, now) <= now and targets[vendor] > 0
                and admission.random() < targets[vendor] / 100.0):
            refused_until[call_id] = now + LEDGER_TTL_S
            refused[vendor] += 1
            return False
        received[vendor] += 1
        return True

    def tick(now_s):
        nonlocal opened_s, received, refused, targets
        ended = [(vendor, duration) for _, vendor, connect_s, duration, _, was_refused in cdrs
                 if not was_refused and opened_s <= connect_s + duration < now_s]
        if now_s - opened_s < min_age_s or len(ended) < config.min_calls:
            return
        history.append(closed_interval(
            at(opened_s), at(now_s), vendors, [prefs[v] for v in vendors], config.load_min,
            {v: [d for u, d in ended if u == v] for v in vendors}, received, refused))
        opened_s = now_s
        received = {v: 0 for v in vendors}
        refused = {v: 0 for v in vendors}
        if config.admission_enabled:
            targets = dict(zip(vendors, history[-1]["result"]["reject_pct_exact"]))

    ticks = [k * tick_s for k in range(1, int(duration_s // tick_s) + 1)]
    abandoned = 0
    for n, t in enumerate(arrivals, 1):
        while ticks and ticks[0] <= t:
            tick(ticks.pop(0))
        call_id = f"c{n:06d}"
        attempts = []
        vendor = billing_route(prefs, attempts)
        while vendor is not None:
            model = models[vendor]
            accepted = admit(call_id, vendor, t)
            if not accepted:
                code, duration, cause = REFUSAL_CODE, 0, "other"
            elif traffic.random() < model.answer_prob:
                code, duration = 200, max(1, round(draw_duration(model.duration, traffic)))
                cause = "normal"
                answered[vendor] += 1
                answered_minutes[vendor] += duration / 60.0
            else:
                code, duration, cause = model.failure_code, 0, "no_answer"
            cdrs.append((call_id, vendor, int(t), duration, cause, not accepted))
            decisions.append([len(decisions), f"{t:.3f}", call_id, vendor, int(accepted),
                              "" if accepted else REFUSAL_CODE])
            attempts.append((vendor, code))
            vendor = billing_route(prefs, attempts)
        abandoned += code != 200
    for now_s in ticks:
        tick(now_s)

    final = history[-1]["result"]["reject_pct_exact"] if history else [0.0, 0.0]
    minutes_by_vendor = {}
    for interval in history:
        for stats in interval["stats"]:
            minutes_by_vendor[stats["vendor"]] = (minutes_by_vendor.get(stats["vendor"], 0.0)
                                                  + stats["total_minutes"])
    all_minutes = sum(minutes_by_vendor.values())
    summary = {
        "seed": config.seed,
        "admission_enabled": config.admission_enabled,
        "total_calls": len(arrivals),
        "abandoned_calls": abandoned,
        "closed_intervals": len(history),
        "final_targets": by_vendor_id(dict(zip(vendors, final))),
        "answered_calls": {str(v): answered[v] for v in vendors},
        "answered_minutes": {str(v): round(answered_minutes[v], 3) for v in vendors},
        "answered_minutes_share": by_vendor_id({
            v: round(minutes / all_minutes if all_minutes else 0.0, 6)
            for v, minutes in minutes_by_vendor.items()}),
    }
    return {
        "cdrs.csv": "".join(csv_lines([CDR_HEADER, *(
            [call_id, vendor, at(connect_s), at(connect_s + duration), duration, cause,
             int(was_refused)]
            for call_id, vendor, connect_s, duration, cause, was_refused in cdrs)])),
        "decisions.csv": "".join(csv_lines([DECISION_HEADER, *decisions])),
        **history_files(history, config.dest_prefix),
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }
