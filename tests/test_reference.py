"""``simulate`` and ``aggregate`` against the reference loops in
``reference.py``, byte for byte.

Each ``simulate`` case is a small random scenario drawn from its own
``random.Random(seed)``, written as a scenario file and run through
``main``; its five data files must equal the reference's. The scenarios vary
what the bundled ones hold fixed: vendor ids and which of the two is
preferred, both vendor kinds, failure codes and duration families, the
weak-route floor, the interval schedule, start times off the minute, across a
year end, on a leap day and in the year 999, prefixes that need quoting, and
admission turned off.

Each ``aggregate`` case is a random CDR log drawn from its own
``random.Random(seed)``, written with blank lines and out of order, and
replayed through ``main``; its two interval files must equal those of
``reference.replay``. The logs hold a third vendor, rows ending exactly on a
tick, minimum ages below the tick and off its multiples, and cross a year end
or a leap day.
"""

import json
import random
from datetime import datetime, timedelta

import pytest

import reference
from acdroute.aggregate import Schedule
from acdroute.cli import main
from acdroute.codec import encode, json_text
from acdroute.sim import DurationSpec, ScenarioConfig, VendorModel, VendorSpec
from conftest import make_cdr

CASES = 200
FILES = ["cdrs.csv", "decisions.csv", "acd_vendors.csv", "interval_history.json",
         "summary.json"]
STARTS = [datetime(2020, 1, 1), datetime(2021, 6, 15, 8, 17, 43),
          datetime(2020, 12, 31, 23, 31, 7), datetime(2024, 2, 29, 23, 5, 59),
          datetime(999, 12, 31, 22, 0, 0)]
PREFIXES = ["", "37410", "37,410", 'a"b', "a\rb"]


def random_duration(rng):
    family = rng.choice(["exponential", "uniform", "fixed"])
    if family == "exponential":
        return DurationSpec(family, mean_s=rng.choice([3.0, 20.0, 400.0]) * rng.uniform(0.5, 2))
    if family == "uniform":
        low = rng.choice([0.0, 4.5, 25.0])
        return DurationSpec(family, low_s=low, high_s=low + rng.choice([2.0, 10.0, 600.0]))
    return DurationSpec(family, value_s=rng.choice([0.0, 5.0, 6.0, 30.0, 31.0, 300.0]))


def random_model(rng):
    if rng.random() < 0.5:
        return VendorModel("honest", rng.uniform(0.0, 0.95), random_duration(rng),
                           failure_code=rng.choice([404, 480, 486, 503, 600]))
    return VendorModel("false_answer", rng.uniform(0.91, 1.0), random_duration(rng),
                       failure_code=rng.choice([408, 503]))


def random_config(seed):
    """A scenario of a few hundred calls at most, drawn from ``seed``."""
    rng = random.Random(seed)
    vendor_ids = rng.sample([0, 1, 7, 55, 62, 999, 123456], 2)
    prefs = rng.sample(range(1, 10), 2)
    start = rng.choice(STARTS)
    if rng.random() < 0.5:
        start += timedelta(seconds=rng.randrange(3600))
    return ScenarioConfig(
        seed=rng.randrange(10 ** 6),
        arrival_rate_per_min=rng.uniform(0.5, 8.0),
        duration_min=rng.uniform(20.0, 90.0),
        vendors=tuple(VendorSpec(v, p, random_model(rng)) for v, p in zip(vendor_ids, prefs)),
        load_min=rng.uniform(0.0, 0.4999),
        tick_period_min=rng.choice([37, 60, 150, 600]) / 60,
        min_interval_min=rng.choice([37, 120, 600, 1200]) / 60,
        min_calls=rng.choice([1, 3, 10, 20]),
        admission_enabled=rng.random() < 0.8,
        start_time=start,
        dest_prefix=rng.choice(PREFIXES),
    )


def first_difference(got, want):
    """The first line that differs between two texts, and its number."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for n, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            return f"line {n}: {a!r} != {b!r}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


@pytest.mark.parametrize("seed", range(CASES))
def test_simulate_writes_the_reference_files(tmp_path, capsys, seed):
    config = random_config(seed)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json_text(encode(config)), encoding="utf-8")
    assert ScenarioConfig.load(scenario) == config
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    for name, want in reference.simulate(config).items():
        got = (tmp_path / "out" / name).read_bytes().decode("utf-8")
        if got != want:
            pytest.fail(f"seed {seed}: {name}: {first_difference(got, want)}", pytrace=False)


def test_the_cases_cover_every_variation():
    seen = {key: 0 for key in [
        "preferred first", "preferred second", "honest", "false_answer", "exponential",
        "uniform", "fixed", "admission off", "year end", "leap day", "year 999",
        "off the minute", "prefix quoted", "closed interval", "refused attempt",
        "5 s leg", "abandoned call"]}
    for seed in range(CASES):
        config = random_config(seed)
        first, second = config.vendors
        seen["preferred first" if first.pref > second.pref else "preferred second"] += 1
        for spec in config.vendors:
            seen[spec.model.kind] += 1
            seen[spec.model.duration.family] += 1
        start = config.start_time
        seen["admission off"] += not config.admission_enabled
        seen["year end"] += (start.month, start.day) == (12, 31) and start.year > 999
        seen["leap day"] += (start.month, start.day) == (2, 29)
        seen["year 999"] += start.year == 999
        seen["off the minute"] += start.second != 0
        seen["prefix quoted"] += config.dest_prefix not in ("", "37410")
        files = reference.simulate(config)
        seen["closed interval"] += files["interval_history.json"] != "[]\n"
        seen["refused attempt"] += ",0,503\n" in files["decisions.csv"]
        seen["5 s leg"] += ",5,normal," in files["cdrs.csv"]
        seen["abandoned call"] += '"abandoned_calls": 0,' not in files["summary.json"]
    assert min(seen.values()) >= 10, seen


REPLAY_CASES = 80
# a replay's earliest connect time: on a plain day, before a year end, before
# a leap day and on one, so its ticks cross the date line
REPLAY_STARTS = [datetime(2021, 6, 15, 8, 17, 43), datetime(2020, 12, 31, 22, 47, 13),
                 datetime(2020, 2, 28, 23, 30, 0), datetime(2020, 2, 29, 22, 51, 5)]


def random_log(seed):
    """A CDR log drawn from ``seed``, and the ``aggregate`` flags to replay it
    with: a few hundred rows over up to three hours of three vendors, the
    third not in the group, some rows ending exactly on a tick, with a tick of
    one to ten minutes and a minimum age below it or off its multiples."""
    rng = random.Random(seed)
    vendors = rng.sample([0, 7, 55, 62, 999], 3)
    schedule = Schedule(rng.choice([60, 150, 600]), rng.choice([37, 60, 299, 601, 1200]),
                        rng.choice([1, 3, 10, 20]))
    start = rng.choice(REPLAY_STARTS)
    span_s = rng.randint(1800, 3 * 3600)
    # the first row fixes the tick grid: no other of the group connects earlier
    rows = [make_cdr("first", vendors[0], start + timedelta(seconds=30), 30)]
    for i in range(rng.randint(0, 300)):
        vendor = rng.choice(vendors[:2] * 3 + vendors[2:])
        rejected = rng.random() < 0.15
        duration = 0 if rejected else rng.choice(
            [0, rng.randint(1, 5), rng.randint(6, 30), rng.randint(31, 900)])
        if rng.random() < 0.2:
            end = start + timedelta(seconds=schedule.tick_period_s * rng.randint(
                -(-duration // schedule.tick_period_s) or 1, span_s // schedule.tick_period_s))
        else:
            end = start + timedelta(seconds=rng.randint(duration, span_s))
        if vendor == vendors[2]:
            end -= timedelta(seconds=rng.randint(0, 3600))  # before the grid, and ignored
        rows.append(make_cdr(f"r{i}", vendor, end, duration, rejected=rejected))
    rng.shuffle(rows)
    prefs = rng.sample(range(1, 10), 2)
    load_min = rng.uniform(0.0, 0.4999)
    flags = ["--vendors", f"{vendors[0]},{vendors[1]}", "--prefs", f"{prefs[0]},{prefs[1]}",
             "--load-min", repr(load_min), "--tick-min", repr(schedule.tick_period_s / 60),
             "--min-age-min", repr(schedule.min_age_s / 60),
             "--min-calls", str(schedule.min_calls)]
    return rows, vendors[:2], prefs, load_min, schedule, flags


def write_with_blank_lines(path, rows, rng):
    """``rows`` as a CDR file, with blank lines between some rows and at its
    end."""
    reference.write_cdr_csv(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(1, len(lines)), "\n")
    path.write_text("".join(lines), encoding="utf-8", newline="")


@pytest.mark.parametrize("seed", range(REPLAY_CASES))
def test_aggregate_writes_the_reference_files(tmp_path, capsys, seed):
    rows, vendors, prefs, load_min, schedule, flags = random_log(seed)
    cdr_csv = tmp_path / "cdrs.csv"
    write_with_blank_lines(cdr_csv, rows, random.Random(seed))
    assert main(["aggregate", "--cdr", str(cdr_csv), *flags,
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    for name, want in reference.replay(rows, vendors, prefs, load_min, schedule).items():
        got = (tmp_path / "out" / name).read_bytes().decode("utf-8")
        if got != want:
            pytest.fail(f"seed {seed}: {name}: {first_difference(got, want)}", pytrace=False)


def test_the_replay_cases_cover_every_variation(tmp_path):
    seen = {key: 0 for key in [
        "closed interval", "end on a closing tick", "age below the tick",
        "age off the tick's multiples", "blank line", "third vendor", "out of order",
        "closed in 2021", "closed on a leap day", "closed on March 1"]}
    for seed in range(REPLAY_CASES):
        rows, vendors, prefs, load_min, schedule, _ = random_log(seed)
        files = reference.replay(rows, vendors, prefs, load_min, schedule)
        history = json.loads(files["interval_history.json"])
        seen["closed interval"] += bool(history)
        closes = {interval["closed_at"] for interval in history}
        seen["end on a closing tick"] += any(
            reference.ts(r.disconnect_time) in closes for r in rows if r.vendor in vendors)
        seen["age below the tick"] += schedule.min_age_s < schedule.tick_period_s
        seen["age off the tick's multiples"] += bool(schedule.min_age_s
                                                     % schedule.tick_period_s)
        path = tmp_path / "cdrs.csv"
        write_with_blank_lines(path, rows, random.Random(seed))
        seen["blank line"] += "\n\n" in path.read_text(encoding="utf-8")
        seen["third vendor"] += any(r.vendor not in vendors for r in rows)
        ends = [r.disconnect_time for r in rows]
        seen["out of order"] += ends != sorted(ends)
        seen["closed in 2021"] += any(c.startswith("2021-01-01 ") for c in closes)
        seen["closed on a leap day"] += any(c.startswith("2020-02-29 ") for c in closes)
        seen["closed on March 1"] += any(c.startswith("2020-03-01 ") for c in closes)
    assert min(seen.values()) >= 5, seen
