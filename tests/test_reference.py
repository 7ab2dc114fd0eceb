"""``simulate`` against the reference loop in ``reference.py``, byte for byte.

Each case is a small random scenario drawn from its own
``random.Random(seed)``, written as a scenario file and run through
``main``; its five data files must equal the reference's. The scenarios vary
what the bundled ones hold fixed: vendor ids and which of the two is
preferred, both vendor kinds, failure codes and duration families, the
weak-route floor, the interval schedule, start times off the minute, across a
year end, on a leap day and in the year 999, prefixes that need quoting, and
admission turned off.
"""

import random
from datetime import datetime, timedelta

import pytest

import reference
from acdroute.cli import main
from acdroute.codec import encode, json_text
from acdroute.sim import DurationSpec, ScenarioConfig, VendorModel, VendorSpec

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
