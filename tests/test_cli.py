import csv
import dataclasses
import gc
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from array import array
from datetime import datetime, timedelta
from pathlib import Path
from typing import List

import pytest

from acdroute.aggregate import ClosedInterval, Schedule
from acdroute.cli import main
from acdroute.codec import decode
from acdroute.sim import ScenarioConfig, run_scenario
from acdroute.store import (DECISION_CSV_HEADER, SEND_BLOCK, acd_csv_text, attempt_log,
                            cdr_row, read_cdr_csv)
from conftest import (T0, as_read, assert_rows_equal, make_cdr, read_acd_csv, record_sink,
                      use_row_writer)
from reference import cdr_lines, write_cdr_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
# billing's order of the blocks the tests hand ``attempt_log``
VENDORS = (55, 62)


def package_env(**extra):
    """The environment of a child Python that imports this checkout's package."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (str(SCENARIOS.parent.parent / "src"), os.environ.get("PYTHONPATH")) if p))

STRONG_ROW = [0] * 17 + [25] + [851] * 9 + [854]
WEAK_ROW = [0] * 5 + [10, 20] + [816] * 8


def interval_records():
    """One closeable interval: every call starts and ends within 20 minutes
    of the earliest connect time, which anchors the replay's tick grid."""
    records = []
    i = 0
    for vendor, durations in ((55, STRONG_ROW), (62, WEAK_ROW)):
        for j, duration in enumerate(durations):
            connect = T0 + timedelta(seconds=(i * 7) % 300)
            records.append(
                make_cdr(f"f{vendor}-{j:03d}", vendor,
                         connect + timedelta(seconds=duration), duration)
            )
            i += 1
    return records


@pytest.fixture(autouse=True)
def acd_files_hold_pairs(tmp_path):
    """Every acd_vendors file a test's commands write holds whole pairs."""
    yield
    for path in tmp_path.rglob("acd_vendors.csv"):
        read_acd_csv(path)


def assert_renders(path: Path, history_path: Path, prefix=""):
    """The acd_vendors file at ``path`` is the rendering of the interval
    history saved beside it; its data rows, as ``csv`` splits them."""
    history = decode(List[ClosedInterval], json.loads(history_path.read_text()))
    assert history, history_path
    assert path.read_bytes() == acd_csv_text(history, prefix).encode("utf-8")
    return read_acd_csv(path)


def snapshot_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


class TestCompute:
    def test_reference_pair(self, capsys):
        assert main(["compute", "--acd", "8.67,0.6", "--pref", "9,8"]) == 0
        out = capsys.readouterr().out
        assert "reject_pct: 12.77 / 0.00" in out
        assert "12.8%" in out and "6.9%" in out

    def test_equal_quality(self, capsys):
        assert main(["compute", "--acd", "5,5", "--pref", "9,8"]) == 0
        assert "reject_pct: 50.00 / 0.00" in capsys.readouterr().out

    def test_weak_preferred_loads(self, capsys):
        assert main(["compute", "--acd", "0.17,0.79", "--pref", "9,8"]) == 0
        out = capsys.readouterr().out
        assert "18.6%" in out and "81.4%" in out

    def test_writes_calc_files(self, tmp_path, capsys):
        out = tmp_path / "calc"
        assert main(["compute", "--acd", "8.67,0.6", "--pref", "9,8",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "calc.txt").exists() and (out / "calc.html").exists()

    def test_bad_pair_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--acd", "8.67", "--pref", "9,8"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_equal_prefs_is_usage_error(self, capsys):
        assert main(["compute", "--acd", "8.67,0.6", "--pref", "9,9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


def _write_interval_csv(path: Path, shuffle_seed=None):
    cdrs = interval_records()
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(cdrs)
    write_cdr_csv(path, cdrs)


class TestAggregate:
    def test_reference_interval(self, tmp_path, capsys):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        out = tmp_path / "out"
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(out)]) == 0
        assert "1 closed interval(s) from 43 records" in capsys.readouterr().out
        rows = assert_renders(out / "acd_vendors.csv", out / "interval_history.json")
        assert rows[0][1] == "55"
        assert float(rows[0][3]) == pytest.approx(12.94, abs=0.01)
        assert float(rows[1][3]) == pytest.approx(10.93, abs=0.01)
        table = (out / "interval_table.csv").read_text(encoding="utf-8")
        assert "12.94" in table and "10.93" in table

    def test_close_times_on_stdout_pad_a_year_before_1000(self, tmp_path, capsys):
        # each close printed is its acd_vendors date to the minute, the year
        # written with four digits as in the file
        start = datetime(999, 12, 31, 22, 0, 0)
        cdr_csv = tmp_path / "cdrs.csv"
        write_cdr_csv(cdr_csv, [make_cdr(f"c{i}", (62, 55)[i % 2],
                                         start + timedelta(seconds=60 * i + 30), 30)
                                for i in range(60)])
        out = tmp_path / "out"
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(out)]) == 0
        printed = [line.split(" -> ")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        dates = [row[2][:16] for row in read_acd_csv(out / "acd_vendors.csv")[::2]]
        assert printed == [f"  closed {date}" for date in dates]
        assert dates[0] == "0999-12-31 22:20"

    def test_shuffled_input_gives_identical_output(self, tmp_path, capsys):
        sorted_csv = tmp_path / "sorted.csv"
        shuffled_csv = tmp_path / "shuffled.csv"
        _write_interval_csv(sorted_csv)
        _write_interval_csv(shuffled_csv, shuffle_seed=99)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["aggregate", "--cdr", str(sorted_csv), "--prefs", "9,8",
                     "--out", str(out_a)]) == 0
        assert main(["aggregate", "--cdr", str(shuffled_csv), "--prefs", "9,8",
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert snapshot_dir(out_a) == snapshot_dir(out_b)

    def test_empty_csv_succeeds_with_no_intervals(self, tmp_path, capsys):
        cdr_csv = tmp_path / "empty.csv"
        cdr_csv.write_text(
            "call_id,vendor,connect_time,disconnect_time,duration_s,cause,rejected\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(out)]) == 0
        assert "0 closed intervals" in capsys.readouterr().out

    def test_malformed_rows_fail_with_line_diagnostics(self, tmp_path, capsys):
        cdr_csv = tmp_path / "bad.csv"
        cdr_csv.write_text(
            "call_id,vendor,connect_time,disconnect_time,duration_s,cause,rejected\n"
            "ok,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,normal,0\n"
            "bad,55,not-a-time,2020-01-01 00:01:00,0,normal,0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert ":3:" in err and "timestamp" in err

    def test_each_row_error_is_one_line(self, tmp_path, capsys):
        # quoted call ids holding a line feed and a carriage return
        cdr_csv = tmp_path / "bad.csv"
        cdr_csv.write_text(
            "call_id,vendor,connect_time,disconnect_time,duration_s,cause,rejected\n"
            '"a\nb",55,2020-01-01 00:01:00,2020-01-01 00:00:59,0,normal,0\n'
            '"c\rd",55,2020-01-01 00:00:00,2020-01-01 00:00:30,29,normal,0\n',
            encoding="utf-8", newline="")
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{cdr_csv}:2: 'a\\nb': disconnect_time precedes connect_time",
            f"{cdr_csv}:4: 'c\\rd': duration_s=29 does not match timestamps (30s apart)",
        ]

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["aggregate", "--cdr", str(tmp_path / "nope.csv"),
                     "--prefs", "9,8", "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("minutes", [None, (5, 15, 7), (0.1, 0.25, 1)],
                             ids=["defaults", "custom", "fractional"])
    def test_scenario_and_flags_build_one_schedule(self, tmp_path, capsys, monkeypatch,
                                                   minutes):
        config = ScenarioConfig.load(SCENARIOS / "honest_vs_fas.json")
        flags = []
        if minutes is not None:
            tick_min, min_age_min, min_calls = minutes
            config = dataclasses.replace(config, tick_period_min=tick_min,
                                         min_interval_min=min_age_min, min_calls=min_calls)
            flags = ["--tick-min", str(tick_min), "--min-age-min", str(min_age_min),
                     "--min-calls", str(min_calls)]
        schedules = []
        monkeypatch.setattr("acdroute.cli.replay_cdrs",
                            lambda records, group, schedule: schedules.append(schedule) or [])
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", *flags,
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert schedules == [config.schedule]
        if minutes is None:
            assert config.schedule == Schedule(600, 1200, 20)


class TestSimulate:
    def test_runs_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIOS / "honest_vs_fas.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("cdrs.csv", "acd_vendors.csv", "decisions.csv",
                     "interval_history.json", "interval_table.html",
                     "interval_table.csv", "interval_table.json", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["closed_intervals"] >= 6
        assert summary["final_targets"]["71"] == pytest.approx(87.23, abs=3.0)

    def test_bundled_healthy_scenario_settles_near_reference_target(
        self, tmp_path, capsys
    ):
        out = tmp_path / "healthy"
        assert main(["simulate", "--scenario", str(SCENARIOS / "preferred_honest.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_targets"]["55"] == pytest.approx(12.8, abs=2.0)
        assert summary["final_targets"]["62"] == 0.0

    def test_seed_override_changes_output(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        scenario = str(SCENARIOS / "pure_fas_control.json")
        assert main(["simulate", "--scenario", scenario, "--out", str(out_a)]) == 0
        assert main(["simulate", "--scenario", scenario, "--seed", "123",
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert snapshot_dir(out_a) != snapshot_dir(out_b)

    def test_disable_admission_sends_all_calls_to_preferred(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                     "--disable-admission", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["answered_calls"]["72"] == 0
        assert summary["answered_calls"]["71"] == summary["total_calls"]
        assert summary["answered_minutes_share"]["71"] == 1.0

    def test_start_before_year_1000_reads_back(self, tmp_path, capsys):
        config = json.loads((SCENARIOS / "pure_fas_control.json").read_text())
        config["start_time"] = "0999-01-01 00:00:00"
        scenario = tmp_path / "year999.json"
        scenario.write_text(json.dumps(config), encoding="utf-8")
        run_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(run_dir)]) == 0
        agg_dir = tmp_path / "agg"
        assert main(["aggregate", "--cdr", str(run_dir / "cdrs.csv"), "--prefs", "9,8",
                     "--vendors", "71,72", "--out", str(agg_dir)]) == 0
        for history in (run_dir, agg_dir):
            assert main(["report", "--history", str(history / "interval_history.json"),
                         "--out", str(tmp_path / "report")]) == 0
        capsys.readouterr()
        # the year is zero-padded, as parse_ts reads it
        assert "\nc000001,71,0999-01-01 00:00:" in (run_dir / "cdrs.csv").read_text()

    @pytest.mark.parametrize("name", ["honest_vs_fas", "preferred_honest", "pure_fas_control"])
    def test_acd_vendors_file_renders_the_history(self, tmp_path, capsys, name):
        # at a seed the golden hashes do not pin; aggregate on the run's CDRs too
        config = json.loads((SCENARIOS / f"{name}.json").read_text())
        vendors, prefs = zip(*((str(v["vendor"]), str(v["pref"])) for v in config["vendors"]))
        run_dir, agg_dir = tmp_path / "run", tmp_path / "agg"
        assert main(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"),
                     "--seed", "7", "--out", str(run_dir)]) == 0
        assert main(["aggregate", "--cdr", str(run_dir / "cdrs.csv"),
                     "--vendors", ",".join(vendors), "--prefs", ",".join(prefs),
                     "--prefix", config["dest_prefix"], "--out", str(agg_dir)]) == 0
        capsys.readouterr()
        for out in (run_dir, agg_dir):
            assert_renders(out / "acd_vendors.csv", out / "interval_history.json",
                           config["dest_prefix"])

    @pytest.mark.parametrize("prefix", ['37\r\n4,1"0', "\r"], ids=["crlf-comma-quote", "cr"])
    def test_awkward_prefix_renders_and_reads_back(self, tmp_path, capsys, prefix):
        # the prefix is free text: simulate takes it from the scenario and
        # aggregate from --prefix, and both files read back with it whole
        config = json.loads((SCENARIOS / "preferred_honest.json").read_text())
        config["dest_prefix"] = prefix
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config), encoding="utf-8")
        run_dir, agg_dir = tmp_path / "run", tmp_path / "agg"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(run_dir)]) == 0
        assert main(["aggregate", "--cdr", str(run_dir / "cdrs.csv"), "--prefs", "9,8",
                     "--prefix", prefix, "--out", str(agg_dir)]) == 0
        capsys.readouterr()
        for out in (run_dir, agg_dir):
            rows = assert_renders(out / "acd_vendors.csv", out / "interval_history.json", prefix)
            assert {row[5] for row in rows} == {prefix}

    def test_nul_in_prefix(self, tmp_path, capsys):
        # 3.10's csv.writer refuses a NUL: both commands end with exit 2 and
        # one line, writing nothing; later versions write it as other text
        config = json.loads((SCENARIOS / "preferred_honest.json").read_text())
        config["dest_prefix"], config["duration_min"] = "a\0b", 60
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config), encoding="utf-8")
        cdrs = tmp_path / "cdrs.csv"
        write_cdr_csv(cdrs, interval_records())
        run_dir, agg_dir = tmp_path / "run", tmp_path / "agg"
        codes = [main(["simulate", "--scenario", str(scenario), "--out", str(run_dir)]),
                 main(["aggregate", "--cdr", str(cdrs), "--prefs", "9,8",
                       "--prefix", "a\0b", "--out", str(agg_dir)])]
        if sys.version_info < (3, 11):
            assert codes == [2, 2]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all(line.startswith("error: ") for line in err), err
            assert not run_dir.exists() and not agg_dir.exists()
        else:
            assert codes == [0, 0]
            capsys.readouterr()
            for out in (run_dir, agg_dir):
                rows = assert_renders(out / "acd_vendors.csv", out / "interval_history.json",
                                      "a\0b")
                assert {row[5] for row in rows} == {"a\0b"}

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config["vendors"][0]["pref"] = 8  # equal preferences
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["cdrs.csv", "decisions.csv"])
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_disk_mid_run_is_runtime_error(self, tmp_path, capsys, name):
        # every write to /dev/full fails with ENOSPC, so the sink's first
        # buffer flush raises mid-run; both files must still be closed
        scenario = str(SCENARIOS / "pure_fas_control.json")
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        assert main(["simulate", "--scenario", scenario, "--seed", "7",
                     "--out", str(reused)]) == 0
        capsys.readouterr()
        (reused / name).unlink()
        for out in (fresh, reused):
            (out / name).symlink_to("/dev/full")
            assert main(["simulate", "--scenario", scenario, "--seed", "9",
                         "--out", str(out)]) == 1
            assert_one_line_error(capsys)
            gc.collect()
            # nothing the seed-7 run wrote after its run is left beside the
            # seed-9 run's partial files
            assert sorted(p.name for p in out.iterdir()) == ["cdrs.csv", "decisions.csv"]

    def test_sink_error_closes_both_files(self, tmp_path, capsys, monkeypatch):
        calls = []

        def failing_row(*fields):
            calls.append(fields)
            if len(calls) == 500:
                raise OSError("disk quota exceeded")
            return cdr_row(*fields)

        monkeypatch.setattr("acdroute.store.cdr_row", failing_row)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk quota exceeded\n"
        gc.collect()
        # the rows made before the error are written, as whole rows: 499
        # attempts under each header
        cdr_text = (out / "cdrs.csv").read_text(encoding="utf-8")
        assert cdr_text.endswith("\n") and len(cdr_text.splitlines()) == 500
        with open(out / "decisions.csv", newline="", encoding="utf-8") as handle:
            decisions = list(csv.reader(handle))
        assert decisions[0] == DECISION_CSV_HEADER
        assert [row[0] for row in decisions[1:]] == [str(seq) for seq in range(499)]
        assert {len(row) for row in decisions} == {len(DECISION_CSV_HEADER)}
        assert (out / "decisions.csv").read_bytes().endswith(b"\n")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_streamed_files_equal_the_batch_rendering(tmp_path, capsys, scenario):
    # simulate writes each row as it is made; the run's records, collected
    # and then written by the reference writer, give the same rows
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    attempts = []
    config = dataclasses.replace(ScenarioConfig.load(scenario), seed=3)
    run_scenario(config, on_attempts=record_sink(attempts, config))
    batch = tmp_path / "cdrs.csv"
    write_cdr_csv(batch, [record for record, _ in attempts])
    assert_rows_equal((out / "cdrs.csv").read_text(encoding="utf-8").splitlines(keepends=True),
                      batch.read_text(encoding="utf-8").splitlines(keepends=True))
    # the decision rows, spelt out field by field
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(DECISION_CSV_HEADER)
    for seq, (record, t_s) in enumerate(attempts):
        rejected = record.rejected_by_router
        writer.writerow([seq, f"{t_s:.3f}", record.call_id, record.vendor,
                         0 if rejected else 1, 503 if rejected else ""])
    assert_rows_equal(
        (out / "decisions.csv").read_text(encoding="utf-8").splitlines(keepends=True),
        buffer.getvalue().splitlines(keepends=True))


@pytest.mark.parametrize("admission", [True, False], ids=["admission", "no-admission"])
def test_streamed_rows_equal_the_sinks_records(tmp_path, capsys, monkeypatch, admission):
    # what no bundled scenario has: a start off the minute, legs across
    # midnight into a new year or off a leap day, a start with microseconds
    # (which a scenario file cannot hold, so the loaded config is given it),
    # and a prefix that needs quoting. simulate's sink renders each row from
    # the block it is handed; ``record_sink`` builds each record from the
    # same block, decoded by the tests' own decoder
    config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
    config.update(duration_min=60, dest_prefix='37,"410"')
    scenario = tmp_path / "late_evening.json"
    scenario.write_text(json.dumps(config), encoding="utf-8")
    load = ScenarioConfig.load
    for start in (datetime(2020, 12, 31, 23, 47, 13), datetime(2020, 2, 29, 23, 47, 13, 250_000)):
        monkeypatch.setattr(ScenarioConfig, "load", classmethod(
            lambda cls, path: dataclasses.replace(load(path), start_time=start)))
        out = tmp_path / f"run-{start:%m-%d}"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                     *([] if admission else ["--disable-admission"])]) == 0
        capsys.readouterr()
        attempts = []
        config = dataclasses.replace(ScenarioConfig.load(scenario), admission_enabled=admission)
        result = run_scenario(config, on_attempts=record_sink(attempts, config))
        records = [record for record, _ in attempts]
        assert records[0].connect_time.microsecond == start.microsecond
        assert_rows_equal(
            (out / "cdrs.csv").read_text(encoding="utf-8").splitlines(keepends=True)[1:],
            cdr_lines(records))
        # every row reads back, so each passed the reader's checks: a calendar
        # time, a disconnect not before its connect, a span equal to the
        # duration; a file holds whole seconds, as ``as_read`` floors them
        assert read_cdr_csv(out / "cdrs.csv") == (as_read(records), [])
        assert {row[5] for row in read_acd_csv(out / "acd_vendors.csv")} == {'37,"410"'}
        # the case is there: an answered leg from the start's day into the
        # next (a new year, or March 1), an interval closed, and with
        # admission on a refused attempt
        assert any(r.connect_time.date() == start.date() < r.disconnect_time.date()
                   for r in records)
        assert result.interval_history
        assert any(r.rejected_by_router for r in records) == admission


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_decision_rows_align_with_cdr_rows(tmp_path, capsys, scenario, seed):
    # row i of decisions.csv is the clone interface's decision on the attempt
    # of row i of cdrs.csv; time_s is the call's time, written to 3 places, so
    # it may round up to the second after the connect second (59.9996 -> 60.000)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--seed", str(seed),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    start = ScenarioConfig.load(scenario).start_time
    with open(out / "decisions.csv", newline="", encoding="utf-8") as handle:
        decisions = list(csv.DictReader(handle))
    with open(out / "cdrs.csv", newline="", encoding="utf-8") as handle:
        cdrs = list(csv.DictReader(handle))
    assert len(decisions) == len(cdrs) > 0
    for i, (decision, cdr) in enumerate(zip(decisions, cdrs)):
        assert decision["seq"] == str(i)
        assert (decision["call_id"], decision["vendor"]) == (cdr["call_id"], cdr["vendor"])
        assert decision["accepted"] == str(1 - int(cdr["rejected"]))
        assert decision["code"] == ("503" if cdr["rejected"] == "1" else "")
        connect_offset_s = (datetime.fromisoformat(cdr["connect_time"]) - start).total_seconds()
        assert 0 <= float(decision["time_s"]) - connect_offset_s <= 1, (i, decision, cdr)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["simulate", "compute"])
def test_closed_stdout_exits_1_after_every_file(tmp_path, capsys, command, unbuffered):
    # as in `acdroute ... | head -0`: stdout is a pipe that nobody reads. The
    # command writes every file it would write otherwise, then exits 1 with
    # nothing on stderr, whether stdout is buffered or not
    def args(out):
        if command == "compute":
            return ["compute", "--acd", "8.67,0.6", "--pref", "9,8", "--out", str(out)]
        return ["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                "--out", str(out)]

    env = package_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "acdroute.cli", *args(tmp_path / "piped")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
    assert main(args(tmp_path / "read")) == 0
    capsys.readouterr()
    assert snapshot_dir(tmp_path / "piped") == snapshot_dir(tmp_path / "read")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_broken_pipe_on_an_output_file_names_its_error(tmp_path):
    # cdrs.csv is a FIFO whose reader leaves after 100 bytes: the next write
    # to it fails with EPIPE, which is an error of the command, not a closed
    # stdout, so it gets its error line
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "cdrs.csv")
    env = package_env()
    reader = subprocess.Popen([sys.executable, "-c",
                               "import sys; open(sys.argv[1], 'rb').read(100)",
                               str(out / "cdrs.csv")])
    try:
        done = subprocess.run([sys.executable, "-m", "acdroute.cli", "simulate", "--scenario",
                               str(SCENARIOS / "pure_fas_control.json"), "--out", str(out)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        reader.kill()
        reader.wait()
    assert (done.returncode, done.stderr, done.stdout) == (
        1, b"error: [Errno 32] Broken pipe\n", b"")


class TestReport:
    def test_renders_saved_history(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                     "--out", str(run_dir)]) == 0
        out = tmp_path / "report"
        assert main(["report", "--history", str(run_dir / "interval_history.json"),
                     "--out", str(out), "--formats", "html,csv"]) == 0
        capsys.readouterr()
        assert (out / "interval_table.html").exists()
        assert (out / "interval_table.csv").exists()
        assert not (out / "interval_table.json").exists()
        # re-rendering reproduces the simulate-time rendering byte for byte
        assert (out / "interval_table.csv").read_bytes() == (
            run_dir / "interval_table.csv"
        ).read_bytes()

    def test_unknown_format_is_validation_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                     "--out", str(run_dir)]) == 0
        assert main(["report", "--history", str(run_dir / "interval_history.json"),
                     "--out", str(tmp_path / "x"), "--formats", "pdf"]) == 2
        capsys.readouterr()


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestMalformedInput:
    """Wrong-typed or unrepresentable input ends with exit 2 and one line."""

    @pytest.mark.parametrize("field, value", [
        ("admission_enabled", "false"),   # bool("false") would be True
        ("vendors", "x"),
        ("seed", "7"),
        ("tick_period_min", 10.004),      # not a whole number of seconds
        ("min_interval_min", 20.0001),
        ("min_interval_min", -10.0),      # the interval schedule rule
        ("min_calls", 0),
        ("tick_period_min", 1e300),       # longer than a timedelta holds
        ("min_interval_min", 1e300),
        ("arrival_rate_per_min", 1e12),   # more calls than a run holds
        ("arrival_rate_per_min", 5e-324),  # positive, but 0 calls a second
    ])
    def test_bad_scenario_field(self, tmp_path, capsys, monkeypatch, field, value):
        # a scenario that got through would run; the huge one until memory ran out
        monkeypatch.setattr("acdroute.cli.run_scenario",
                            lambda *args, **kwargs: pytest.fail("the scenario was run"))
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        # refused when the scenario is read, before a row is written
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_misspelt_vendor_model_key(self, tmp_path, capsys):
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config["vendors"][1]["model"]["anser_prob"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("mangle", [
        lambda history: [{k: v for k, v in history[0].items() if k != "result"}],
        lambda history: history[0],
        lambda history: [dict(history[0], closed_at=17)],
        # int() would read these as vendors 55 and 62, and "071" as vendor 71
        lambda history: [dict(history[0], received={"+5_5": 3, " 62": 1})],
        lambda history: [dict(history[0], received={"071": 3, "72": 1})],
        # finite, but a hundredfold of it, the table's percent, is not
        lambda history: [dict(history[0], result=dict(history[0]["result"],
                                                      load=[1e307, 0.0]))],
    ], ids=["entry-without-result", "object-not-list", "number-for-timestamp",
            "lenient-vendor-keys", "zero-padded-vendor-key", "huge-load"])
    def test_bad_history(self, tmp_path, capsys, mangle):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIOS / "pure_fas_control.json"),
                     "--out", str(run_dir)]) == 0
        history = json.loads((run_dir / "interval_history.json").read_text())
        bad = tmp_path / "bad_history.json"
        bad.write_text(json.dumps(mangle(history)), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--history", str(bad), "--out", str(tmp_path / "rep")]) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("flag, value", [("--tick-min", "10.004"),
                                             ("--min-age-min", "20.001")])
    def test_fractional_second_periods_on_aggregate(self, tmp_path, capsys, flag, value):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", flag, value,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--prefs", "9,9"],
                                       ["--prefs", "9,8", "--load-min", "0.7"],
                                       ["--prefs", "9,8", "--vendors", "5,5"],
                                       ["--prefs", "9,8", "--vendors=-1,5"]],
                             ids=["equal-prefs", "floor-above-half", "equal-vendors",
                                  "negative-vendor"])
    def test_bad_route_flags_on_header_only_csv(self, tmp_path, capsys, flags):
        cdr_csv = tmp_path / "empty.csv"
        write_cdr_csv(cdr_csv, [])
        assert main(["aggregate", "--cdr", str(cdr_csv), *flags,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("acd", ["nan,1", "inf,1", "1e400,1", "inf,inf", "1,-inf"])
    def test_non_finite_acd_on_compute(self, capsys, acd):
        assert main(["compute", f"--acd={acd}", "--pref", "9,8"]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("rows, flags", [
        ("records", ["--min-age-min", "-10"]),
        ("records", ["--min-age-min", "0"]),
        ("records", ["--min-calls", "0"]),
        ("records", ["--min-calls", "-3"]),
        ("header-only", ["--tick-min", "0"]),
        ("header-only", ["--min-calls", "0"]),
        # whole numbers of seconds, but longer than a timedelta holds
        ("records", ["--tick-min", "1e300"]),
        ("records", ["--min-age-min", "1e300"]),
    ], ids=["negative-age", "zero-age", "zero-calls", "negative-calls",
            "header-only-zero-tick", "header-only-zero-calls", "huge-tick", "huge-age"])
    def test_bad_schedule_flags_on_aggregate(self, tmp_path, capsys, rows, flags):
        cdr_csv = tmp_path / "cdrs.csv"
        if rows == "records":
            _write_interval_csv(cdr_csv)
        else:
            write_cdr_csv(cdr_csv, [])
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", *flags,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: interval schedule needs ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, params", [
        ("uniform", {"mean_min": 8.67}),          # would load as uniform(0, 0)
        ("exponential", {"mean_s": 36.0, "value_s": 5.0}),
        ("fixed", {"value_s": 30.0, "high_s": 60.0}),
    ], ids=["uniform-mean", "exponential-value", "fixed-high"])
    def test_duration_param_the_family_does_not_use(self, tmp_path, capsys, family, params):
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config["vendors"][1]["model"]["duration"] = {"family": family, **params}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("formats", [",", ""], ids=["comma", "empty"])
    def test_empty_report_format_list(self, tmp_path, capsys, formats):
        history = tmp_path / "interval_history.json"
        history.write_text("[]", encoding="utf-8")
        assert main(["report", "--history", str(history), "--out", str(tmp_path / "rep"),
                     "--formats", formats]) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "rep").exists()

    def test_run_past_year_9999_on_simulate(self, tmp_path, capsys):
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config.update(start_time="9999-12-31 23:00:00", duration_min=120)
        late = tmp_path / "late.json"
        late.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(late), "--out", str(out)]) == 2
        # refused when the scenario is read: the message names the file, and
        # not one row of the run is written
        err = capsys.readouterr().err
        assert err.startswith(f"error: {late}: ") and err.count("\n") == 1, err
        assert not (out / "cdrs.csv").exists()

    def test_call_leg_past_year_9999_on_simulate(self, tmp_path, capsys):
        # the scenario ends before the year 10000, but an answered leg of a
        # late call does not
        config = json.loads((SCENARIOS / "preferred_honest.json").read_text())
        config.update(start_time="9999-12-31 22:00:00", duration_min=119)
        late = tmp_path / "late.json"
        late.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(late), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {late}: a call leg ends past the year 9999\n", err

    @pytest.mark.parametrize("rows, flags", [
        ("year-9999", []),
        ("records", ["--tick-min", "1e10"]),
        ("records", ["--min-age-min", "1e10"]),
    ], ids=["cdrs-end-in-year-9999", "huge-tick", "huge-age"])
    def test_unrepresentable_time_on_aggregate(self, tmp_path, capsys, rows, flags):
        cdr_csv = tmp_path / "cdrs.csv"
        if rows == "records":
            _write_interval_csv(cdr_csv)
        else:
            end = datetime(9999, 12, 31, 23, 50, 10)
            write_cdr_csv(cdr_csv, [make_cdr("a", 55, end, 10), make_cdr("b", 62, end, 20)])
        out = tmp_path / "out"
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", *flags,
                     "--out", str(out)]) == 2
        # each period fits a timedelta, but a tick of the schedule would fall
        # after the last datetime: the message names the file and says so
        err = capsys.readouterr().err
        assert err == f"error: {cdr_csv}: the tick schedule runs past the year 9999\n", err
        assert not out.exists()

    def test_schedule_ending_in_year_9999_on_aggregate(self, tmp_path, capsys):
        # one call a minute from 22:00 on the last day: every tick the replay
        # needs falls before the year 10000, so the log replays as usual
        start = datetime(9999, 12, 31, 22, 0, 0)
        cdr_csv = tmp_path / "cdrs.csv"
        write_cdr_csv(cdr_csv, [make_cdr(f"c{i}", (62, 55)[i % 2],
                                         start + timedelta(seconds=60 * i + 30), 30)
                                for i in range(60)])
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(tmp_path / "out")]) == 0
        assert "3 closed interval(s) from 60 records" in capsys.readouterr().out

    def test_replay_horizon_in_year_9999_on_aggregate(self, tmp_path, capsys):
        # the last call ends at 23:29:30 on the last day: the replay's horizon,
        # 30 min later, is the last tick it can need, and it falls before the
        # year 10000, though the tick after it would not
        start = datetime(9999, 12, 31, 22, 0, 0)
        cdr_csv = tmp_path / "cdrs.csv"
        write_cdr_csv(cdr_csv, [make_cdr(f"c{i}", (62, 55)[i % 2],
                                         start + timedelta(seconds=60 * i + 30), 30)
                                for i in range(90)])
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "4 closed interval(s) from 90 records" in out
        assert out.endswith("  closed 9999-12-31 23:20 -> 55: reject 50.00%, 62: reject 0.00%\n")

    def test_field_over_the_csv_size_limit(self, tmp_path, capsys):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        with open(cdr_csv, "a", encoding="utf-8") as handle:
            handle.write("x" * 200_000 + ",55\n")
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    def test_cdr_file_not_utf8_on_aggregate(self, tmp_path, capsys):
        # past the reader's first decoded chunk, so the error is not on line 1
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        with open(cdr_csv, "ab") as handle:
            handle.write(b"ok,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,normal,0\n" * 200
                         + b"c\xff,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,normal,0\n")
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cdr_csv}: not UTF-8") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [b"[" * 100_000, b"{\n", b'\xff{"seed": 1}'],
                             ids=["deeply-nested", "truncated", "not-utf8"])
    @pytest.mark.parametrize("command, flag", [("simulate", "--scenario"),
                                               ("report", "--history")])
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, command, flag, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert main([command, flag, str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_tenth_of_a_minute_is_six_seconds(self, tmp_path, capsys):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--tick-min", "0.1", "--min-age-min", "0.1",
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()


def _group_members(pgid):
    """The pids of the processes in process group ``pgid`` that have not
    ended: a zombie counts as ended, as no process may be left to reap it."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                state, _, group = stat.read().rpartition(b")")[2].split()[:3]
        except (OSError, ValueError):  # not a process, or one that just ended
            continue
        if int(group) == pgid and state != b"Z":
            members.append(int(entry))
    return members


class TestRowWriter:
    """``simulate`` renders its two logs in a forked writer process where it
    may run on two or more CPUs, else in its own process: each way of
    failing ends alike on both, with the same rows written, and leaves no
    process (``no_child_process_left`` checks after every test)."""

    @staticmethod
    def simulate(out, scenario="pure_fas_control.json"):
        return main(["simulate", "--scenario", str(SCENARIOS / scenario), "--out", str(out)])

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_disk(self, tmp_path, capsys, row_writer):
        out = tmp_path / "out"
        out.mkdir()
        (out / "cdrs.csv").symlink_to("/dev/full")
        assert self.simulate(out) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_sink_error(self, tmp_path, capsys, monkeypatch, row_writer):
        calls = []

        def failing_row(*fields):
            calls.append(fields)
            if len(calls) == 500:
                raise OSError("disk quota exceeded")
            return cdr_row(*fields)

        monkeypatch.setattr("acdroute.store.cdr_row", failing_row)
        assert self.simulate(tmp_path) == 1
        assert capsys.readouterr().err == "error: disk quota exceeded\n"
        # 499 attempts under each header, in either process
        for name in ("cdrs.csv", "decisions.csv"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text.endswith("\n") and len(text.splitlines()) == 500

    def test_call_leg_past_year_9999(self, tmp_path, capsys, row_writer):
        config = json.loads((SCENARIOS / "preferred_honest.json").read_text())
        config.update(start_time="9999-12-31 22:00:00", duration_min=119)
        late = tmp_path / "late.json"
        late.write_text(json.dumps(config), encoding="utf-8")
        assert self.simulate(tmp_path / "out", late) == 2
        assert capsys.readouterr().err == f"error: {late}: a call leg ends past the year 9999\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_broken_pipe_on_an_output_file(self, tmp_path, capsys, row_writer):
        # cdrs.csv is a FIFO whose reader leaves after 100 bytes
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "cdrs.csv")
        reader = subprocess.Popen([sys.executable, "-c",
                                   "import sys; open(sys.argv[1], 'rb').read(100)",
                                   str(out / "cdrs.csv")])
        try:
            code = self.simulate(out)
        finally:
            reader.kill()
            reader.wait()
        assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")

    def test_a_writer_ended_by_a_signal_fails_the_run(self, tmp_path, capsys, monkeypatch):
        use_row_writer(monkeypatch, True)
        run_pid = os.getpid()

        def killed_row(*fields):
            if os.getpid() != run_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("a row rendered in the run's process")

        monkeypatch.setattr("acdroute.store.cdr_row", killed_row)
        assert self.simulate(tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error: the row writer ended with wait status {signal.SIGKILL.value}\n")

    def test_a_dead_writer_stops_the_run_at_a_block_send(self, tmp_path, monkeypatch):
        # the writer fails on the first row; the pipe holds a few blocks, and
        # the first block sent after the writer ended ends the run
        use_row_writer(monkeypatch, True)

        def failing_row(*fields):
            raise OSError("disk quota exceeded")

        monkeypatch.setattr("acdroute.store.cdr_row", failing_row)
        made = 0
        # each call refused at 55 and failed at 62: two attempts a call
        with pytest.raises(OSError, match="disk quota exceeded"):
            with attempt_log(tmp_path / "cdrs.csv", tmp_path / "decisions.csv", T0,
                             VENDORS) as on_attempts:
                for made in range(SEND_BLOCK, 4000 * SEND_BLOCK + 1, SEND_BLOCK):
                    calls = SEND_BLOCK // 2
                    on_attempts(1 + (made - SEND_BLOCK) // 2, array("d", [0.0] * calls),
                                array("q", [-1, 0] * calls))
        assert made < 80 * SEND_BLOCK
        assert (tmp_path / "cdrs.csv").read_text(encoding="utf-8").count("\n") == 1

    def test_an_error_that_does_not_pickle(self, tmp_path, monkeypatch):
        use_row_writer(monkeypatch, True)

        class LocalError(Exception):
            pass

        def failing_row(*fields):
            raise LocalError("no way back")

        monkeypatch.setattr("acdroute.store.cdr_row", failing_row)
        with pytest.raises(RuntimeError, match=r"^row writer: .*LocalError\('no way back'\)$"):
            with attempt_log(tmp_path / "cdrs.csv", tmp_path / "decisions.csv", T0,
                             VENDORS) as on_attempts:
                on_attempts(1, array("d", [0.0]), array("q", [-1, 0]))

    def test_a_block_that_does_not_send_in_the_run(self, tmp_path, monkeypatch):
        # the third block the sink gets fails to send in the run's process:
        # its times are a list, not a packed array; the writer never sees it:
        # it writes the two blocks before it, reads the end of its blocks and
        # is reaped, and the run's error is raised
        use_row_writer(monkeypatch, True)
        blocks = [(1 + 3 * n, array("d", [float(n)] * 3), array("q", [-1, 0] * 3))
                  for n in range(5)]
        blocks[2] = (7, [2.0] * 3, array("q", [-1, 0] * 3))
        with pytest.raises(TypeError, match="^sequence item 1: expected a bytes-like object, "
                                            "list found$"):
            with attempt_log(tmp_path / "cdrs.csv", tmp_path / "decisions.csv", T0,
                             VENDORS) as on_attempts:
                for block in blocks:
                    on_attempts(*block)
        rows = (tmp_path / "cdrs.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            f"c{n:06d}" for n in range(1, 7) for _ in range(2)]

    def test_importing_the_cli_imports_no_pickle(self):
        # a block crosses to the writer as raw bytes: only a writer's error
        # is pickled, and that path imports pickle itself
        done = subprocess.run([sys.executable, "-S", "-c",
                               "import sys, acdroute.cli; print('pickle' in sys.modules)"],
                              capture_output=True, text=True, env=package_env(), timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the writer process")
    def test_simulate_after_reloading_the_domain_module(self, tmp_path):
        # a reload makes new DisconnectCause members, which an attempt held
        # by reference would no longer pickle as; a block is packed arrays of
        # numbers, so both writers write the same files
        script = ("import importlib, os, sys\n"
                  "import acdroute.cli, acdroute.domain\n"
                  "importlib.reload(acdroute.domain)\n"
                  "cpus = {0, 1} if sys.argv[1] == 'writer_process' else {0}\n"
                  "os.sched_getaffinity = lambda pid: cpus\n"
                  "sys.exit(acdroute.cli.main(['simulate', '--scenario', sys.argv[2],\n"
                  "                            '--out', sys.argv[3]]))\n")
        for path in ("in_process", "writer_process"):
            done = subprocess.run([sys.executable, "-c", script, path,
                                   str(SCENARIOS / "honest_vs_fas.json"), str(tmp_path / path)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=package_env(), timeout=120)
            assert (done.returncode, done.stderr) == (0, b""), path
        assert (tmp_path / "in_process" / "cdrs.csv").stat().st_size > 0
        assert snapshot_dir(tmp_path / "in_process") == snapshot_dir(tmp_path / "writer_process")

    @pytest.mark.skipif(not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
                             and len(os.sched_getaffinity(0)) >= 2
                             and Path("/proc/self/stat").exists()),
                        reason="needs the writer process and /proc")
    def test_a_killed_run_leaves_no_process(self, tmp_path):
        # SIGKILL a simulate that runs for seconds, once its writer process
        # has written four blocks: the writer reads the end of its blocks,
        # writes the rows it holds and ends, so the run's process group is gone
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config.update(arrival_rate_per_min=600, duration_min=600)
        long_run = tmp_path / "long.json"
        long_run.write_text(json.dumps(config), encoding="utf-8")
        env = package_env()
        run = subprocess.Popen([sys.executable, "-m", "acdroute.cli", "simulate", "--scenario",
                                str(long_run), "--out", str(tmp_path / "out")],
                               env=env, start_new_session=True, stdout=subprocess.DEVNULL)
        cdrs = tmp_path / "out" / "cdrs.csv"
        try:
            deadline = time.monotonic() + 60
            while len(_group_members(run.pid)) < 2 or not cdrs.exists() or (
                    cdrs.read_bytes().count(b"\n") <= 4 * SEND_BLOCK):
                assert run.poll() is None and time.monotonic() < deadline, "no block written"
                time.sleep(0.01)
        finally:
            run.kill()
            run.wait()
        deadline = time.monotonic() + 10
        try:
            while _group_members(run.pid):
                assert time.monotonic() < deadline, f"left: {_group_members(run.pid)}"
                time.sleep(0.05)
        finally:  # a writer left behind is not left running
            if _group_members(run.pid):
                os.killpg(run.pid, signal.SIGKILL)
        rows = cdrs.read_bytes()
        assert rows.endswith(b"\n") and rows.count(b"\n") > 4 * SEND_BLOCK
