import json
import random
from datetime import timedelta
from pathlib import Path

import pytest

from acdroute.cli import main
from acdroute.store import read_acd_csv, write_cdr_csv
from conftest import T0, make_cdr

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

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
        rows = read_acd_csv(out / "acd_vendors.csv")
        assert rows[0].vendor == 55
        assert rows[0].acd_min == pytest.approx(12.94, abs=0.01)
        assert rows[1].acd_min == pytest.approx(10.93, abs=0.01)
        table = (out / "interval_table.csv").read_text(encoding="utf-8")
        assert "12.94" in table and "10.93" in table

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

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["aggregate", "--cdr", str(tmp_path / "nope.csv"),
                     "--prefs", "9,8", "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()


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

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config["vendors"][0]["pref"] = 8  # equal preferences
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err


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
    ])
    def test_bad_scenario_field(self, tmp_path, capsys, field, value):
        config = json.loads((SCENARIOS / "honest_vs_fas.json").read_text())
        config[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

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
    ], ids=["entry-without-result", "object-not-list", "number-for-timestamp"])
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

    @pytest.mark.parametrize("flag, value", [("--tick-min", "10.004"),
                                             ("--min-age-min", "20.001")])
    def test_fractional_second_periods_on_aggregate(self, tmp_path, capsys, flag, value):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", flag, value,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--prefs", "9,9"],
                                       ["--prefs", "9,8", "--load-min", "0.7"]],
                             ids=["equal-prefs", "floor-above-half"])
    def test_bad_route_flags_on_header_only_csv(self, tmp_path, capsys, flags):
        cdr_csv = tmp_path / "empty.csv"
        write_cdr_csv(cdr_csv, [])
        assert main(["aggregate", "--cdr", str(cdr_csv), *flags,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("rows, flags", [
        ("records", ["--min-age-min", "-10"]),
        ("records", ["--min-age-min", "0"]),
        ("records", ["--min-calls", "0"]),
        ("records", ["--min-calls", "-3"]),
        ("header-only", ["--tick-min", "0"]),
        ("header-only", ["--min-calls", "0"]),
    ], ids=["negative-age", "zero-age", "zero-calls", "negative-calls",
            "header-only-zero-tick", "header-only-zero-calls"])
    def test_bad_schedule_flags_on_aggregate(self, tmp_path, capsys, rows, flags):
        cdr_csv = tmp_path / "cdrs.csv"
        if rows == "records":
            _write_interval_csv(cdr_csv)
        else:
            write_cdr_csv(cdr_csv, [])
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8", *flags,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys)
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

    def test_tenth_of_a_minute_is_six_seconds(self, tmp_path, capsys):
        cdr_csv = tmp_path / "cdrs.csv"
        _write_interval_csv(cdr_csv)
        assert main(["aggregate", "--cdr", str(cdr_csv), "--prefs", "9,8",
                     "--tick-min", "0.1", "--min-age-min", "0.1",
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
