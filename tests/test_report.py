import csv
import io
import json
import random
from datetime import timedelta

import pytest

from acdroute.aggregate import ClosedInterval, VendorIntervalStats
from acdroute.rejection import QualityInput, compute_rejection, round_half_up
from acdroute.report import (
    INTERVAL_COLUMNS,
    build_interval_rows,
    render_calc_breakdown,
    render_interval_table,
)
from conftest import T0


def make_interval(closed_at, acd_pair, stats_rows, received, rejected,
                  vendors=(1, 2), prefs=(9, 8)):
    stats = tuple(
        VendorIntervalStats(vendor=vendors[i], bucket_zero=row[0], bucket_0_5=row[1],
                            bucket_5_30=row[2], bucket_over_30=row[3], calls=row[4],
                            total_minutes=row[5], acd_min=acd_pair[i])
        for i, row in enumerate(stats_rows)
    )
    result = compute_rejection(QualityInput(acd_pair, prefs, 0.1))
    return ClosedInterval(
        opened_at=closed_at - timedelta(minutes=30),
        closed_at=closed_at,
        vendors=vendors,
        prefs=prefs,
        stats=stats,
        result=result,
        received=dict(zip(vendors, received)),
        rejected=dict(zip(vendors, rejected)),
    )


# two intervals styled after a short production morning: a collapsed preferred
# route (targets 19/81) then a recovering one (70/30)
def sample_history():
    late = make_interval(
        T0 + timedelta(hours=1),
        (0.17, 0.79),
        [(4, 6, 2, 1, 13, 1.6), (1, 3, 0, 1, 5, 3.2)],
        received=(0, 0),
        rejected=(0, 0),
    )
    early = make_interval(
        T0 + timedelta(minutes=30),
        (36.06, 18.09),
        [(6, 0, 1, 2, 9, 108.2), (1, 0, 0, 5, 6, 90.5)],
        received=(13, 0),
        rejected=(4, 0),
    )
    return [early, late]


class TestIntervalTable:
    def test_target_balance_columns(self):
        rows = build_interval_rows(sample_history())
        # newest first: the collapsed interval leads
        assert [r["target_balance_pct"] for r in rows] == ["19", "81", "70", "30"]
        assert rows[0]["acd_min"] == "0.17"
        assert rows[1]["acd_min"] == "0.79"
        assert rows[2]["acd_min"] == "36.06"
        assert rows[2]["received"] == "13" and rows[2]["rejected"] == "4"

    def test_balance_always_sums_to_100(self):
        rng = random.Random(31)
        for _ in range(500):
            acd = (rng.uniform(0.01, 40), rng.uniform(0.01, 40))
            interval = make_interval(
                T0 + timedelta(hours=1), acd,
                [(0, 0, 0, 1, 1, acd[0]), (0, 0, 0, 1, 1, acd[1])],
                received=(0, 0), rejected=(0, 0),
            )
            rows = build_interval_rows([interval])
            assert int(rows[0]["target_balance_pct"]) + int(rows[1]["target_balance_pct"]) == 100

    def test_absent_acd_renders_blank(self):
        interval = make_interval(
            T0 + timedelta(hours=1), (1.29, None),
            [(1, 0, 0, 2, 3, 3.87), (0, 0, 0, 0, 0, 0.0)],
            received=(3, 0), rejected=(0, 0),
        )
        rows = build_interval_rows([interval])
        assert rows[1]["acd_min"] == ""
        assert rows[0]["target_balance_pct"] == "" and rows[1]["target_balance_pct"] == ""

    def test_empty_history_renders_header_only(self):
        text = render_interval_table([], "csv")
        assert text == ",".join(INTERVAL_COLUMNS) + "\n"
        payload = json.loads(render_interval_table([], "json"))
        assert payload["rows"] == []
        html = render_interval_table([], "html")
        assert "<table>" in html and "<td>" not in html

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_interval_table([], "pdf")

    def test_csv_and_json_agree_field_by_field(self):
        history = sample_history()
        csv_text = render_interval_table(history, "csv")
        json_text = render_interval_table(history, "json")
        reader = csv.DictReader(io.StringIO(csv_text))
        csv_rows = list(reader)
        payload = json.loads(json_text)
        assert payload["columns"] == INTERVAL_COLUMNS
        assert len(csv_rows) == len(payload["rows"])
        for from_csv, from_json in zip(csv_rows, payload["rows"]):
            assert dict(from_csv) == from_json

    def test_rendering_is_pure(self):
        history = sample_history()
        for fmt in ("html", "csv", "json"):
            assert render_interval_table(history, fmt) == render_interval_table(history, fmt)

    def test_html_is_self_contained(self):
        html = render_interval_table(sample_history(), "html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "19 %" in html and "81 %" in html
        assert "src=" not in html and "href=" not in html


class TestCalcBreakdown:
    def test_reference_breakdown(self):
        quality = QualityInput((8.67, 0.6), (9, 8), 0.1)
        result = compute_rejection(quality)
        text = render_calc_breakdown(result, quality, "txt")
        lines = text.splitlines()
        assert "Route A" in lines[0] and "Route B" in lines[0]
        assert "10.0%" in lines[1]
        assert lines[2].split()[-2:] == ["9", "8"]
        assert lines[3].split()[-2:] == ["8.67", "0.6"]
        assert lines[4].split()[-2:] == ["100.0%", "6.9%"]
        assert lines[5].split()[-2:] == ["87.2%", "12.8%"]
        assert lines[6].split()[-2:] == ["12.8%", "0.0%"]

    def test_equal_quality_breakdown(self):
        quality = QualityInput((5.0, 5.0), (9, 8), 0.1)
        result = compute_rejection(quality)
        text = render_calc_breakdown(result, quality, "txt")
        assert text.splitlines()[5].split()[-2:] == ["50.0%", "50.0%"]

    def test_absent_acd_breakdown(self):
        quality = QualityInput((1.29, None), (9, 8), 0.1)
        result = compute_rejection(quality)
        text = render_calc_breakdown(result, quality, "txt")
        assert "n/a" in text
        assert text.splitlines()[6].split()[-2:] == ["0.0%", "0.0%"]

    def test_html_variant(self):
        quality = QualityInput((8.67, 0.6), (9, 8), 0.1)
        result = compute_rejection(quality)
        html = render_calc_breakdown(result, quality, "html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<td>12.8%</td>" in html

    def test_unknown_format_rejected(self):
        quality = QualityInput((8.67, 0.6), (9, 8), 0.1)
        with pytest.raises(ValueError):
            render_calc_breakdown(compute_rejection(quality), quality, "pdf")

    def test_displayed_values_match_stated_rounding(self):
        rng = random.Random(17)
        for _ in range(300):
            acd = (rng.uniform(0.01, 30), rng.uniform(0.01, 30))
            prefs = tuple(rng.sample(range(1, 10), 2))
            quality = QualityInput(acd, prefs, rng.uniform(0, 0.49))
            result = compute_rejection(quality)
            lines = render_calc_breakdown(result, quality, "txt").splitlines()
            for idx, values in ((4, result.rank), (5, result.load)):
                shown = lines[idx].split()[-2:]
                for cell, value in zip(shown, values):
                    assert cell == f"{round_half_up(value * 100, 1):.1f}%"
            shown = lines[6].split()[-2:]
            for cell, value in zip(shown, result.reject_pct_exact):
                assert cell == f"{round_half_up(value, 1):.1f}%"
