"""Static monitoring documents: the interval table and the calculator breakdown.

Rendering is pure string building; the same history always produces the same
bytes. All rounding happens here, on copies of full-precision values.
"""

from __future__ import annotations

import csv
import io
from html import escape
from typing import Dict, List, Optional, Sequence

from .aggregate import ClosedInterval
from .codec import json_text
from .domain import format_ts
from .rejection import QualityInput, RejectionResult, round_half_up

TABLE_FORMATS = ("html", "csv", "json")

# column name -> html heading, in table order
_HEADINGS = {
    "date_time": "Date and time",
    "vendor": "Vendor",
    "priority": "Priority",
    "calls_zero": "=0s",
    "calls_0_5s": "0-5s",
    "calls_5_30s": "5-30s",
    "calls_over_30s": ">30s",
    "calls": "Calls",
    "total_minutes": "Total minutes",
    "acd_min": "ACD (min)",
    "target_balance_pct": "Target balance",
    "received": "Received",
    "rejected": "Rejected",
}
INTERVAL_COLUMNS = list(_HEADINGS)


def _balance_percents(interval: ClosedInterval) -> List[Optional[int]]:
    """Integer target-balance percents, guaranteed to sum to 100 when present."""
    load = interval.result.load
    if load[0] is None or load[1] is None:
        return [None, None]
    first = int(round_half_up(load[0] * 100.0, 0))
    return [first, 100 - first]


def build_interval_rows(history: Sequence[ClosedInterval]) -> List[Dict[str, str]]:
    """Two rows per closed interval, newest interval first; each row maps
    every column of ``INTERVAL_COLUMNS`` to its cell text."""
    rows: List[Dict[str, str]] = []
    ordered = sorted(history, key=lambda iv: iv.closed_at, reverse=True)
    for interval in ordered:
        balance = _balance_percents(interval)
        for idx, stats in enumerate(interval.stats):
            vendor = interval.vendors[idx]
            rows.append({
                "date_time": format_ts(interval.closed_at),
                "vendor": str(vendor),
                "priority": str(interval.prefs[idx]),
                "calls_zero": str(stats.bucket_zero),
                "calls_0_5s": str(stats.bucket_0_5),
                "calls_5_30s": str(stats.bucket_5_30),
                "calls_over_30s": str(stats.bucket_over_30),
                "calls": str(stats.calls),
                "total_minutes": f"{round_half_up(stats.total_minutes, 1):.1f}",
                "acd_min": ""
                if stats.acd_min is None
                else f"{round_half_up(stats.acd_min, 2):.2f}",
                "target_balance_pct": "" if balance[idx] is None else str(balance[idx]),
                "received": str(interval.received.get(vendor, 0)),
                "rejected": str(interval.rejected.get(vendor, 0)),
            })
    return rows


def render_interval_table(history: Sequence[ClosedInterval], format: str) -> str:
    """Render the per-interval traffic/quality table as html, csv or json."""
    if format not in TABLE_FORMATS:
        raise ValueError(f"unknown format {format!r}, want one of {TABLE_FORMATS}")
    rows = build_interval_rows(history)
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, INTERVAL_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()
    if format == "json":
        payload = {"columns": INTERVAL_COLUMNS, "rows": rows}
        return json_text(payload)
    return _interval_html(rows, history)


_HTML_STYLE = (
    "body{font-family:sans-serif;margin:1.5em}"
    "table{border-collapse:collapse}"
    "caption{font-weight:bold;padding:.5em;text-align:left}"
    "th,td{border:1px solid #999;padding:.25em .6em;text-align:right}"
    "th{background:#eee}"
    "td:first-child,td:nth-child(2){text-align:left}"
)


def _html_table(title: str, caption: str, headings: Sequence[str],
                rows: Sequence[Sequence[str]]) -> str:
    """A self-contained page holding one table; every cell is escaped."""
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{title}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        "<table>",
        f"<caption>{caption}</caption>",
        "<tr>" + "".join(f"<th>{escape(h)}</th>" for h in headings) + "</tr>",
    ]
    for cells in rows:
        lines.append("<tr>" + "".join(f"<td>{escape(c)}</td>" for c in cells) + "</tr>")
    lines += ["</table>", "</body></html>", ""]
    return "\n".join(lines)


def _interval_html(rows: Sequence[Dict[str, str]], history: Sequence[ClosedInterval]) -> str:
    title = "Traffic balance with quality routing"
    caption = title
    if history:
        latest = max(iv.closed_at for iv in history)
        caption += f" (as of {escape(format_ts(latest))})"
    cells = [
        [
            f"{row[column]} %" if column == "target_balance_pct" and row[column] else row[column]
            for column in INTERVAL_COLUMNS
        ]
        for row in rows
    ]
    return _html_table(title, caption, list(_HEADINGS.values()), cells)


CALC_FORMATS = ("txt", "html")

_CALC_LABELS = [
    "Minimum load share (0-50%)",
    "Billing preference (1-9)",
    "ACD (minutes)",
    "Rank (0-1)",
    "Target load share (%)",
    "Rejection rate (%)",
]


def _pct1(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{round_half_up(value, 1):.1f}%"


def _calc_cells(result: RejectionResult, quality: QualityInput) -> List[List[str]]:
    acd_cell = [
        "n/a" if acd is None else str(acd) for acd in quality.acd_min
    ]
    return [
        [_pct1(quality.load_min * 100.0)] * 2,
        [str(p) for p in quality.prefs],
        acd_cell,
        [_pct1(None if r is None else r * 100.0) for r in result.rank],
        [_pct1(None if l is None else l * 100.0) for l in result.load],
        [_pct1(result.reject_pct_exact[0]), _pct1(result.reject_pct_exact[1])],
    ]


def render_calc_breakdown(
    result: RejectionResult, quality: QualityInput, format: str = "txt"
) -> str:
    """Two-column breakdown of one rejection computation (route A vs route B)."""
    if format not in CALC_FORMATS:
        raise ValueError(f"unknown format {format!r}, want one of {CALC_FORMATS}")
    cells = _calc_cells(result, quality)
    if format == "txt":
        label_width = max(len(label) for label in _CALC_LABELS)
        lines = [f"{'':<{label_width}}  {'Route A':>12} {'Route B':>12}"]
        for label, (a, b) in zip(_CALC_LABELS, cells):
            lines.append(f"{label:<{label_width}}  {a:>12} {b:>12}")
        return "\n".join(lines) + "\n"
    rows = [[label, a, b] for label, (a, b) in zip(_CALC_LABELS, cells)]
    return _html_table(
        "Rejection calculator", "Rejection calculator", ["", "Route A", "Route B"], rows
    )
