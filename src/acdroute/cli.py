"""Command-line driver.

Subcommands: ``compute`` (one-off rejection calculation), ``aggregate``
(replay a CDR CSV through the interval machinery), ``simulate`` (run a
scenario end to end) and ``report`` (re-render a saved interval history).
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .aggregate import (
    MIN_INTERVAL_AGE_S,
    MIN_INTERVAL_CALLS,
    TICK_PERIOD_S,
    ClosedInterval,
    replay_cdrs,
    validate_schedule,
)
from .codec import decode, encode
from .domain import RouteGroup, validate_prefs_and_floor, whole_seconds
from .rejection import QualityInput, compute_rejection
from .report import TABLE_FORMATS, render_calc_breakdown, render_interval_table
from .sim import ScenarioConfig, ScenarioResult, run_scenario
from .store import AcdVendorsTable, read_cdr_csv, write_cdr_csv, write_csv


def _pair(text: str, kind, name: str) -> Tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{name} wants two comma-separated values")
    try:
        return kind(parts[0]), kind(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {name} value: {text!r}") from None


def _acd_pair(text: str):
    return _pair(text, float, "--acd")


def _int_pair(text: str):
    return _pair(text, int, "--pref/--vendors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acdroute",
        description="Quality-driven call routing: rejection targets, interval "
        "aggregation and a closed-loop traffic simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="compute rejection rates for one ACD/preference pair"
    )
    p_compute.add_argument("--acd", type=_acd_pair, required=True, metavar="A,B",
                           help="per-route ACD in minutes, e.g. 8.67,0.6")
    p_compute.add_argument("--pref", type=_int_pair, required=True, metavar="P,Q",
                           help="per-route billing preference (1-9), e.g. 9,8")
    p_compute.add_argument("--load-min", type=float, default=0.1,
                           help="minimum load share of the weaker route (default 0.1)")
    p_compute.add_argument("--out", type=Path, default=None,
                           help="directory for calc.txt and calc.html (optional)")
    p_compute.set_defaults(func=cmd_compute)

    p_agg = sub.add_parser(
        "aggregate", help="replay the interval schedule over a CDR CSV file"
    )
    p_agg.add_argument("--cdr", type=Path, required=True, help="input CDR CSV file")
    p_agg.add_argument("--prefs", type=_int_pair, required=True, metavar="P,Q",
                       help="billing preferences for the two vendors")
    p_agg.add_argument("--vendors", type=_int_pair, default=None, metavar="V,W",
                       help="vendor ids matching --prefs order "
                       "(default: the file's two vendor ids, ascending)")
    p_agg.add_argument("--load-min", type=float, default=0.1)
    p_agg.add_argument("--tick-min", type=float, default=TICK_PERIOD_S / 60,
                       help="tick period in minutes (default 10)")
    p_agg.add_argument("--min-age-min", type=float, default=MIN_INTERVAL_AGE_S / 60,
                       help="minimum interval age in minutes (default 20)")
    p_agg.add_argument("--min-calls", type=int, default=MIN_INTERVAL_CALLS,
                       help="minimum ended calls per interval (default 20)")
    p_agg.add_argument("--prefix", default="", help="destination prefix for rows")
    p_agg.add_argument("--out", type=Path, required=True, help="output directory")
    p_agg.set_defaults(func=cmd_aggregate)

    p_sim = sub.add_parser("simulate", help="run a scenario end to end")
    p_sim.add_argument("--scenario", type=Path, required=True,
                       help="scenario config JSON file")
    p_sim.add_argument("--out", type=Path, required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_sim.add_argument("--disable-admission", action="store_true",
                       help="negative control: never refresh targets, accept all")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a saved interval history")
    p_rep.add_argument("--history", type=Path, required=True,
                       help="interval_history.json from aggregate/simulate")
    p_rep.add_argument("--out", type=Path, required=True, help="output directory")
    p_rep.add_argument("--formats", default="html,csv,json",
                       help="comma-separated subset of html,csv,json")
    p_rep.set_defaults(func=cmd_report)

    return parser


def cmd_compute(args: argparse.Namespace) -> int:
    quality = QualityInput(acd_min=args.acd, prefs=args.pref, load_min=args.load_min)
    result = compute_rejection(quality)
    text = render_calc_breakdown(result, quality, format="txt")
    sys.stdout.write(text)
    sys.stdout.write(
        f"reject_pct: {result.reject_pct[0]:.2f} / {result.reject_pct[1]:.2f}\n"
    )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "calc.txt").write_text(text, encoding="utf-8")
        (args.out / "calc.html").write_text(
            render_calc_breakdown(result, quality, format="html"), encoding="utf-8"
        )
    return 0


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_tables(out_dir: Path, history: List[ClosedInterval], formats=TABLE_FORMATS) -> None:
    for fmt in formats:
        (out_dir / f"interval_table.{fmt}").write_text(
            render_interval_table(history, fmt), encoding="utf-8"
        )


def _write_history_files(out_dir: Path, history: List[ClosedInterval]) -> None:
    _write_json(out_dir / "interval_history.json", encode(history))
    _write_tables(out_dir, history)


def cmd_aggregate(args: argparse.Namespace) -> int:
    tick_period_s = whole_seconds(args.tick_min)
    min_age_s = whole_seconds(args.min_age_min)
    validate_schedule(tick_period_s, min_age_s, args.min_calls)
    validate_prefs_and_floor(args.prefs, args.load_min)
    records, errors = read_cdr_csv(args.cdr)
    if errors:
        for lineno, message in errors:
            print(f"{args.cdr}:{lineno}: {message}", file=sys.stderr)
        return 1
    vendors = args.vendors or tuple(sorted({r.vendor for r in records}))
    if records and len(vendors) != 2:
        raise ValueError(f"file holds {len(vendors)} vendor id(s); pass --vendors V,W")
    args.out.mkdir(parents=True, exist_ok=True)
    if not records:
        # nothing to replay: emit empty artifacts
        AcdVendorsTable().export_csv(args.out / "acd_vendors.csv")
        _write_history_files(args.out, [])
        print("0 closed intervals from 0 records")
        return 0
    history, table = replay_cdrs(
        records,
        RouteGroup(vendors, args.prefs, args.load_min),
        tick_period_s=tick_period_s,
        min_age_s=min_age_s,
        min_calls=args.min_calls,
        dest_prefix=args.prefix,
    )
    table.export_csv(args.out / "acd_vendors.csv")
    _write_history_files(args.out, history)
    print(f"{len(history)} closed interval(s) from {len(records)} records")
    for interval in history:
        pcts = ", ".join(
            f"{v}: reject {p:.2f}%"
            for v, p in zip(interval.vendors, interval.result.reject_pct)
        )
        print(f"  closed {interval.closed_at:%Y-%m-%d %H:%M} -> {pcts}")
    return 0


def _write_decision_log(out_dir: Path, result: ScenarioResult) -> None:
    write_csv(
        out_dir / "decisions.csv",
        ["seq", "time_s", "call_id", "vendor", "accepted", "code"],
        (
            [
                record.seq,
                f"{record.time_s:.3f}",
                record.call_id,
                record.vendor,
                "1" if record.accepted else "0",
                "" if record.code is None else record.code,
            ]
            for record in result.decision_log
        ),
    )


def _write_summary(out_dir: Path, result: ScenarioResult) -> None:
    vendors = result.config.group.vendors
    answered = {v: 0 for v in vendors}
    answered_minutes = {v: 0.0 for v in vendors}
    for record in result.cdrs:
        if not record.rejected_by_router and record.duration_s > 0:
            answered[record.vendor] += 1
            answered_minutes[record.vendor] += record.duration_s / 60.0
    summary = {
        "seed": result.config.seed,
        "admission_enabled": result.config.admission_enabled,
        "total_calls": result.total_calls,
        "abandoned_calls": result.abandoned_calls,
        "closed_intervals": len(result.interval_history),
        "final_targets": {str(v): t for v, t in sorted(result.final_targets().items())},
        "answered_calls": {str(v): answered[v] for v in vendors},
        "answered_minutes": {str(v): round(answered_minutes[v], 3) for v in vendors},
        "answered_minutes_share": {
            str(v): round(share, 6)
            for v, share in sorted(result.answered_minutes_share().items())
        },
    }
    _write_json(out_dir / "summary.json", summary)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig.load(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.disable_admission:
        overrides["admission_enabled"] = False
    config = dataclasses.replace(config, **overrides)
    result = run_scenario(config)
    args.out.mkdir(parents=True, exist_ok=True)
    write_cdr_csv(args.out / "cdrs.csv", result.cdrs)
    result.acd_table.export_csv(args.out / "acd_vendors.csv")
    _write_decision_log(args.out, result)
    _write_history_files(args.out, result.interval_history)
    _write_summary(args.out, result)
    targets = ", ".join(
        f"{v}: {t:.2f}%" for v, t in sorted(result.final_targets().items())
    )
    print(
        f"{result.total_calls} calls, {len(result.interval_history)} closed "
        f"interval(s), final targets {targets}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    formats = [fmt.strip() for fmt in args.formats.split(",") if fmt.strip()]
    if not formats:
        raise ValueError(f"--formats names no format, want a subset of {TABLE_FORMATS}")
    for fmt in formats:
        if fmt not in TABLE_FORMATS:
            raise ValueError(f"unknown format {fmt!r}, want a subset of {TABLE_FORMATS}")
    payload = json.loads(args.history.read_text(encoding="utf-8"))
    history = decode(List[ClosedInterval], payload)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_tables(args.out, history, formats)
    print(f"rendered {len(history)} interval(s) as {', '.join(formats)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
