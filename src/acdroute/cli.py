"""Command-line driver.

Subcommands: ``compute`` (one-off rejection calculation), ``aggregate``
(replay a CDR CSV through the interval machinery), ``simulate`` (run a
scenario end to end) and ``report`` (re-render a saved interval history).
Exit codes: 0 success, 1 runtime failure (a closed stdout, ``| head``, too:
no error line, after every file is written), 2 usage or validation error.

``simulate`` runs the scenario into ``store.attempt_log``'s sink, which
decodes the run's blocks of one integer an attempt by the scenario's
``billing_order`` and writes each attempt as one row of ``cdrs.csv`` and one
of ``decisions.csv``, a block of rows at a time (the run still holds every
arrival, 8 bytes each). Every other file a command writes is rendered to
text first (by ``simulate`` while its writer process may still be writing
rows) and written by ``_write_files``. ``HISTORY_FILES`` names each file
rendered from an interval history (the acd_vendors file,
``interval_history.json`` and the interval tables) with its renderer;
``simulate`` and ``aggregate`` write them all, ``report`` the tables it is
asked for, and ``simulate`` removes them and ``SUMMARY_FILE`` before its run.
``aggregate`` builds its ``Schedule`` from its minute flags, as a scenario
does from its fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .aggregate import ClosedInterval, Schedule, replay_cdrs
from .codec import encode, json_text, load_json
from .domain import DEFAULT_LOAD_MIN, RouteGroup, format_ts, validate_prefs_and_floor
from .rejection import QualityInput, compute_rejection
from .report import TABLE_FORMATS, render_calc_breakdown, render_interval_table
from .sim import ScenarioConfig, ScenarioResult, run_scenario
from .store import acd_csv_text, attempt_log, read_cdr_csv


TABLE_FILES = {fmt: f"interval_table.{fmt}" for fmt in TABLE_FORMATS}
# each file rendered from an interval history, by name: (history, prefix) -> text
HISTORY_FILES: Dict[str, Callable[[List[ClosedInterval], str], str]] = {
    "acd_vendors.csv": acd_csv_text,
    "interval_history.json": lambda history, prefix: json_text(encode(history)),
    **{name: lambda history, prefix, fmt=fmt: render_interval_table(history, fmt)
       for fmt, name in TABLE_FILES.items()},
}
SUMMARY_FILE = "summary.json"


def _write_files(out_dir: Path, files: Dict[str, str]) -> None:
    """Write each named text into ``out_dir``, made if missing, as UTF-8 with
    its line ends as they are."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")


def _history_files(history: List[ClosedInterval], prefix: str = "",
                   names: Iterable[str] = HISTORY_FILES) -> Dict[str, str]:
    return {name: HISTORY_FILES[name](history, prefix) for name in names}


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
    p_compute.add_argument("--load-min", type=float, default=DEFAULT_LOAD_MIN,
                           help="minimum load share of the weaker route (default %(default)s)")
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
    p_agg.add_argument("--load-min", type=float, default=DEFAULT_LOAD_MIN)
    p_agg.add_argument("--tick-min", type=float, default=Schedule.tick_period_s / 60,
                       help="tick period in minutes (default %(default)g)")
    p_agg.add_argument("--min-age-min", type=float, default=Schedule.min_age_s / 60,
                       help="minimum interval age in minutes (default %(default)g)")
    p_agg.add_argument("--min-calls", type=int, default=Schedule.min_calls,
                       help="minimum ended calls per interval (default %(default)s)")
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
    if args.out is not None:
        _write_files(args.out, {
            "calc.txt": text,
            "calc.html": render_calc_breakdown(result, quality, format="html"),
        })
    sys.stdout.write(text)
    sys.stdout.write(
        f"reject_pct: {result.reject_pct[0]:.2f} / {result.reject_pct[1]:.2f}\n"
    )
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    # the flags are checked before the file is read, so a header-only file
    # cannot hide a bad one
    schedule = Schedule.from_minutes(args.tick_min, args.min_age_min, args.min_calls)
    validate_prefs_and_floor(args.prefs, args.load_min)
    group = None if args.vendors is None else RouteGroup(args.vendors, args.prefs, args.load_min)
    cdrs, errors = read_cdr_csv(args.cdr)
    if errors:
        for lineno, message in errors:
            print(f"{args.cdr}:{lineno}: {message}", file=sys.stderr)
        return 1
    if cdrs and group is None:
        vendors = tuple(sorted({cdr[0] for cdr in cdrs}))
        if len(vendors) != 2:
            raise ValueError(f"file holds {len(vendors)} vendor id(s); pass --vendors V,W")
        group = RouteGroup(vendors, args.prefs, args.load_min)
    if not cdrs:
        # nothing to replay: emit empty artifacts
        _write_files(args.out, _history_files([], args.prefix))
        print("0 closed intervals from 0 records")
        return 0
    try:
        history = replay_cdrs(cdrs, group, schedule)
    except OverflowError:  # a tick past the last datetime
        raise ValueError(f"{args.cdr}: the tick schedule runs past the year 9999") from None
    _write_files(args.out, _history_files(history, args.prefix))
    print(f"{len(history)} closed interval(s) from {len(cdrs)} records")
    for interval in history:
        pcts = ", ".join(
            f"{v}: reject {p:.2f}%"
            for v, p in zip(interval.vendors, interval.result.reject_pct)
        )
        print(f"  closed {format_ts(interval.closed_at)[:16]} -> {pcts}")
    return 0


def _summary(result: ScenarioResult) -> dict:
    vendors = result.config.group.vendors
    answered, answered_minutes = result.answered_calls, result.answered_minutes
    return {
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


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig.load(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.disable_admission:
        overrides["admission_enabled"] = False
    config = dataclasses.replace(config, **overrides)
    args.out.mkdir(parents=True, exist_ok=True)
    # the files written after the run go first, so a run that fails into a
    # reused --out leaves none of an earlier run's beside its own
    for name in (*HISTORY_FILES, SUMMARY_FILE):
        (args.out / name).unlink(missing_ok=True)
    try:
        with attempt_log(args.out / "cdrs.csv", args.out / "decisions.csv", config.start_time,
                         [spec.vendor for spec in config.billing_order]) as on_attempts:
            result = run_scenario(config, on_attempts=on_attempts)
            # rendered while a writer process still writes the last rows
            files = {**_history_files(result.interval_history, config.dest_prefix),
                     SUMMARY_FILE: json_text(_summary(result))}
    except OverflowError:  # an answered leg's disconnect second past the last datetime
        raise ValueError(f"{args.scenario}: a call leg ends past the year 9999") from None
    _write_files(args.out, files)
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
    history = load_json(List[ClosedInterval], args.history)
    _write_files(args.out, _history_files(history, names=map(TABLE_FILES.get, formats)))
    print(f"rendered {len(history)} interval(s) as {', '.join(formats)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # stdout is held until the command returns, so a broken pipe while it
    # runs is an output file's (a FIFO's), an error like any other OSError
    try:
        with redirect_stdout(io.StringIO()) as printed:
            code = args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2
    try:
        sys.stdout.write(printed.getvalue())
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the rest goes to devnull, as Python's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
