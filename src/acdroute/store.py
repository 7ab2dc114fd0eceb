"""Flat-file persistence: every CSV row template, and the one CDR reader.

Each CSV file has one row template, which builds a whole line as one
f-string: ``cdr_line`` for CDRs, ``decision_line`` for an attempt's decision,
and the acd_vendors row inside ``acd_csv_text``. Their only free text, a call
id or a prefix, goes through ``csv_field``, which quotes it as a
``csv.writer`` ending lines with ``"\\r\\n"`` does, so a carriage return is
quoted on every Python version and the row reads back whole; every other field
is drawn from a fixed alphabet that needs no quoting. A CDR row is the
highest-volume thing a run writes, so its template takes each timestamp's text
from ``format_ts``'s cache of recent seconds and each cause's token from the
member's ``_value_``, not the ``value`` property.
``csv_sink`` writes rows as they are made: ``simulate`` writes each attempt's
CDR row and decision row through it as the run makes the attempt, and
``write_cdr_csv`` writes a list of records. ``acd_csv_text`` renders an
interval history as the acd_vendors file, each closed interval as its pair of
rows, after the run; no command reads that file back. ``read_cdr_csv`` is the
one reader. It accepts a CDR row only in the form ``cdr_line`` writes it,
checked as one match against ``_CDR_FIELDS``, the row grammar.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, List, TextIO, Tuple

from .admission import REJECTION_CODE
from .aggregate import ClosedInterval
from .domain import _TS_TEXT, CallRecord, DisconnectCause, format_ts

CDR_CSV_HEADER = ["call_id", "vendor", "connect_time", "disconnect_time", "duration_s",
                  "cause", "rejected"]

ACD_CSV_HEADER = ["id", "vendor", "date", "acd_min", "reject_pct", "prefix"]

DECISION_CSV_HEADER = ["seq", "time_s", "call_id", "vendor", "accepted", "code"]


def csv_field(text: str) -> str:
    """``text`` as a ``csv.writer`` whose line terminator is ``"\\r\\n"``
    writes it as a field of a row, quoted where it must be. Such a writer
    quotes a carriage return on every Python version (before 3.13, one ending
    lines with ``"\\n"`` leaves it bare, and a reader then splits the row
    there). Letters and digits are written as they are; other text is
    rendered by the writer, since its rules differ between versions (3.10
    refuses a NUL)."""
    if text.isalnum():
        return text
    buffer = io.StringIO()
    # a second, empty field: a row of one empty field is written as ""
    csv.writer(buffer, lineterminator="\r\n").writerow((text, ""))
    return buffer.getvalue()[:-3]


def cdr_line(record: CallRecord) -> str:
    """The CDR's row of a CDR CSV file, line end included; only the call id
    can need quoting."""
    # ``_value_`` is the member's plain attribute; the ``value`` property
    # costs ~15x as much to read
    return (f"{csv_field(record.call_id)},{record.vendor},{format_ts(record.connect_time)},"
            f"{format_ts(record.disconnect_time)},{record.duration_s},"
            f"{record.cause._value_},{'1' if record.rejected_by_router else '0'}\n")


def decision_line(seq: int, record: CallRecord, t_s: float) -> str:
    """The ``seq``-th attempt's row of ``decisions.csv``, line end included:
    accepted with no code, or refused with the rejection code."""
    outcome = f"0,{REJECTION_CODE}" if record.rejected_by_router else "1,"
    return f"{seq},{t_s:.3f},{csv_field(record.call_id)},{record.vendor},{outcome}\n"


def csv_sink(handle: TextIO, header: List[str], line: Callable[..., str]) -> Callable:
    """Write ``header`` to ``handle``; the returned sink writes the line
    ``line(*event)`` for each event it is given."""
    write = handle.write
    write(",".join(map(csv_field, header)) + "\n")
    return lambda *event: write(line(*event))


def write_cdr_csv(path: Path, records: Iterable[CallRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = csv_sink(handle, CDR_CSV_HEADER, cdr_line)
        for record in records:
            sink(record)


# The row grammar: the six fields of a CDR row after its call id, each in the
# one form ``cdr_line`` writes it. ``[0-9]``, because ``\d`` in a str pattern
# also matches non-ASCII digits. No pattern matches a comma, so the six
# fields joined by commas match ``_CDR_TAIL`` only if each matches its own.
_CDR_FIELDS = (
    ("vendor id", "0|[1-9][0-9]*"),
    ("connect timestamp", _TS_TEXT.pattern),
    ("disconnect timestamp", _TS_TEXT.pattern),
    ("duration", "0|[1-9][0-9]*"),
    ("cause", "|".join(re.escape(cause.value) for cause in DisconnectCause)),
    ("rejected flag", "[01]"),
)
_CDR_TAIL = re.compile(",".join(f"({pattern})" for _, pattern in _CDR_FIELDS))
_CAUSES = {cause.value: cause for cause in DisconnectCause}


def _cdr_record(row: List[str]) -> CallRecord:
    """The record of a CDR row as ``csv`` splits it; a ``ValueError`` names
    the first field that breaks the grammar."""
    if len(row) != len(CDR_CSV_HEADER):
        raise ValueError(f"expected {len(CDR_CSV_HEADER)} fields, got {len(row)}")
    fields = _CDR_TAIL.fullmatch(",".join(row[1:]))
    if fields is None:
        name, text = next((name, text) for (name, pattern), text in zip(_CDR_FIELDS, row[1:])
                          if re.fullmatch(pattern, text) is None)
        raise ValueError(f"bad {name} {text!r}")
    vendor, connect_s, disconnect_s, duration, cause, rejected = fields.groups()
    connect = datetime.fromisoformat(connect_s)
    # a zero-length leg repeats its connect time: no second parse
    disconnect = connect if disconnect_s == connect_s else datetime.fromisoformat(disconnect_s)
    return CallRecord(row[0], int(vendor), connect, disconnect, int(duration),
                      _CAUSES[cause], rejected == "1")


def read_cdr_csv(path: Path) -> Tuple[List[CallRecord], List[Tuple[int, str]]]:
    """Parse a CDR CSV file into (records, errors), where errors are
    (line_number, message) pairs and a row's line is the file line it starts
    on; well-formed rows are kept even when other rows are malformed. Line 1
    must be the header. A line the csv module cannot split (a field over its
    size limit) or a byte that is not UTF-8 makes the whole file a
    ``ValueError`` naming the file."""
    records: List[CallRecord] = []
    errors: List[Tuple[int, str]] = []
    end = 0  # the file line the last row read ends on
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            if next(reader, None) != CDR_CSV_HEADER:
                errors.append((1, f"bad header, want {','.join(CDR_CSV_HEADER)}"))
            end = reader.line_num
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                try:
                    records.append(_cdr_record(row))
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {end + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            # the reader decodes ahead of its rows, so no row's line is known
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records, errors


def acd_csv_text(history: Iterable[ClosedInterval], prefix: str = "") -> str:
    """The acd_vendors file of an interval history: each closed interval's
    two vendors in group order, dated at its close, numbered 1..2n. A row's
    template is one f-string; only the prefix can need quoting."""
    lines = [",".join(ACD_CSV_HEADER) + "\n"]
    prefix = csv_field(prefix)
    for closed in history:
        date = format_ts(closed.closed_at)
        for vendor, stats, reject_pct in zip(closed.vendors, closed.stats,
                                             closed.result.reject_pct):
            acd = "" if stats.acd_min is None else str(stats.acd_min)
            lines.append(f"{len(lines)},{vendor},{date},{acd},{reject_pct:.2f},{prefix}\n")
    return "".join(lines)
