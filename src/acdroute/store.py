"""Flat-file persistence: the CDR CSV files and the acd_vendors file.

Each file has one row template, a function that builds a whole line as one
f-string: ``cdr_line`` for CDRs, ``_acd_line`` for acd_vendors rows (and
``cli._decision_line`` for an attempt's decision). Their only free text, a
call id or a prefix, goes through ``csv_field``, which quotes it as a
``csv.writer`` ending lines with ``"\\r\\n"`` does, so a carriage return is
quoted on every Python version and the row reads back whole; every other field
is drawn from a fixed alphabet that needs no quoting. A CDR row is the
highest-volume thing a run writes, so its template takes each timestamp's text
from ``format_ts``'s cache of recent seconds and each cause's token from the
member's ``_value_``, not the ``value`` property.
``csv_sink`` is the one row writer: ``simulate`` writes each attempt's CDR row
and decision row through it as the run makes the attempt, and
``write_cdr_csv`` writes a list of records. The acd_vendors file is a
rendering of the interval history, like the interval tables: ``acd_rows``
turns each closed interval into its pair of rows and ``write_acd_csv`` writes
them, after the run; no command reads it back. ``read_cdr_csv`` is the one
reader. It accepts a CDR row only in the form ``cdr_line`` writes it, checked
as one match against ``_CDR_FIELDS``, the row grammar.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, List, Optional, TextIO, Tuple

from .aggregate import ClosedInterval
from .domain import _TS_TEXT, CallRecord, DisconnectCause, format_ts, validate_acd

CDR_CSV_HEADER = ["call_id", "vendor", "connect_time", "disconnect_time", "duration_s",
                  "cause", "rejected"]

ACD_CSV_HEADER = ["id", "vendor", "date", "acd_min", "reject_pct", "prefix"]


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
    size limit) makes the whole file a ``ValueError``."""
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
    return records, errors


@dataclass(frozen=True)
class AcdRow:
    """One vendor's line of a closed interval, as persisted."""

    id: int
    vendor: int
    date: datetime
    acd_min: Optional[float]
    reject_pct: float
    prefix: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.reject_pct <= 100.0:
            raise ValueError(f"reject_pct out of [0, 100]: {self.reject_pct}")
        validate_acd(self.acd_min)


def _acd_line(row: AcdRow) -> str:
    """The row's line of an acd_vendors file, line end included; only the
    prefix can need quoting."""
    acd = "" if row.acd_min is None else str(row.acd_min)
    return (f"{row.id},{row.vendor},{format_ts(row.date)},{acd},{row.reject_pct:.2f},"
            f"{csv_field(row.prefix)}\n")


def acd_rows(history: Iterable[ClosedInterval], prefix: str = "") -> List[AcdRow]:
    """The acd_vendors rows of an interval history: each closed interval's
    two vendors in group order, dated at its close, numbered 1..2n."""
    rows: List[AcdRow] = []
    for closed in history:
        for vendor, stats, reject_pct in zip(closed.vendors, closed.stats,
                                             closed.result.reject_pct):
            rows.append(AcdRow(len(rows) + 1, vendor, closed.closed_at, stats.acd_min,
                               reject_pct, prefix))
    return rows


def acd_csv_text(rows: Iterable[AcdRow]) -> str:
    buffer = io.StringIO()
    sink = csv_sink(buffer, ACD_CSV_HEADER, _acd_line)
    for row in rows:
        sink(row)
    return buffer.getvalue()


def write_acd_csv(path: Path, rows: Iterable[AcdRow]) -> None:
    Path(path).write_text(acd_csv_text(rows), encoding="utf-8", newline="")
