"""Flat-file persistence: the CDR CSV files and the acd_vendors file.

Each file has one row template, a function that builds a whole line as one
f-string: ``cdr_line`` for CDRs, ``_acd_line`` for acd_vendors rows (and
``cli._decision_line`` for decisions). Their only free text, a call id or a
prefix, goes through ``csv_field``, which quotes it as a ``csv.writer`` ending
lines with ``"\\r\\n"`` does, so a carriage return is quoted on every Python
version and the row reads back whole; every other field is drawn from a fixed
alphabet that needs no quoting. A CDR row is the highest-volume thing a run
writes, so its template takes each timestamp's text from ``format_ts``'s
cache of recent seconds and each cause's token from the member's
``_value_``, not the ``value`` property.
``csv_sink`` is the one row writer: ``simulate`` writes its CDRs and
decisions through it as the run makes them, and ``write_cdr_csv`` writes a
list of records. The acd_vendors file is a rendering of the interval history,
like the interval tables: ``acd_rows`` turns each closed interval into its
pair of rows and ``write_acd_csv`` writes them, after the run. A file is read
back a row at a time, and a row is accepted only in the form its template
gives it; an acd_vendors file must also hold whole interval pairs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, List, Optional, TextIO, Tuple

from .aggregate import ClosedInterval
from .domain import CallRecord, DisconnectCause, format_ts, parse_digits, parse_ts, validate_acd

CDR_CSV_HEADER = [
    "call_id",
    "vendor",
    "connect_time",
    "disconnect_time",
    "duration_s",
    "cause",
    "rejected",
]

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


def _cdr_tail(record: CallRecord) -> str:
    """The six fields a CDR's row holds after its call id, comma-joined; none
    needs quoting."""
    # ``_value_`` is the member's plain attribute; the ``value`` property
    # costs ~15x as much to read
    return (f"{record.vendor},{format_ts(record.connect_time)},"
            f"{format_ts(record.disconnect_time)},{record.duration_s},"
            f"{record.cause._value_},{'1' if record.rejected_by_router else '0'}")


def cdr_line(record: CallRecord) -> str:
    """The CDR's row of a CDR CSV file, line end included."""
    return f"{csv_field(record.call_id)},{_cdr_tail(record)}\n"


def cdr_fields(record: CallRecord) -> List[str]:
    """The fields of ``cdr_line``, as a CSV reader reads them back."""
    return [record.call_id, *_cdr_tail(record).split(",")]


def _check_written_form(header: List[str], written: List[str],
                        fields: List[str]) -> None:
    """Refuse a row whose fields are not ``written``, the row its parsed
    record is written as (``10`` read from ``010``, ``8.67`` from ``8.670``),
    so every row a reader accepts re-serialises to itself."""
    if written == fields:
        return
    for name, want, got in zip(header, written, fields):
        if want != got:
            raise ValueError(f"{name} {got!r} is not written as {want!r}")


def _parse_cdr_fields(fields: List[str]) -> CallRecord:
    call_id, vendor_s, connect_s, disconnect_s, duration_s, cause_s, rejected_s = fields
    connect = parse_ts(connect_s)
    record = CallRecord(
        call_id=call_id,
        vendor=parse_digits(vendor_s, "vendor id"),
        connect_time=connect,
        # a zero-length leg repeats its connect time: no second parse
        disconnect_time=connect if disconnect_s == connect_s else parse_ts(disconnect_s),
        duration_s=parse_digits(duration_s, "duration"),
        cause=DisconnectCause(cause_s),
        rejected_by_router=rejected_s == "1",
    )
    _check_written_form(CDR_CSV_HEADER, cdr_fields(record), fields)
    return record


def _read_csv(
    path: Path, header: List[str], parse: Callable[[List[str]], object]
) -> Tuple[List, List[int], List[Tuple[int, str]]]:
    """Parse a headed CSV file into (records, their line numbers, errors),
    where errors are (line_number, message) pairs; well-formed rows are kept
    even when other rows are malformed. A line the csv module cannot split
    (a field over its size limit) makes the whole file a ``ValueError``."""
    records: List = []
    lines: List[int] = []
    errors: List[Tuple[int, str]] = []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row:
                    continue
                if lineno == 1:
                    if row != header:
                        errors.append((1, f"bad header, want {','.join(header)}"))
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    records.append(parse(row))
                    lines.append(lineno)
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records, lines, errors


def csv_sink(handle: TextIO, header: List[str], line: Callable[[object], str]) -> Callable:
    """Write ``header`` to ``handle``; the returned sink writes each record it
    is given as the line ``line(record)``."""
    write = handle.write
    write(",".join(map(csv_field, header)) + "\n")
    return lambda record: write(line(record))


def write_cdr_csv(path: Path, records: Iterable[CallRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = csv_sink(handle, CDR_CSV_HEADER, cdr_line)
        for record in records:
            sink(record)


def read_cdr_csv(path: Path) -> Tuple[List[CallRecord], List[Tuple[int, str]]]:
    """Parse a CDR CSV file into (records, errors); see ``_read_csv``."""
    records, _, errors = _read_csv(path, CDR_CSV_HEADER, _parse_cdr_fields)
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


def _acd_head(row: AcdRow) -> str:
    """The five fields an acd_vendors row holds before its prefix,
    comma-joined; none needs quoting."""
    acd = "" if row.acd_min is None else str(row.acd_min)
    return f"{row.id},{row.vendor},{format_ts(row.date)},{acd},{row.reject_pct:.2f}"


def _acd_line(row: AcdRow) -> str:
    """The row's line of an acd_vendors file, line end included."""
    return f"{_acd_head(row)},{csv_field(row.prefix)}\n"


def _acd_fields(row: AcdRow) -> List[str]:
    """The fields of ``_acd_line``, as a CSV reader reads them back."""
    return [*_acd_head(row).split(","), row.prefix]


def _parse_acd_fields(fields: List[str]) -> AcdRow:
    id_s, vendor_s, date_s, acd_s, reject_s, prefix = fields
    row = AcdRow(
        id=parse_digits(id_s, "row id"),
        vendor=parse_digits(vendor_s, "vendor id"),
        date=parse_ts(date_s),
        acd_min=None if acd_s == "" else float(acd_s),
        reject_pct=float(reject_s),
        prefix=prefix,
    )
    _check_written_form(ACD_CSV_HEADER, _acd_fields(row), fields)
    return row


def _acd_pair_problem(rows: List[AcdRow]) -> Optional[Tuple[int, str]]:
    """The first row that breaks the pairing, as (index, message): ids run
    1..n with n even, rows 2k-1 and 2k share a date and name two distinct
    vendors, and dates do not decrease."""
    for k, row in enumerate(rows):
        if row.id != k + 1:
            return k, f"row id {row.id}, want {k + 1}"
        previous = rows[k - 1] if k else row
        if k % 2 and (row.date != previous.date or row.vendor == previous.vendor):
            return k, f"rows {k} and {k + 1} are not a pair (one date, two vendors)"
        if row.date < previous.date:
            return k, f"date {format_ts(row.date)} precedes row {k}'s"
    return (len(rows) - 1, f"row {len(rows)} has no pair") if len(rows) % 2 else None


def read_acd_csv(path: Path) -> List[AcdRow]:
    """The rows of an acd_vendors file; its first malformed line or broken
    pair is an error."""
    rows, lines, errors = _read_csv(path, ACD_CSV_HEADER, _parse_acd_fields)
    problem = None if errors else _acd_pair_problem(rows)
    if problem is not None:
        errors = [(lines[problem[0]], problem[1])]
    if errors:
        lineno, message = errors[0]
        raise ValueError(f"{path}: line {lineno}: {message}")
    return rows


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
