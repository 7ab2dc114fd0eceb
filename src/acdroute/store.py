"""Flat-file persistence: the append-only CDR log and the acd_vendors table.

Both stores keep their records in memory and optionally mirror every append
to a newline-delimited CSV file, so the artifact needs no database. Reads
return copies, taken under the same lock that serializes writes. Reading an
acd_vendors file back checks that its rows form whole interval pairs.
"""

from __future__ import annotations

import csv
import io
import threading
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .domain import CallRecord, DisconnectCause, format_ts, parse_ts, validate_acd

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

T = TypeVar("T")


def _cdr_fields(record: CallRecord) -> List[object]:
    # csv.writer writes the ints with str(), as a CSV row reads them back
    return [
        record.call_id,
        record.vendor,
        format_ts(record.connect_time),
        format_ts(record.disconnect_time),
        record.duration_s,
        record.cause.value,
        "1" if record.rejected_by_router else "0",
    ]


def _int_field(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _parse_cdr_fields(fields: List[str]) -> CallRecord:
    if len(fields) != len(CDR_CSV_HEADER):
        raise ValueError(f"expected {len(CDR_CSV_HEADER)} fields, got {len(fields)}")
    call_id, vendor_s, connect_s, disconnect_s, duration_s, cause_s, rejected_s = fields
    vendor = _int_field(vendor_s, "vendor id")
    try:
        connect = parse_ts(connect_s)
        disconnect = parse_ts(disconnect_s)
    except ValueError:
        raise ValueError("bad timestamp (want YYYY-MM-DD HH:MM:SS)") from None
    duration = _int_field(duration_s, "duration")
    try:
        cause = DisconnectCause(cause_s)
    except ValueError:
        raise ValueError(f"unknown cause {cause_s!r}") from None
    if rejected_s not in ("0", "1"):
        raise ValueError(f"rejected flag must be 0 or 1, got {rejected_s!r}")
    return CallRecord(
        call_id=call_id,
        vendor=vendor,
        connect_time=connect,
        disconnect_time=disconnect,
        duration_s=duration,
        cause=cause,
        rejected_by_router=rejected_s == "1",
    )


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _read_csv(
    path: Path, header: List[str], parse: Callable[[List[str]], T]
) -> Tuple[List[T], List[int], List[Tuple[int, str]]]:
    """Parse a headed CSV file into (records, their line numbers, errors),
    where errors are (line_number, message) pairs; well-formed rows are kept
    even when other rows are malformed."""
    records: List[T] = []
    lines: List[int] = []
    errors: List[Tuple[int, str]] = []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if lineno == 1:
                if row != header:
                    errors.append((1, f"bad header, want {','.join(header)}"))
                continue
            try:
                records.append(parse(row))
                lines.append(lineno)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
    return records, lines, errors


def _read_strict(path: Path, header: List[str], parse: Callable[[List[str]], T],
                 check: Optional[Callable] = None) -> List[T]:
    """Like ``_read_csv``, but the first malformed line is an error, and so is
    the row that ``check(records)`` names, as (index, message), for breaking
    a rule across rows."""
    records, lines, errors = _read_csv(path, header, parse)
    problem = None if errors or check is None else check(records)
    if problem is not None:
        errors = [(lines[problem[0]], problem[1])]
    if errors:
        lineno, message = errors[0]
        raise ValueError(f"{path}: line {lineno}: {message}")
    return records


class _CsvLog:
    """The append-only record list behind both stores, mirrored to a CSV file
    when given a path: an existing file is read back (see ``_read_strict``), a
    new one gets the header, and each ``append`` is one write plus a flush
    before the records become visible, so a failed write changes nothing.
    Callers hold ``lock`` around ``append`` and every read of ``records``.
    """

    def __init__(self, path: Optional[Path], header: List[str], parse: Callable,
                 fields: Callable, check: Optional[Callable] = None):
        self.lock = threading.Lock()
        self.records: List[T] = []
        self._fields = fields
        self._handle: Optional[io.TextIOWrapper] = None
        if path is not None:
            path = Path(path)
            new_file = not path.exists() or path.stat().st_size == 0
            if not new_file:
                self.records = _read_strict(path, header, parse, check)
            self._handle = open(path, "a", newline="", encoding="utf-8")
            if new_file:
                self._write([header])

    def append(self, records: Sequence[T]) -> None:
        if self._handle is not None:
            self._write([self._fields(record) for record in records])
        self.records.extend(records)

    def _write(self, rows: List[Sequence[object]]) -> None:
        self._handle.write(_csv_text(rows))
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def write_csv(path: Path, header: List[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a headed CSV file, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_cdr_csv(path: Path, records: List[CallRecord]) -> None:
    write_csv(path, CDR_CSV_HEADER, map(_cdr_fields, records))


def read_cdr_csv(path: Path) -> Tuple[List[CallRecord], List[Tuple[int, str]]]:
    """Parse a CDR CSV file into (records, errors); see ``_read_csv``."""
    records, _, errors = _read_csv(path, CDR_CSV_HEADER, _parse_cdr_fields)
    return records, errors


class CdrStore:
    """Durable append-only CDR log in insertion order, mirrored to a CSV file
    when given a path. The interval aggregator is fed CDRs directly
    (``IntervalAggregator.add_cdr``) and never reads this log."""

    def __init__(self, path: Optional[Path] = None):
        self._log = _CsvLog(path, CDR_CSV_HEADER, _parse_cdr_fields, _cdr_fields)

    def append_cdr(self, record: CallRecord) -> int:
        """Durably append one record; returns its monotonically increasing id."""
        with self._log.lock:
            self._log.append((record,))
            return len(self._log.records)

    def all_records(self) -> List[CallRecord]:
        with self._log.lock:
            return list(self._log.records)

    def close(self) -> None:
        self._log.close()


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


def _acd_fields(row: AcdRow) -> List[str]:
    return [
        str(row.id),
        str(row.vendor),
        format_ts(row.date),
        "" if row.acd_min is None else str(row.acd_min),
        f"{row.reject_pct:.2f}",
        row.prefix,
    ]


def _parse_acd_fields(fields: List[str]) -> AcdRow:
    if len(fields) != len(ACD_CSV_HEADER):
        raise ValueError(f"expected {len(ACD_CSV_HEADER)} fields, got {len(fields)}")
    id_s, vendor_s, date_s, acd_s, reject_s, prefix = fields
    return AcdRow(
        id=_int_field(id_s, "row id"),
        vendor=_int_field(vendor_s, "vendor id"),
        date=parse_ts(date_s),
        acd_min=None if acd_s == "" else float(acd_s),
        reject_pct=float(reject_s),
        prefix=prefix,
    )


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


class AcdVendorsTable:
    """Closed-interval rows, two per interval, inserted atomically as a pair;
    a file reopened must hold whole pairs (see ``_acd_pair_problem``)."""

    def __init__(self, path: Optional[Path] = None):
        self._log = _CsvLog(path, ACD_CSV_HEADER, _parse_acd_fields, _acd_fields,
                            _acd_pair_problem)

    def insert_acd_rows(
        self,
        first: Tuple[int, datetime, Optional[float], float, str],
        second: Tuple[int, datetime, Optional[float], float, str],
    ) -> Tuple[int, int]:
        """Persist both rows of one closed interval; ids are assigned here.

        Each argument is (vendor, date, acd_min, reject_pct, prefix). The pair
        becomes visible atomically: a reader never sees one row without the
        other, and latest_pair always reflects the highest-id pair.
        """
        with self._log.lock:
            next_id = len(self._log.records) + 1
            rows = (
                AcdRow(next_id, *first),
                AcdRow(next_id + 1, *second),
            )
            self._log.append(rows)
            return rows[0].id, rows[1].id

    def latest_pair(self) -> Optional[Tuple[AcdRow, AcdRow]]:
        with self._log.lock:
            if not self._log.records:
                return None
            return self._log.records[-2], self._log.records[-1]

    def rows(self) -> List[AcdRow]:
        with self._log.lock:
            return list(self._log.records)

    def to_csv_text(self) -> str:
        return _csv_text([ACD_CSV_HEADER] + [_acd_fields(row) for row in self.rows()])

    def export_csv(self, path: Path) -> None:
        write_csv(path, ACD_CSV_HEADER, map(_acd_fields, self.rows()))

    def close(self) -> None:
        self._log.close()


def read_acd_csv(path: Path) -> List[AcdRow]:
    """The rows of an acd_vendors file; its first malformed line or broken
    pair is an error."""
    return _read_strict(path, ACD_CSV_HEADER, _parse_acd_fields, _acd_pair_problem)
