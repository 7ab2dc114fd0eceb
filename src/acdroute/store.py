"""Flat-file persistence: the CDR CSV files and the acd_vendors table.

``csv_sink`` is the one streaming row writer: ``simulate`` writes its CDRs
and decisions through it as the run makes them, and ``write_cdr_csv`` writes
a list of records. ``AcdVendorsTable`` keeps its rows in memory and
optionally mirrors each pair to a CSV file, so the artifact needs no
database. A file is read back a row at a time, and a row is accepted only in
the form its writer gives it; an acd_vendors file must also hold whole
interval pairs.
"""

from __future__ import annotations

import csv
import io
import threading
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, TextIO, Tuple

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


def cdr_fields(record: CallRecord) -> List[object]:
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
    # ASCII digits only: int() also reads "+5", " 5 ", "5_5" and non-ASCII digits
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def _check_written_form(header: List[str], written: Sequence[object],
                        fields: List[str]) -> None:
    """Refuse a row whose fields are not ``written``, the row its parsed
    record is written as (``10`` read from ``010``, ``8.67`` from ``8.670``),
    so every row a reader accepts re-serialises to itself."""
    for name, want, got in zip(header, written, fields):
        if str(want) != got:
            raise ValueError(f"{name} {got!r} is not written as {str(want)!r}")


def _parse_cdr_fields(fields: List[str]) -> CallRecord:
    call_id, vendor_s, connect_s, disconnect_s, duration_s, cause_s, rejected_s = fields
    record = CallRecord(
        call_id=call_id,
        vendor=_int_field(vendor_s, "vendor id"),
        connect_time=parse_ts(connect_s),
        disconnect_time=parse_ts(disconnect_s),
        duration_s=_int_field(duration_s, "duration"),
        cause=DisconnectCause(cause_s),
        rejected_by_router=rejected_s == "1",
    )
    _check_written_form(CDR_CSV_HEADER, cdr_fields(record), fields)
    return record


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


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


def csv_sink(handle: TextIO, header: List[str], fields: Callable) -> Callable:
    """Write ``header`` to ``handle``; the returned sink writes each record it
    is given as the row ``fields(record)``."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writerow = writer.writerow
    return lambda record: writerow(fields(record))


def write_cdr_csv(path: Path, records: Iterable[CallRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = csv_sink(handle, CDR_CSV_HEADER, cdr_fields)
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
    id_s, vendor_s, date_s, acd_s, reject_s, prefix = fields
    row = AcdRow(
        id=_int_field(id_s, "row id"),
        vendor=_int_field(vendor_s, "vendor id"),
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


class AcdVendorsTable:
    """Closed-interval rows, two per interval, inserted atomically as a pair.

    Given a path, the table is mirrored to that CSV file: an existing file is
    read back with ``read_acd_csv`` (so it must hold whole pairs), a new one
    gets the header, and each pair is one write plus a flush before it
    becomes visible, so a failed write changes nothing.
    """

    def __init__(self, path: Optional[Path] = None):
        self._lock = threading.Lock()
        self._rows: List[AcdRow] = []
        self._handle: Optional[TextIO] = None
        if path is not None:
            path = Path(path)
            new_file = not path.exists() or path.stat().st_size == 0
            if not new_file:
                self._rows = read_acd_csv(path)
            self._handle = open(path, "a", newline="", encoding="utf-8")
            if new_file:
                self._write([ACD_CSV_HEADER])

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
        with self._lock:
            next_id = len(self._rows) + 1
            rows = (
                AcdRow(next_id, *first),
                AcdRow(next_id + 1, *second),
            )
            if self._handle is not None:
                self._write([_acd_fields(row) for row in rows])
            self._rows.extend(rows)
            return rows[0].id, rows[1].id

    def _write(self, rows: List[Sequence[object]]) -> None:
        self._handle.write(_csv_text(rows))
        self._handle.flush()

    def latest_pair(self) -> Optional[Tuple[AcdRow, AcdRow]]:
        with self._lock:
            if not self._rows:
                return None
            return self._rows[-2], self._rows[-1]

    def rows(self) -> List[AcdRow]:
        with self._lock:
            return list(self._rows)

    def to_csv_text(self) -> str:
        return _csv_text([ACD_CSV_HEADER] + [_acd_fields(row) for row in self.rows()])

    def export_csv(self, path: Path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8", newline="")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
