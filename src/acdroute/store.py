"""Flat-file persistence: every CSV row template, the streamed attempt log,
and the one CDR reader.

Each CSV file has one row template, which builds a whole line as one
f-string: ``cdr_row`` for CDRs, the decision row inside ``attempt_log``, and
the acd_vendors row inside ``acd_csv_text``. Their only free text, a call id
or a prefix, goes through ``csv_field``, which quotes it as a ``csv.writer``
ending lines with ``"\\r\\n"`` does, so a carriage return is quoted on every
Python version and the row reads back whole; every other field is drawn from
a fixed alphabet that needs no quoting. ``cdr_row`` takes a CDR's fields, the
call id and the two timestamps as text ready made: ``attempt_log`` renders
them with ``second_texts``, each only when its source changes, an answered
leg's disconnect from its connect second and duration.

``attempt_log`` is ``simulate``'s sink and the one CDR writer. ``run_scenario``
hands it packed blocks of one integer an attempt, each once it holds
``SEND_BLOCK`` attempts (up to one more with two vendors), before every tick
and at the end. It writes each attempt's CDR row and decision row: a block is
rendered in one loop and written as one text per file.
Where ``os.fork`` exists and the process may run on two or more CPUs, a
forked writer process off the run's CPU renders the rows: the sink sends a
block's arrays as raw bytes, and only a writer's exception, raised again on
exit, is pickled. The writer process made ``simulate`` 1.2-1.3x faster in
calls a second (``BENCH_row_writer.json``), and packed blocks 1.13-1.17x more
(``BENCH_packed_blocks.json``). With one CPU it would cost ~30 %, so the rows
are rendered in-process.
``acd_csv_text`` renders an interval history as the acd_vendors file, each
closed interval as its pair of rows, after the run; no command reads that
file back. ``read_cdr_csv`` is the one reader. It accepts a CDR row only in
the form ``cdr_row`` writes it, checked as one match against
``_CDR_FIELDS``, the row grammar, and reads it as ``aggregate.Cdr``'s tuple.
"""

from __future__ import annotations

import csv
import io
import os
import re
import signal
from array import array
from contextlib import contextmanager, suppress
from datetime import date, datetime, time
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, NoReturn, Set, TextIO, Tuple

from .admission import REJECTION_CODE
from .aggregate import Cdr, ClosedInterval
from .domain import _TS_TEXT, DisconnectCause, format_ts, second_texts

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
    rendered by the writer, since its rules differ between versions. Text
    the writer refuses (3.10 refuses a NUL) is a ``ValueError``."""
    if text.isalnum():
        return text
    buffer = io.StringIO()
    try:
        # a second, empty field: a row of one empty field is written as ""
        csv.writer(buffer, lineterminator="\r\n").writerow((text, ""))
    except csv.Error as exc:
        raise ValueError(f"cannot write {text!r} as a CSV field: {exc}") from None
    return buffer.getvalue()[:-3]


# the id text of a run's call number n, from 1, which only the row renderer
# makes: letters and digits; a built-in method, which ``map`` runs frameless
call_id = "c%06d".__mod__


def cdr_row(call_text: str, vendor: object, connect_text: str, disconnect_text: str,
            duration_s: int, cause: str, rejected: bool) -> str:
    """The CDR row template: a CDR's row of a CDR CSV file, line end
    included, from its fields, with the text of its call id (as ``csv_field``
    writes it), of its vendor id (or the int itself), of its two timestamps
    (as ``format_ts`` writes them) and of its cause (a ``DisconnectCause``)."""
    return (f"{call_text},{vendor},{connect_text},{disconnect_text},{duration_s},"
            f"{cause},{'1' if rejected else '0'}\n")


# attempts ``run_scenario`` hands its sink at once, sent to the writer process
# as one message of ~3 KB (8 bytes a call and an attempt) and written to each
# file as one text
SEND_BLOCK = 256

if TYPE_CHECKING:  # built at run time, it would cost every import
    # takes a block (first, times, codes) in run order; the arrays are its to keep
    Sink = Callable[[int, array, array], object]


def _row_renderer(cdr_file: TextIO, decision_file: TextIO, start: datetime,
                  vendors: List[int]) -> Sink:
    """Write both headers, and return the sink that renders a block's rows in
    one loop and writes them as one text per file, also if a row fails."""
    cdr_file.write(",".join(CDR_CSV_HEADER) + "\n")
    decision_file.write(",".join(DECISION_CSV_HEADER) + "\n")
    refused = f"0,{REJECTION_CODE}"
    normal, no_answer, other = (cause.value for cause in (
        DisconnectCause.NORMAL_CLEARING, DisconnectCause.NO_USER_RESPONDING, DisconnectCause.OTHER))
    ts_text = second_texts(start)
    vendor_texts, last = [str(vendor) for vendor in vendors], len(vendors) - 1
    seq = 0

    def on_attempts(first: int, times: array, codes: array) -> None:
        nonlocal seq
        cdr_rows: List[str] = []
        decision_rows: List[str] = []
        # each call's id text, time text and connect second, made in C loops
        calls = zip(map(call_id, range(first, first + len(times))),
                    map("{:.3f}".format, times), map(int, times))
        connect_key = None
        place = 0  # the attempt's place in billing's order; 0 starts a call
        try:
            for code in codes:
                if not place:
                    call_text, t_text, second = next(calls)
                    if second != connect_key:
                        connect_key = second
                        connect_text = ts_text(second)
                vendor = vendor_texts[place]
                answered, rejected = code > 0, code < 0
                cdr_rows.append(cdr_row(
                    call_text, vendor, connect_text,
                    ts_text(second + code) if answered else connect_text, code if answered else 0,
                    normal if answered else other if rejected else no_answer, rejected))
                decision_rows.append(f"{seq},{t_text},{call_text},{vendor},"
                                     f"{refused if rejected else '1,'}\n")
                seq += 1
                # an answer ends the call, as does billing's last vendor
                place = 0 if answered or place == last else place + 1
        finally:
            cdr_file.write("".join(cdr_rows))
            decision_file.write("".join(decision_rows))

    return on_attempts


def _write_rows(blocks_fd: int, error_fd: int, cdr_file: TextIO, decision_file: TextIO,
                start: datetime, vendors: List[int], cpus: Set[int]) -> NoReturn:
    """The writer process; it ends by ``os._exit``, running none of the parent's exit."""
    try:
        with open(error_fd, "wb") as errors:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C ends the run, so the blocks
                with suppress(OSError):  # a refused move leaves the writer where it is
                    os.sched_setaffinity(0, cpus)
                with cdr_file, decision_file, open(blocks_fd, "rb") as blocks, suppress(EOFError):
                    on_attempts = _row_renderer(cdr_file, decision_file, start, vendors)
                    # until the parent closes its end, or ends while it sends a block
                    while True:
                        head, times, codes = array("q"), array("d"), array("q")
                        head.fromfile(blocks, 3)
                        times.fromfile(blocks, head[1])
                        codes.fromfile(blocks, head[2])
                        on_attempts(head[0], times, codes)
            except BaseException as exc:
                import pickle  # only an error crosses back, and only this path pickles
                try:
                    errors.write(pickle.dumps(exc))
                except Exception:  # an exception that does not pickle
                    errors.write(pickle.dumps(RuntimeError(f"row writer: {exc!r}")))
    finally:
        os._exit(0)


@contextmanager
def attempt_log(cdr_path: Path, decision_path: Path, start: datetime,
                vendors: List[int]) -> Iterator[Sink]:
    """Open a CDR CSV file and a decisions file, write their headers, and
    yield the sink ``on_attempts(first, times, codes)`` that ``run_scenario``
    hands each block to: it appends each attempt's CDR row to the first file
    and its decision row, numbered from 0, to the second.

    A block holds whole calls: call ``n``, from ``first`` on, has the id
    ``call_id(n)`` and the time ``times[n - first]`` in seconds after
    ``start``, and connects at its whole second. ``codes`` holds one code an
    attempt, each call's attempts walking ``vendors``, billing's order, until
    a vendor answers: the leg's duration (at least 1 s) when the vendor
    answered, which ends the call; 0 when the leg failed; -1 when the clone
    refused it.

    A block is rendered and written as one text per file, the rows made
    before an exception in it included. On exit, normal or by an exception,
    every row made so far is written and both files are closed, so each file
    holds whole rows only. With two or more CPUs, a forked writer process
    renders them, each block sent to it as one message (see the module); on
    every exit the writer is reaped.

    A block builds each second's connect text once: every time is rendered
    from the one ``start``, so equal seconds have one text. A zero-length
    leg's disconnect text is its connect text; an answered leg's is that of
    its connect second plus its duration, an ``OverflowError`` past the year
    9999.
    """
    with open(cdr_path, "w", newline="", encoding="utf-8") as cdr_file, \
            open(decision_path, "w", newline="", encoding="utf-8") as decision_file:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        if not (hasattr(os, "fork") and len(cpus) >= 2):
            yield _row_renderer(cdr_file, decision_file, start, vendors)
            return
        # the writer keeps off the run's CPU (field 39 of /proc/self/stat): the
        # kernel can leave a new process beside its parent for a second or more
        with suppress(OSError, ValueError, IndexError), open("/proc/self/stat", "rb") as stat:
            cpus = cpus - {int(stat.read().rpartition(b")")[2].split()[36])} or cpus
        (blocks_fd, send_fd), (error_fd, child_error_fd) = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            for fd in (send_fd, error_fd):
                os.close(fd)
            _write_rows(blocks_fd, child_error_fd, cdr_file, decision_file, start, vendors, cpus)
    for fd in (blocks_fd, child_error_fd):
        os.close(fd)

    with open(error_fd, "rb") as errors, open(send_fd, "wb") as sender:
        def on_attempts(first: int, times: array, codes: array) -> None:
            # one write, so a block that cannot be sent is not begun, flushed
            # so the writer has each block as it is handed, not one behind; a
            # BrokenPipeError, once the writer has ended, ends the run
            sender.write(b"".join((array("q", (first, len(times), len(codes))), times, codes)))
            sender.flush()

        try:
            yield on_attempts
        finally:
            try:
                with suppress(BrokenPipeError):  # the writer ended early: its error follows
                    sender.close()
            finally:  # whatever ended the run, the writer is reaped
                error = errors.read()
                status = os.waitpid(pid, 0)[1]
            if error:
                import pickle
                raise pickle.loads(error)
            if status:
                raise ChildProcessError(f"the row writer ended with wait status {status}")


# The row grammar: the six fields of a CDR row after its call id, each in the
# one form ``cdr_row`` writes it. ``[0-9]``, because ``\d`` in a str pattern
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


def _midnight_s(day: str) -> int:
    """A date text's midnight in whole seconds after ``datetime.min``."""
    return (date.fromisoformat(day).toordinal() - 1) * 86400


def _clock_s(clock: str) -> int:
    """A clock text's second of the day."""
    wall = time.fromisoformat(clock)
    return wall.hour * 3600 + wall.minute * 60 + wall.second


def _cdr(row: List[str], midnight_s: Callable[[str], int], clock_s: Callable[[str], int]) -> Cdr:
    """A row's CDR, its times read by ``midnight_s`` and ``clock_s``; a
    ``ValueError`` names the field or the times at fault."""
    if len(row) != len(CDR_CSV_HEADER):
        raise ValueError(f"expected {len(CDR_CSV_HEADER)} fields, got {len(row)}")
    fields = _CDR_TAIL.fullmatch(",".join(row[1:]))
    if fields is None:
        name, text = next((name, text) for (name, pattern), text in zip(_CDR_FIELDS, row[1:])
                          if re.fullmatch(pattern, text) is None)
        raise ValueError(f"bad {name} {text!r}")
    (vendor, connect, connect_day, connect_clock, disconnect, end_day, end_clock,
     duration, _, rejected) = fields.groups()
    connect_s = midnight_s(connect_day) + clock_s(connect_clock)
    # a zero-length leg repeats its connect time: no second read
    end_s = connect_s if disconnect == connect else midnight_s(end_day) + clock_s(end_clock)
    duration_s = int(duration)
    if end_s < connect_s:
        raise ValueError(f"{row[0]!r}: disconnect_time precedes connect_time")
    if end_s - connect_s != duration_s:
        raise ValueError(f"{row[0]!r}: duration_s={duration_s} does not match "
                         f"timestamps ({end_s - connect_s}s apart)")
    return int(vendor), connect_s, end_s, duration_s, rejected == "1"


def read_cdr_csv(path: Path) -> Tuple[List[Cdr], List[Tuple[int, str]]]:
    """Parse a CDR CSV file into (cdrs, errors), a CDR being ``Cdr``'s plain
    tuple and an error a (line_number, message) pair, where a row's line is
    the file line it starts on; well-formed rows are kept even when other
    rows are malformed. Line 1 must be the header. A blank line after it,
    between rows or at the end, is skipped and still counted. A line the csv
    module cannot split (a field over its size limit) or a byte that is not
    UTF-8 makes the whole file a ``ValueError`` naming the file."""
    cdrs: List[Cdr] = []
    errors: List[Tuple[int, str]] = []
    # each date and clock text is read once a file; a bad one is not kept
    midnight_s, clock_s = lru_cache(maxsize=None)(_midnight_s), lru_cache(maxsize=None)(_clock_s)
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
                    cdrs.append(_cdr(row, midnight_s, clock_s))
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {end + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            # the reader decodes ahead of its rows, so no row's line is known
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return cdrs, errors


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
