import csv
import io
import random
import time
from array import array
from datetime import datetime, timedelta, timezone

import pytest

from acdroute.aggregate import ClosedInterval, IntervalAggregator, Schedule, VendorIntervalStats
from acdroute.codec import encode
from acdroute.domain import DisconnectCause, RouteGroup, format_ts, second_texts
from acdroute.rejection import QualityInput, compute_rejection
from acdroute.store import (
    ACD_CSV_HEADER,
    CDR_CSV_HEADER,
    DECISION_CSV_HEADER,
    ROW_BLOCK,
    acd_csv_text,
    attempt_log,
    cdr_row,
    csv_field,
    read_cdr_csv,
)
from conftest import (SECOND, T0, as_read, assert_rows_equal, make_cdr, read_acd_csv, sink_block,
                      spread_cdrs, use_row_writer)
from reference import Record, cdr_lines, csv_lines, vendor_stats, write_cdr_csv

GROUP = RouteGroup((55, 62), (9, 8))


def window_stats(records):
    """The statistics of each ``GROUP`` vendor over ``records``, as the
    reference computes them, in the layout of ``interval_history.json``."""
    return [vendor_stats(v, [r.duration_s for r in records
                             if r.vendor == v and not r.rejected_by_router])
            for v in GROUP.vendors]


def close_window(cdrs, start, end):
    """Feed ``cdrs``, as ``read_cdr_csv`` reads them, to an aggregator opened
    at ``start`` whose only tick, at ``end``, closes the interval if it saw
    any ended call."""
    span_s = (end - start) // SECOND
    start_s = (start - datetime.min) // SECOND
    agg = IntervalAggregator(GROUP, opened_at=start, schedule=Schedule(span_s, span_s, 1))
    agg.add_ended((vendor, end_s - start_s, duration_s, rejected)
                  for vendor, _, end_s, duration_s, rejected in cdrs)
    return agg.tick(span_s)


class TestCdrsFedToAggregator:
    """The CDR log as the interval aggregator takes it: CDRs fed in any
    order, some of them read back from a ``cdrs.csv``."""

    def test_attempt_log_keeps_rejected_and_final_rows(self, tmp_path):
        at = T0 + timedelta(seconds=30)
        records = [make_cdr("dup", 55, at, 0, rejected=True),
                   make_cdr("dup", 62, at + timedelta(seconds=45), 45)]
        path = tmp_path / "cdrs.csv"
        write_cdr_csv(path, records)
        rows, errors = read_cdr_csv(path)
        assert errors == []
        assert rows == as_read(records)
        assert rows[0][4] and not rows[1][4]
        # both attempts reach the aggregator: one counts as rejected, one as received
        closed = close_window(rows, T0, T0 + timedelta(seconds=600))
        assert closed.received == {55: 0, 62: 1}
        assert closed.rejected == {55: 1, 62: 0}

    def test_close_counts_half_open_window_fed_in_reverse(self):
        records = spread_cdrs(55, [60] * 10) + spread_cdrs(62, [30] * 10)
        start = T0 + timedelta(seconds=100)
        end = T0 + timedelta(seconds=700)
        # fed in reverse, not in disconnect order
        closed = close_window(as_read(reversed(records)), start, end)
        hits = [r for r in records if start <= r.disconnect_time < end]
        assert hits and len(hits) < len(records)
        assert encode(closed.stats) == window_stats(hits)
        assert closed.received == {v: sum(r.vendor == v for r in hits) for v in GROUP.vendors}

    @pytest.mark.parametrize("grid_s, reopen_after", [
        (1, None),
        # the first 200 records go to a CSV file in draw order, which is not
        # disconnect order, so reading it back hands them over unsorted
        (1, 200),
        # 13 distinct disconnect times: many CDRs end on a window's edge
        (600, None),
        (600, 200),
    ], ids=["appended", "reopened", "ties", "ties-reopened"])
    def test_random_windows_match_linear_scan(self, tmp_path, grid_s, reopen_after):
        rng = random.Random(314)
        records = []
        for i in range(400):
            vendor = rng.choice((55, 62))
            duration = rng.randint(0, 300)
            at = T0 + timedelta(seconds=rng.randint(0, 7200 // grid_s) * grid_s)
            records.append(make_cdr(f"q{i}", vendor, at, duration))
        if reopen_after is None:
            fed = as_read(records)
        else:
            path = tmp_path / "cdrs.csv"
            written = records[:reopen_after]
            assert written != sorted(written, key=lambda r: r.disconnect_time)
            write_cdr_csv(path, written)
            read_back, errors = read_cdr_csv(path)
            assert errors == []
            fed = read_back + as_read(records[reopen_after:])
        assert fed == as_read(records)
        windows = []
        for _ in range(50):
            a = T0 + timedelta(seconds=rng.randint(0, 7200 // grid_s) * grid_s)
            b = a + timedelta(seconds=rng.randint(1, 3600 // grid_s) * grid_s)
            windows.append((a, b))
        windows.append((T0, T0 + timedelta(seconds=7200 + grid_s)))
        closes = 0
        for a, b in windows:
            closed = close_window(fed, a, b)
            want = [r for r in records if a <= r.disconnect_time < b]
            if not want:
                assert closed is None
                continue
            closes += 1
            assert encode(closed.stats) == window_stats(want)
            assert closed.received == {
                v: sum(r.vendor == v for r in want) for v in GROUP.vendors}
        assert closes >= 40


class TestCdrCsv:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = random.Random(9)
        records = []
        for i in range(60):
            rejected = rng.random() < 0.2
            duration = 0 if rejected else rng.randint(0, 900)
            records.append(
                make_cdr(f"rt{i}", rng.choice((55, 62)),
                         T0 + timedelta(seconds=rng.randint(0, 86000)),
                         duration, rejected=rejected)
            )
        # a router-rejected attempt and the call's final leg share a call id
        at = T0 + timedelta(seconds=30)
        records += [make_cdr("dup", 55, at, 0, rejected=True),
                    make_cdr("dup", 62, at + timedelta(seconds=45), 45)]
        first = tmp_path / "a.csv"
        write_cdr_csv(first, records)
        parsed, errors = read_cdr_csv(first)
        assert errors == []
        assert parsed == as_read(records)
        # the row template, given each CDR's times as read, in seconds after
        # datetime.min, writes the file again
        text = second_texts(datetime.min)
        rows = [cdr_row(csv_field(r.call_id), vendor, text(connect_s), text(end_s), duration_s,
                        r.cause.value, rejected)
                for r, (vendor, connect_s, end_s, duration_s, rejected) in zip(records, parsed)]
        assert first.read_text(encoding="utf-8") == ",".join(CDR_CSV_HEADER) + "\n" + "".join(rows)

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CDR_CSV_HEADER) + "\n"
            "ok1,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,normal,0\n"
            "bad-ts,55,2020/01/01,2020-01-01 00:01:00,0,normal,0\n"
            "bad-cause,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,oops,0\n"
            "bad-dur,55,2020-01-01 00:00:00,2020-01-01 00:00:30,29,normal,0\n"
            "short,55\n",
            encoding="utf-8",
        )
        records, errors = read_cdr_csv(path)
        assert len(records) == 1
        assert [lineno for lineno, _ in errors] == [3, 4, 5, 6]

    @pytest.mark.parametrize("text", [
        "",
        # a blank line 1 is not the header either
        "\nok1,55,2020-01-01 00:00:00,2020-01-01 00:00:30,30,normal,0\n",
    ], ids=["zero-bytes", "blank-line-1"])
    def test_line_1_must_be_the_header(self, tmp_path, text):
        path = tmp_path / "cdrs.csv"
        path.write_text(text, encoding="utf-8")
        _, errors = read_cdr_csv(path)
        assert errors == [(1, "bad header, want " + ",".join(CDR_CSV_HEADER))]

    def test_errors_name_the_line_a_row_starts_on(self, tmp_path):
        # each row of a call id holding a line feed spans two file lines
        good, _, bad = cdr_lines(_awkward_cdrs("a\nb"))
        path = tmp_path / "cdrs.csv"
        path.write_text(",".join(CDR_CSV_HEADER) + "\n" + good + "short,55\n"
                        + bad.replace(",55,", ",055,"), encoding="utf-8")
        records, errors = read_cdr_csv(path)
        assert len(records) == 1
        assert [lineno for lineno, _ in errors] == [4, 5]

    def test_blank_lines_are_skipped(self, tmp_path):
        # blank lines between rows and at the end give the same records and
        # no error; a bad row after them is named by its own line
        records = [make_cdr(f"b{i}", (55, 62)[i % 2], T0 + timedelta(seconds=60 * i), i)
                   for i in range(1, 5)]
        header, *rows = csv_lines([CDR_CSV_HEADER]) + cdr_lines(records)
        path = tmp_path / "cdrs.csv"
        path.write_text(header + rows[0] + "\n\n" + rows[1] + "\r\n" + "".join(rows[2:])
                        + "\n\n", encoding="utf-8")
        assert read_cdr_csv(path) == (as_read(records), [])
        path.write_text(header + "\n" + rows[0] + "\n" + "short,55\n", encoding="utf-8")
        assert read_cdr_csv(path) == (as_read(records[:1]), [(5, "expected 7 fields, got 2")])

    @pytest.mark.parametrize("cause", list(DisconnectCause), ids=lambda c: c.value)
    @pytest.mark.parametrize("at", [datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 30)],
                             ids=["year-1", "year-9999"])
    def test_every_cause_and_boundary_year_reads_back(self, tmp_path, cause, at):
        records = [Record("c1", 55, at, at + timedelta(seconds=29), 29, cause),
                   Record("c2", 62, at, at, 0, cause, rejected_by_router=True)]
        path = tmp_path / "cdrs.csv"
        write_cdr_csv(path, records)
        assert read_cdr_csv(path) == (as_read(records), [])


class TestCdrRowChecks:
    """The checks the reader makes of a row's times and duration: a row is
    refused when its disconnect precedes its connect or its span is not its
    duration, each message naming its call id, and when a timestamp is not
    a calendar time."""

    @staticmethod
    def _read(tmp_path, connect, disconnect, duration, vendor="55"):
        path = tmp_path / "cdrs.csv"
        path.write_text(f"{','.join(CDR_CSV_HEADER)}\n"
                        f"a1,{vendor},{connect},{disconnect},{duration},normal,0\n",
                        encoding="utf-8")
        return read_cdr_csv(path)

    @pytest.mark.parametrize("connect, disconnect, duration, message", [
        ("2020-01-01 12:00:00", "2020-01-01 12:00:56", "56", None),
        ("2020-01-01 12:00:00", "2020-01-01 12:00:00", "0", None),
        ("2020-01-01 12:00:00", "2020-01-01 12:00:00", "1",
         "'a1': duration_s=1 does not match timestamps (0s apart)"),
        ("2020-01-01 12:00:00", "2020-01-01 11:59:59", "0",
         "'a1': disconnect_time precedes connect_time"),
        ("2020-01-01 00:00:00", "2019-12-31 23:59:59", "0",
         "'a1': disconnect_time precedes connect_time"),
        ("2020-01-01 12:00:00", "2020-01-01 12:00:10", "9",
         "'a1': duration_s=9 does not match timestamps (10s apart)"),
        ("2020-01-01 12:00:00", "2020-01-01 12:00:00", "-1", "bad duration '-1'"),
        ("2020-12-31 23:59:50", "2021-01-01 00:00:10", "20", None),
        ("2020-02-28 23:59:59", "2020-03-01 00:00:00", "86401", None),
    ], ids=["answered", "zero-length", "zero-length-mismatch", "disconnect-before-connect",
            "disconnect-on-the-day-before", "duration-mismatch", "negative-duration",
            "across-a-year-end", "across-a-leap-day"])
    def test_row_reads_or_is_refused(self, tmp_path, connect, disconnect, duration, message):
        cdrs, errors = self._read(tmp_path, connect, disconnect, duration)
        if message is None:
            connect_s = (datetime.fromisoformat(connect) - datetime.min) // SECOND
            assert (cdrs, errors) == ([(55, connect_s, connect_s + int(duration),
                                        int(duration), False)], [])
        else:
            assert (cdrs, errors) == ([], [(2, message)])

    def test_negative_vendor(self, tmp_path):
        assert self._read(tmp_path, "2020-01-01 12:00:00", "2020-01-01 12:00:00", "0",
                          vendor="-3") == ([], [(2, "bad vendor id '-3'")])

    @pytest.mark.parametrize("bad", ["2021-02-29 00:00:00", "2020-13-01 00:00:00",
                                     "0000-01-01 00:00:00", "2020-01-01 24:00:00",
                                     "2020-01-01 23:60:00", "2020-01-01 23:59:60",
                                     "2020-02-30 25:00:00"],
                             ids=["february-29-2021", "month-13", "year-0", "hour-24",
                                  "minute-60", "second-60", "day-and-hour"])
    @pytest.mark.parametrize("which", ["connect", "disconnect"])
    def test_a_time_off_the_calendar_is_refused_as_fromisoformat_refuses_it(
            self, tmp_path, bad, which):
        with pytest.raises(ValueError) as refused:
            datetime.fromisoformat(bad)
        good = "2020-01-01 00:00:00"
        times = (bad, good) if which == "connect" else (good, bad)
        assert self._read(tmp_path, *times, "0") == ([], [(2, str(refused.value))])


def interval_closing(at, acds):
    """A closed interval of ``GROUP`` ending at ``at`` with this ACD pair."""
    stats = tuple(VendorIntervalStats(v, 0, 0, 0, 0, 0, 0.0, acd)
                  for v, acd in zip(GROUP.vendors, acds))
    return ClosedInterval(at - timedelta(minutes=20), at, GROUP.vendors, GROUP.prefs, stats,
                          compute_rejection(QualityInput(acds, GROUP.prefs)))


def write_acd_file(path, history, prefix=""):
    path.write_text(acd_csv_text(history, prefix), encoding="utf-8", newline="")
    return path


class TestAcdRows:
    """The acd_vendors table, rendered from the interval history."""

    def test_pair_insert_assigns_sequential_ids(self, tmp_path):
        when = datetime(2020, 1, 1, 17, 13, 6)
        history = [interval_closing(when, (8.67, 0.6)),
                   interval_closing(when + timedelta(minutes=10), (None, 5.33))]
        rows = read_acd_csv(write_acd_file(tmp_path / "acd.csv", history, "37410"))
        assert [(row_id, vendor) for row_id, vendor, *_ in rows] == [
            ("1", "55"), ("2", "62"), ("3", "55"), ("4", "62")]
        assert [row[2] for row in rows] == ["2020-01-01 17:13:06"] * 2 + [
            "2020-01-01 17:23:06"] * 2
        assert rows[0][3:5] == ["8.67", "12.77"]
        assert rows[2][3] == "" and {row[5] for row in rows} == {"37410"}

    def test_absent_acd_round_trips_as_empty_field(self, tmp_path):
        when = datetime(2020, 1, 1, 12, 0, 0)
        out = write_acd_file(tmp_path / "acd.csv", [interval_closing(when, (1.29, None))],
                             "37410")
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(ACD_CSV_HEADER)
        assert ",62,2020-01-01 12:00:00,,0.00,37410" in text
        assert read_acd_csv(out)[1][3] == ""


class TestAcdPairsOnRead:
    """The pair check of an acd_vendors file finds each broken pair and
    names the first offending line."""

    READERS = [pytest.param(read_acd_csv, id="read_acd_csv")]

    @staticmethod
    def _write(tmp_path, edit):
        """Three well-formed pairs, ten minutes apart, with ``edit`` applied
        to the data lines (a list of field lists)."""
        when = datetime(2020, 1, 1, 9, 0, 0)
        history = [interval_closing(when + timedelta(minutes=10 * k), (8.67, 0.6))
                   for k in range(3)]
        header, *rows = [line.split(",") for line in acd_csv_text(history).splitlines()]
        rows = edit(rows)
        path = tmp_path / "acd_vendors.csv"
        path.write_text("".join(",".join(f) + "\n" for f in [header] + rows), encoding="utf-8")
        return path

    @pytest.mark.parametrize("read", READERS)
    def test_well_formed_pairs_read(self, tmp_path, read):
        read(self._write(tmp_path, lambda rows: rows))

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("edit, where", [
        # the second row of the last pair lost: ids 1..5
        (lambda rows: rows[:-1], "line 6: row 5 has no pair"),
        (lambda rows: rows[:1], "line 2: row 1 has no pair"),
        # the middle pair lost: ids 1, 2, 5, 6
        (lambda rows: rows[:2] + rows[4:], "line 4: row id 5, want 3"),
    ], ids=["last-row-lost", "one-row-left", "pair-lost"])
    def test_ids_run_one_to_an_even_n(self, tmp_path, read, edit, where):
        with pytest.raises(ValueError, match=where):
            read(self._write(tmp_path, edit))

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("field, value", [(2, "2020-01-01 09:11:00"), (1, "55")],
                             ids=["two-dates", "one-vendor"])
    def test_pair_shares_a_date_and_names_two_vendors(self, tmp_path, read, field, value):
        def edit(rows):
            rows[3][field] = value
            return rows

        with pytest.raises(ValueError, match="line 5: rows 3 and 4 are not a pair"):
            read(self._write(tmp_path, edit))

    @pytest.mark.parametrize("read", READERS)
    def test_dates_do_not_decrease(self, tmp_path, read):
        def edit(rows):
            for row in rows[4:]:
                row[2] = "2020-01-01 09:05:00"
            return rows

        with pytest.raises(ValueError, match="line 6: date 2020-01-01 09:05:00 precedes row 4"):
            read(self._write(tmp_path, edit))


CDR_LINE = ["c1", "55", "2020-01-01 00:00:00", "2020-01-01 00:00:10", "10", "normal", "0"]


class TestWrittenFormOnRead:
    """The CDR reader accepts a row only as its writer writes it: integers
    are ASCII digits without a sign, spaces, underscores or a leading zero."""

    @pytest.mark.parametrize("field, value", [
        (1, "+5_5"), (1, " 55 "), (1, "٥٥"), (1, "055"), (1, "-55"),
        (4, "١٠"), (4, " 10 "), (4, "+10"), (4, "010"), (4, "1_0"), (4, ""),
        # quoted, so the row still splits into seven fields
        (1, "5,5"),
    ])
    def test_cdr_integer_fields(self, tmp_path, field, value):
        row = list(CDR_LINE)
        row[field] = value
        path = tmp_path / "cdrs.csv"
        path.write_text("\n".join([",".join(CDR_CSV_HEADER), ",".join(CDR_LINE),
                                   ",".join(map(csv_field, row))]) + "\n", encoding="utf-8")
        records, errors = read_cdr_csv(path)
        assert len(records) == 1 and [lineno for lineno, _ in errors] == [3]
        assert repr(value) in errors[0][1]


def _writer_text(rows):
    """What ``csv.writer`` writes of ``rows``, as the reference writes it."""
    return "".join(csv_lines(rows))


class TestCsvField:
    """``csv_field`` writes a field as the running Python's ``csv.writer``
    does with the "\\r\\n" line terminator; its handling of a NUL differs by
    version."""

    ALPHABET = [",", '"', "\r", "\n", "\0", " ", "\t", "a", "Z", "7", "_", "-",
                "é", "ß", "Ж", "٥", "²", "中"]

    @staticmethod
    def _written_as(text):
        """The field ``csv.writer`` writes for ``text`` first, in the middle
        and last in a row, or ``csv.Error`` for each when it refuses it."""
        try:
            return [_writer_text([[text, "x"]])[:-3],
                    _writer_text([["x", text, "x"]])[2:-3],
                    _writer_text([["x", text]])[2:-1]]
        except csv.Error:
            return [csv.Error] * 3

    def test_matches_csv_writer(self):
        rng = random.Random(1107)
        texts = [""] + ["".join(rng.choices(self.ALPHABET, k=rng.randint(0, 6)))
                        for _ in range(3000)]
        for text in texts:
            try:
                got = csv_field(text)
            except ValueError:  # what the writer refuses
                got = csv.Error
            assert [got] * 3 == self._written_as(text), repr(text)


# text fields a CSV file must quote, or that a hand-written rule gets wrong
AWKWARD = ["a,b", 'a"b', "a\nb", "a\rb", " x", "é"]


def _cdr_field_list(record):
    """The fields of a CDR's row, spelt out: the reference for the row
    template."""
    return [record.call_id, str(record.vendor), format_ts(record.connect_time),
            format_ts(record.disconnect_time), str(record.duration_s),
            record.cause.value, "1" if record.rejected_by_router else "0"]


def _acd_field_lists(history, prefix):
    """The fields of each acd_vendors row of ``history``, spelt out: the
    reference for the row template."""
    rows = []
    for closed in history:
        for vendor, stats, reject_pct in zip(closed.vendors, closed.stats,
                                             closed.result.reject_pct):
            rows.append([str(len(rows) + 1), str(vendor), format_ts(closed.closed_at),
                         "" if stats.acd_min is None else str(stats.acd_min),
                         f"{reject_pct:.2f}", prefix])
    return rows


def _awkward_cdrs(call_id):
    at = T0 + timedelta(seconds=90)
    return [make_cdr(call_id, 55, at, 30), make_cdr(call_id, 62, at, 0),
            make_cdr(call_id, 55, at, 0, rejected=True)]


# two intervals: a reject_pct above 0, an absent ACD, and ids 1..4
AWKWARD_HISTORY = [interval_closing(T0 + timedelta(minutes=20), (8.67, 0.6)),
                   interval_closing(T0 + timedelta(minutes=40), (8.67, None))]


class TestAwkwardTextFields:
    """Call ids and prefixes are free text; a file holds them quoted exactly
    as ``csv.writer`` quotes them, and reads them back unchanged."""

    @pytest.mark.parametrize("text", [*AWKWARD, "37,410", ""])
    def test_written_as_csv_writer_writes_the_fields(self, tmp_path, text):
        records = _awkward_cdrs(text)
        cdr_text = "".join([",".join(CDR_CSV_HEADER) + "\n", *(
            cdr_row(csv_field(r.call_id), r.vendor, format_ts(r.connect_time),
                    format_ts(r.disconnect_time), r.duration_s, r.cause.value,
                    r.rejected_by_router) for r in records)])
        assert cdr_text == _writer_text([CDR_CSV_HEADER, *map(_cdr_field_list, records)])
        assert acd_csv_text(AWKWARD_HISTORY, text) == _writer_text(
            [ACD_CSV_HEADER, *_acd_field_lists(AWKWARD_HISTORY, text)])

    @pytest.mark.parametrize("call_id", AWKWARD)
    def test_cdr_reads_back(self, tmp_path, call_id):
        records = _awkward_cdrs(call_id)
        path = tmp_path / "cdrs.csv"
        write_cdr_csv(path, records)
        assert read_cdr_csv(path) == (as_read(records), [])

    @pytest.mark.parametrize("prefix", [*AWKWARD, "37,410", ""])
    def test_acd_prefix_reads_back(self, tmp_path, prefix):
        path = write_acd_file(tmp_path / "acd_vendors.csv", AWKWARD_HISTORY, prefix)
        assert read_acd_csv(path) == _acd_field_lists(AWKWARD_HISTORY, prefix)


# billing's order in the runs these tests stand for
VENDORS = (55, 62)


def _attempt(call_id, vendor, connect, duration, rejected=False):
    """The CDR of an attempt that connected at ``connect``: refused,
    answered for ``duration`` seconds, or failed at the vendor."""
    cause = (DisconnectCause.OTHER if rejected else DisconnectCause.NORMAL_CLEARING
             if duration else DisconnectCause.NO_USER_RESPONDING)
    return Record(call_id, vendor, connect, connect + timedelta(0, duration), duration, cause,
                  rejected)


def _attempts(n):
    """``n`` attempts as ``run_scenario`` hands them to its sink, in a run
    that started at ``T0`` and routes over ``VENDORS``: whole calls, each
    answered at once, or refused or failed at 55 and then answered or failed
    at 62; the last call is answered at once if one attempt is left."""
    attempts = []
    number = 0
    while len(attempts) < n:
        number += 1
        call_id, t_s = f"c{number:06d}", number / 1.7
        connect = T0 + timedelta(0, int(t_s))
        shape = 0 if len(attempts) == n - 1 else number % 5
        duration = number % 7 + 1
        if shape == 0:
            legs = [(55, duration, False)]
        else:
            legs = [(55, 0, shape % 2 == 1), (62, duration if shape < 3 else 0, False)]
        attempts += [(_attempt(call_id, vendor, connect, seconds, rejected), t_s)
                     for vendor, seconds, rejected in legs]
    return attempts


def _log_attempts(tmp_path, attempts, start=T0):
    """The text of ``cdrs.csv`` and the rows of ``decisions.csv``, as ``csv``
    splits them, after ``attempt_log`` was given ``attempts`` of a run that
    started at ``start`` as one block."""
    cdrs, decisions = tmp_path / "cdrs.csv", tmp_path / "decisions.csv"
    with attempt_log(cdrs, decisions, start, VENDORS) as on_attempts:
        on_attempts(*sink_block(attempts, start, VENDORS))
    with open(decisions, newline="", encoding="utf-8") as handle:
        decision_rows = list(csv.reader(handle))
    assert decision_rows[0] == DECISION_CSV_HEADER
    return cdrs.read_bytes().decode("utf-8"), decision_rows[1:]


def _decision_fields(seq, record, t_s):
    """The fields of an attempt's ``decisions.csv`` row, spelt out."""
    rejected = record.rejected_by_router
    return [str(seq), f"{t_s:.3f}", record.call_id, str(record.vendor),
            "0" if rejected else "1", "503" if rejected else ""]


class TestAttemptLog:
    """``simulate``'s sink: one CDR row and one decision row per attempt,
    written a block of rows at a time."""

    @pytest.mark.parametrize("n", [blocks * ROW_BLOCK + extra for blocks in (1, 2, 3)
                                   for extra in (-1, 0, 1)])
    def test_every_row_is_written_in_order(self, tmp_path, n):
        attempts = _attempts(n)
        cdr_text, decisions = _log_attempts(tmp_path, attempts)
        header, *rows = cdr_text.splitlines(keepends=True)
        assert header == ",".join(CDR_CSV_HEADER) + "\n"
        assert_rows_equal(rows, cdr_lines(record for record, _ in attempts))
        assert_rows_equal(decisions, [_decision_fields(seq, record, t_s)
                                      for seq, (record, t_s) in enumerate(attempts)])
        # row i of decisions.csv is the decision on row i of cdrs.csv
        cdrs = list(csv.reader(io.StringIO(cdr_text)))[1:]
        assert len(cdrs) == len(decisions) == n
        for decision, cdr in zip(decisions, cdrs):
            assert decision[2:5] == [cdr[0], cdr[1], "0" if cdr[6] == "1" else "1"]

    def test_a_block_decodes_call_by_call(self, tmp_path, row_writer):
        # call 41 fails at 55 and is refused at 62, so it is abandoned; call
        # 42 is refused at 55 and answered at 62 after 17 s; call 43 is
        # answered at 55 after 5 s; a second block numbers on from 44
        cdrs, decisions = tmp_path / "cdrs.csv", tmp_path / "decisions.csv"
        with attempt_log(cdrs, decisions, T0, VENDORS) as on_attempts:
            on_attempts(41, array("d", [0.5, 61.25, 61.75]), array("q", [0, -1, -1, 17, 5]))
            on_attempts(44, array("d", [3600.0]), array("q", [0, 0]))
        day = "2020-01-01"
        assert cdrs.read_text(encoding="utf-8").splitlines()[1:] == [
            f"c000041,55,{day} 00:00:00,{day} 00:00:00,0,no_answer,0",
            f"c000041,62,{day} 00:00:00,{day} 00:00:00,0,other,1",
            f"c000042,55,{day} 00:01:01,{day} 00:01:01,0,other,1",
            f"c000042,62,{day} 00:01:01,{day} 00:01:18,17,normal,0",
            f"c000043,55,{day} 00:01:01,{day} 00:01:06,5,normal,0",
            f"c000044,55,{day} 01:00:00,{day} 01:00:00,0,no_answer,0",
            f"c000044,62,{day} 01:00:00,{day} 01:00:00,0,no_answer,0"]
        assert decisions.read_text(encoding="utf-8").splitlines()[1:] == [
            "0,0.500,c000041,55,1,", "1,0.500,c000041,62,0,503", "2,61.250,c000042,55,0,503",
            "3,61.250,c000042,62,1,", "4,61.750,c000043,55,1,", "5,3600.000,c000044,55,1,",
            "6,3600.000,c000044,62,1,"]

    def test_each_text_follows_its_own_source(self, tmp_path):
        # calls whose times compare equal but are written otherwise (0.0 and
        # -0.0), and calls whose times differ in their text but connect in
        # one second; across runs one instant under two offsets as the
        # start; the block's first call number above 1. The sink is handed no
        # disconnect time: it renders an answered leg's from its connect
        # second and duration, and an aware start's times as their wall times.
        instant = datetime(2020, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
        shifted = instant.astimezone(timezone(timedelta(hours=1)))
        assert shifted == instant
        for start, hour in ((T0, 0), (instant, 12), (shifted, 13)):
            self._check_texts(tmp_path, start, hour)

    @staticmethod
    def _check_texts(tmp_path, start, hour):
        # (call number, time, [(vendor, duration, rejected), ...])
        calls = [(7, 0.0, [(55, 0, True), (62, 5, False)]),
                 (8, -0.0, [(55, 0, False), (62, 2, False)]),
                 (9, 86400.0006, [(55, 3, False)]),
                 (10, 86400.0004, [(55, 0, True), (62, 0, False)])]
        attempts = [(_attempt(f"c{number:06d}", vendor, start + timedelta(0, int(t_s)), duration,
                              rejected), t_s)
                    for number, t_s, legs in calls for vendor, duration, rejected in legs]
        records = [record for record, _ in attempts]
        cdr_text, decisions = _log_attempts(tmp_path, attempts, start)

        def wall(ts):
            return f"{ts:%Y-%m-%d %H:%M:%S}"

        assert cdr_text == _writer_text([CDR_CSV_HEADER, *(
            [r.call_id, str(r.vendor), wall(r.connect_time), wall(r.disconnect_time),
             str(r.duration_s), r.cause.value, "1" if r.rejected_by_router else "0"]
            for r in records)])
        assert [row[2:4] for row in csv.reader(io.StringIO(cdr_text))][1:] == [
            [f"2020-01-{dd} {hour:02d}:00:00", f"2020-01-{dd} {hour:02d}:00:{end}"]
            for dd, end in (("01", "00"), ("01", "05"), ("01", "00"), ("01", "02"),
                            ("02", "03"), ("02", "00"), ("02", "00"))]
        assert decisions == [_decision_fields(seq, record, t_s)
                             for seq, (record, t_s) in enumerate(attempts)]
        assert [row[1:3] for row in decisions] == [
            ["0.000", "c000007"], ["0.000", "c000007"], ["-0.000", "c000008"],
            ["-0.000", "c000008"], ["86400.001", "c000009"], ["86400.000", "c000010"],
            ["86400.000", "c000010"]]

    def test_rows_made_before_an_error_are_written(self, tmp_path, monkeypatch):
        # the first block is written as it fills, the rest as the error ends
        # the run; a writer process writes the first block a little later,
        # so this runs the rows in this process
        use_row_writer(monkeypatch, False)
        attempts = _attempts(ROW_BLOCK + 10)
        rows = cdr_lines(record for record, _ in attempts)
        cdrs, decisions = tmp_path / "cdrs.csv", tmp_path / "decisions.csv"
        with pytest.raises(OSError, match="disk quota exceeded"):
            with attempt_log(cdrs, decisions, T0, VENDORS) as on_attempts:
                on_attempts(*sink_block(attempts, T0, VENDORS))
                assert_rows_equal(
                    cdrs.read_text(encoding="utf-8").splitlines(keepends=True)[1:],
                    rows[:ROW_BLOCK])
                raise OSError("disk quota exceeded")
        assert_rows_equal(cdrs.read_text(encoding="utf-8").splitlines(keepends=True)[1:], rows)
        assert_rows_equal(decisions.read_text(encoding="utf-8").splitlines(keepends=True)[1:], [
            ",".join(_decision_fields(seq, record, t_s)) + "\n"
            for seq, (record, t_s) in enumerate(attempts)])

    def test_rows_made_before_an_error_are_written_by_the_writer_process(self, tmp_path,
                                                                         monkeypatch):
        # the writer process writes the first block while the run goes on,
        # and the rest as the error ends the run
        use_row_writer(monkeypatch, True)
        attempts = _attempts(ROW_BLOCK + 10)
        rows = cdr_lines(record for record, _ in attempts)
        cdrs, decisions = tmp_path / "cdrs.csv", tmp_path / "decisions.csv"
        with pytest.raises(OSError, match="disk quota exceeded"):
            with attempt_log(cdrs, decisions, T0, VENDORS) as on_attempts:
                on_attempts(*sink_block(attempts, T0, VENDORS))
                deadline = time.monotonic() + 10
                while cdrs.read_bytes().count(b"\n") < 1 + ROW_BLOCK:  # whole lines
                    assert time.monotonic() < deadline, "the first block was not written"
                    time.sleep(0.01)
                assert_rows_equal(
                    cdrs.read_text(encoding="utf-8").splitlines(keepends=True)[1:],
                    rows[:ROW_BLOCK])
                raise OSError("disk quota exceeded")
        assert_rows_equal(cdrs.read_text(encoding="utf-8").splitlines(keepends=True)[1:], rows)
        assert_rows_equal(decisions.read_text(encoding="utf-8").splitlines(keepends=True)[1:], [
            ",".join(_decision_fields(seq, record, t_s)) + "\n"
            for seq, (record, t_s) in enumerate(attempts)])
