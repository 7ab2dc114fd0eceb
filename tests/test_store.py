import random
from datetime import datetime, timedelta

import pytest

from acdroute.store import (
    ACD_CSV_HEADER,
    AcdRow,
    AcdVendorsTable,
    CDR_CSV_HEADER,
    CdrStore,
    _CsvLog,
    read_acd_csv,
    read_cdr_csv,
    write_cdr_csv,
)
from conftest import T0, make_cdr, spread_cdrs


class TestCdrStore:
    def test_ids_are_monotonic(self):
        store = CdrStore()
        ids = [store.append_cdr(r) for r in spread_cdrs(55, [0, 10, 20])]
        assert ids == [1, 2, 3]

    def test_attempt_log_keeps_rejected_and_final_rows(self):
        store = CdrStore()
        at = T0 + timedelta(seconds=30)
        store.append_cdr(make_cdr("dup", 55, at, 0, rejected=True))
        store.append_cdr(make_cdr("dup", 62, at + timedelta(seconds=45), 45))
        rows = store.all_records()
        assert len(rows) == 2
        assert rows[0].rejected_by_router and not rows[1].rejected_by_router

    def test_query_half_open_range_sorted(self):
        store = CdrStore()
        for r in spread_cdrs(55, [60] * 10) + spread_cdrs(62, [30] * 10):
            store.append_cdr(r)
        start = T0 + timedelta(seconds=100)
        end = T0 + timedelta(seconds=700)
        hits = store.query_cdrs(time_range=(start, end))
        assert hits
        for record in hits:
            assert start <= record.disconnect_time < end
        assert hits == sorted(hits, key=lambda r: r.disconnect_time)
        only55 = store.query_cdrs(vendor=55, time_range=(start, end))
        assert all(r.vendor == 55 for r in only55)

    def test_boundary_is_half_open(self):
        store = CdrStore()
        edge = T0 + timedelta(seconds=600)
        store.append_cdr(make_cdr("edge", 55, edge, 5))
        assert store.query_cdrs(time_range=(T0, edge)) == []
        assert len(store.query_cdrs(time_range=(edge, edge + timedelta(1)))) == 1

    def test_inverted_range_rejected(self):
        store = CdrStore()
        with pytest.raises(ValueError):
            store.query_cdrs(time_range=(T0, T0 - timedelta(seconds=1)))

    def test_empty_store_queries_empty(self):
        assert CdrStore().query_cdrs(time_range=(T0, T0 + timedelta(days=1))) == []

    @pytest.mark.parametrize("grid_s, reopen_after", [
        (1, None),
        # the first 200 records go to a CSV file in draw order, which is not
        # disconnect order, so reopening it must rebuild the index
        (1, 200),
        # 13 distinct disconnect times: ties must keep insertion order
        (600, None),
        (600, 200),
    ], ids=["appended", "reopened", "ties", "ties-reopened"])
    def test_random_queries_match_linear_scan(self, tmp_path, grid_s, reopen_after):
        rng = random.Random(314)
        records = []
        for i in range(400):
            vendor = rng.choice((55, 62))
            duration = rng.randint(0, 300)
            at = T0 + timedelta(seconds=rng.randint(0, 7200 // grid_s) * grid_s)
            records.append(make_cdr(f"q{i}", vendor, at, duration))
        if reopen_after is None:
            store = CdrStore()
            appended = records
        else:
            path = tmp_path / "cdrs.csv"
            written = records[:reopen_after]
            assert written != sorted(written, key=lambda r: r.disconnect_time)
            write_cdr_csv(path, written)
            store = CdrStore(path)
            appended = records[reopen_after:]
        for record in appended:
            store.append_cdr(record)
        queries = []
        for _ in range(50):
            a = T0 + timedelta(seconds=rng.randint(0, 7200 // grid_s) * grid_s)
            b = a + timedelta(seconds=rng.randint(0, 3600 // grid_s) * grid_s)
            queries.append((rng.choice((None, 55, 62)), (a, b)))
        queries += [(vendor, None) for vendor in (None, 55, 62)]
        for vendor, time_range in queries:
            got = store.query_cdrs(vendor=vendor, time_range=time_range)
            want = [
                r for r in records
                if (vendor is None or r.vendor == vendor)
                and (time_range is None or time_range[0] <= r.disconnect_time < time_range[1])
            ]
            # stable sort keeps insertion order for equal disconnect times,
            # which is exactly the store's ordering contract
            assert got == sorted(want, key=lambda r: r.disconnect_time)
        store.close()

    def test_failed_write_changes_nothing(self, tmp_path, monkeypatch):
        store = CdrStore(tmp_path / "live.csv")
        for record in spread_cdrs(55, [10, 0, 77]) + spread_cdrs(62, [5, 9], tag="y"):
            store.append_cdr(record)
        queries = [
            (vendor, time_range)
            for vendor in (None, 55, 62)
            for time_range in (None, (T0, T0 + timedelta(seconds=600)),
                               (T0, T0 + timedelta(seconds=1200)))
        ]
        records_before = store.all_records()
        answers_before = [store.query_cdrs(vendor=v, time_range=r) for v, r in queries]

        def failing_write(self, rows):
            raise OSError("disk full")

        monkeypatch.setattr(_CsvLog, "_write", failing_write)
        # ends mid-log, where an index updated before the write would show it
        with pytest.raises(OSError):
            store.append_cdr(make_cdr("lost", 55, T0 + timedelta(seconds=500), 30))
        assert store.all_records() == records_before
        assert [store.query_cdrs(vendor=v, time_range=r) for v, r in queries] == answers_before
        store.close()


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
        first = tmp_path / "a.csv"
        write_cdr_csv(first, records)
        parsed, errors = read_cdr_csv(first)
        assert errors == []
        second = tmp_path / "b.csv"
        write_cdr_csv(second, parsed)
        assert first.read_bytes() == second.read_bytes()

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

    def test_live_file_mirror(self, tmp_path):
        path = tmp_path / "live.csv"
        store = CdrStore(path)
        for record in spread_cdrs(55, [10, 0, 77]):
            store.append_cdr(record)
        store.close()
        parsed, errors = read_cdr_csv(path)
        assert errors == []
        assert parsed == store.all_records()

    def test_reopened_file_store_keeps_history(self, tmp_path):
        path = tmp_path / "live.csv"
        store = CdrStore(path)
        first_batch = spread_cdrs(55, [10, 0, 77])
        for record in first_batch:
            store.append_cdr(record)
        store.close()
        again = CdrStore(path)
        assert again.all_records() == first_batch
        extra = spread_cdrs(62, [5], tag="y")[0]
        assert again.append_cdr(extra) == 4
        again.close()
        parsed, errors = read_cdr_csv(path)
        assert errors == []
        assert len(parsed) == 4


class TestAcdVendorsTable:
    def test_pair_insert_assigns_sequential_ids(self):
        table = AcdVendorsTable()
        when = datetime(2020, 1, 1, 17, 13, 6)
        ids = table.insert_acd_rows((55, when, 8.67, 12.77, "37410"),
                                    (62, when, 0.6, 0.0, "37410"))
        assert ids == (1, 2)
        ids2 = table.insert_acd_rows((55, when, None, 0.0, "37410"),
                                     (62, when, 5.33, 0.0, "37410"))
        assert ids2 == (3, 4)

    def test_latest_pair_read_your_writes(self):
        table = AcdVendorsTable()
        when = datetime(2020, 1, 1, 12, 0, 0)
        assert table.latest_pair() is None
        table.insert_acd_rows((55, when, 8.67, 12.77, ""), (62, when, 0.6, 0.0, ""))
        table.insert_acd_rows((55, when, 0.17, 81.39, ""), (62, when, 0.79, 0.0, ""))
        latest = table.latest_pair()
        assert latest[0].reject_pct == 81.39 and latest[1].reject_pct == 0.0
        assert latest[0].id == 3 and latest[1].id == 4

    def test_absent_acd_round_trips_as_empty_field(self, tmp_path):
        table = AcdVendorsTable()
        when = datetime(2020, 1, 1, 12, 0, 0)
        table.insert_acd_rows((55, when, 1.29, 0.0, "37410"),
                              (62, when, None, 0.0, "37410"))
        out = tmp_path / "acd.csv"
        table.export_csv(out)
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(ACD_CSV_HEADER)
        assert ",62,2020-01-01 12:00:00,,0.00,37410" in text
        rows = read_acd_csv(out)
        assert rows[1].acd_min is None

    def test_export_import_export_is_byte_identical(self, tmp_path):
        rng = random.Random(21)
        table = AcdVendorsTable()
        when = datetime(2020, 1, 1, 9, 0, 0)
        for k in range(10):
            acd_a = None if rng.random() < 0.2 else round(rng.uniform(0.1, 30), 4)
            acd_b = None if rng.random() < 0.2 else round(rng.uniform(0.1, 30), 4)
            table.insert_acd_rows(
                (55, when + timedelta(minutes=10 * k), acd_a, round(rng.uniform(0, 90), 2), "37410"),
                (62, when + timedelta(minutes=10 * k), acd_b, 0.0, "37410"),
            )
        first = tmp_path / "a.csv"
        table.export_csv(first)
        reloaded = AcdVendorsTable(first)
        second = tmp_path / "b.csv"
        reloaded.export_csv(second)
        reloaded.close()
        assert first.read_bytes() == second.read_bytes()

    def test_reject_pct_bounds(self):
        when = datetime(2020, 1, 1, 9, 0, 0)
        with pytest.raises(ValueError):
            AcdRow(1, 55, when, 1.0, 101.0)

    def test_live_file_pair_append(self, tmp_path):
        path = tmp_path / "acd.csv"
        table = AcdVendorsTable(path)
        when = datetime(2020, 1, 1, 9, 0, 0)
        table.insert_acd_rows((55, when, 8.67, 12.77, ""), (62, when, 0.6, 0.0, ""))
        table.close()
        assert len(read_acd_csv(path)) == 2
        # reopening continues the id sequence
        again = AcdVendorsTable(path)
        ids = again.insert_acd_rows((55, when, 7.65, 37.87, ""), (62, when, 5.33, 0.0, ""))
        assert ids == (3, 4)
        again.close()
        assert [row.id for row in read_acd_csv(path)] == [1, 2, 3, 4]
