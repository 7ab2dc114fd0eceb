"""Shared builders for synthetic CDR streams, a decoder and an encoder of
the blocks ``run_scenario`` hands its sink, the pair check of an acd_vendors
file, and the choice of ``attempt_log``'s row writer."""

import csv
import os
from array import array
from datetime import datetime, timedelta

import pytest

from acdroute.domain import DisconnectCause
from acdroute.store import ACD_CSV_HEADER
from reference import Record

T0 = datetime(2020, 1, 1, 0, 0, 0)
SECOND = timedelta(seconds=1)


def make_cdr(call_id, vendor, disconnect_at, duration_s, rejected=False):
    """A CDR ending at ``disconnect_at``; connect time is derived."""
    if rejected:
        cause = DisconnectCause.OTHER
    elif duration_s == 0:
        cause = DisconnectCause.NO_USER_RESPONDING
    else:
        cause = DisconnectCause.NORMAL_CLEARING
    return Record(call_id, vendor, disconnect_at - timedelta(seconds=duration_s),
                  disconnect_at, duration_s, cause, rejected)


def as_read(records):
    """The CDRs ``read_cdr_csv`` reads from ``records``' rows: ``(vendor,
    connect_s, end_s, duration_s, rejected)``, both times in whole seconds
    after ``datetime.min``."""
    return [(r.vendor, (r.connect_time - datetime.min) // SECOND,
             (r.disconnect_time - datetime.min) // SECOND, r.duration_s, r.rejected_by_router)
            for r in records]


def add_records(agg, records):
    """Hand ``agg`` the legs of ``records``' CDRs of its group's vendors, each
    end counted in whole seconds from its anchor, microseconds floored."""
    agg.add_ended((r.vendor, (r.disconnect_time - agg.anchor) // SECOND, r.duration_s,
                   r.rejected_by_router) for r in records if r.vendor in agg.group.vendors)


def billing_vendors(config):
    """``config``'s vendor ids in the order billing tries them: by
    preference, highest first."""
    prefs = {spec.vendor: spec.pref for spec in config.vendors}
    return sorted(prefs, key=prefs.get, reverse=True)


def decode_block(vendors, first, times, codes):
    """The attempts of a block ``(first, times, codes)`` that ``run_scenario``
    hands its sink, in a run whose billing order is ``vendors``, each as the
    tuple ``(call_id, vendor, connect_s, duration_s, cause, rejected, t_s)``:
    its CDR less the disconnect time (``connect_s + duration_s``), in whole
    seconds after the run's start, and the cause as its text.

    Call ``first + k`` is ``c`` and its number in at least six digits, its time
    ``times[k]``; it connects at that time's whole second. Its attempts take
    the next codes, one per vendor in billing order, until a code is above
    0, an answered leg that many seconds long; 0 is a leg that failed at the
    vendor, -1 a refusal by the clone, and a call whose vendors run out is
    abandoned. Every code belongs to a call."""
    attempts, used = [], 0
    for number, t_s in enumerate(times, first):
        for vendor in vendors:
            assert used < len(codes), f"call {number} has too few codes"
            code = codes[used]
            used += 1
            if code > 0:
                outcome = code, DisconnectCause.NORMAL_CLEARING, False
            elif code == 0:
                outcome = 0, DisconnectCause.NO_USER_RESPONDING, False
            else:
                assert code == -1, f"code {code}"
                outcome = 0, DisconnectCause.OTHER, True
            duration_s, cause, rejected = outcome
            attempts.append(("c%06d" % number, vendor, int(t_s), duration_s, cause.value,
                             rejected, t_s))
            if duration_s:
                break
    assert used == len(codes), f"{len(codes) - used} codes belong to no call"
    return attempts


def attempt_sink(attempts, config):
    """A ``run_scenario`` sink for a run of ``config`` that appends each
    attempt to ``attempts`` as ``decode_block`` decodes it."""
    vendors = billing_vendors(config)
    return lambda first, times, codes: attempts.extend(decode_block(vendors, first, times, codes))


def record_sink(attempts, config):
    """A ``run_scenario`` sink for a run of ``config`` that appends each
    attempt to ``attempts`` as ``(record, t_s)``: the CDR built from the
    attempt ``decode_block`` decodes, its connect time ``connect_s`` seconds
    after the run's start, its disconnect time ``duration_s`` seconds after
    that, and its cause the member whose value is the cause text."""
    vendors, start = billing_vendors(config), config.start_time

    def on_attempts(first, times, codes):
        for call_id, vendor, connect_s, duration_s, cause, rejected, t_s in decode_block(
                vendors, first, times, codes):
            connect = start + timedelta(seconds=connect_s)
            record = Record(call_id, vendor, connect, connect + timedelta(seconds=duration_s),
                            duration_s, DisconnectCause(cause), rejected)
            attempts.append((record, t_s))
    return on_attempts


def sink_block(attempts, start, vendors):
    """The block ``(first, times, codes)`` that a ``run_scenario`` sink is
    handed for ``attempts``, ``(record, t_s)`` pairs of whole calls in run
    order, in a run that started at ``start`` and whose billing order is
    ``vendors``; ``decode_block`` must read the attempts back from it, so
    each record must be one such a run makes."""
    first = int(attempts[0][0].call_id[1:])
    times, codes, fields, call_id = array("d"), array("q"), [], None
    for record, t_s in attempts:
        if record.call_id != call_id:
            call_id = record.call_id
            times.append(t_s)
        connect_s, rest = divmod(record.connect_time - start, SECOND)
        assert not rest, f"{record.connect_time} is not a whole second after {start}"
        codes.append(-1 if record.rejected_by_router else record.duration_s)
        fields.append((record.call_id, record.vendor, connect_s, record.duration_s,
                       record.cause.value, record.rejected_by_router, t_s))
    assert decode_block(vendors, first, times, codes) == fields, "not a run's block"
    return first, times, codes


def assert_rows_equal(got, want):
    """``got == want`` for two lists of rows, reported as the first row that
    differs: pytest's diff of two long texts or lists can run for minutes."""
    for n, (row, wanted) in enumerate(zip(got, want), 1):
        assert row == wanted, f"row {n} differs"
    assert len(got) == len(want), f"{len(got)} rows, want {len(want)}"


def spread_cdrs(vendor, durations, start=T0, window_s=1200, tag="x"):
    """CDRs with the given durations, ending evenly inside [start, start+window_s)."""
    step = window_s / (len(durations) + 1)
    return [
        make_cdr(
            f"{tag}{vendor}-{i:04d}",
            vendor,
            start + timedelta(seconds=int((i + 1) * step)),
            d,
        )
        for i, d in enumerate(durations)
    ]


def read_acd_csv(path):
    """The data rows of an acd_vendors file as ``csv`` splits them, once the
    file holds whole interval pairs: ids run 1..n with n even, rows 2k-1 and
    2k share a date and name two distinct vendors, and dates never decrease
    (the fixed-width text sorts as the times do). A broken rule is a
    ``ValueError`` naming the file line its row starts on."""
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ACD_CSV_HEADER
        end = reader.line_num
        for row in reader:
            rows.append(row)
            lines.append(end + 1)
            end = reader.line_num
    for k, (row_id, vendor, date, *_) in enumerate(rows):
        _, previous_vendor, previous_date, *_ = rows[k - 1] if k else rows[k]
        problem = None
        if row_id != str(k + 1):
            problem = f"row id {row_id}, want {k + 1}"
        elif k % 2 and (date != previous_date or vendor == previous_vendor):
            problem = f"rows {k} and {k + 1} are not a pair (one date, two vendors)"
        elif date < previous_date:
            problem = f"date {date} precedes row {k}'s"
        if problem:
            raise ValueError(f"{path}: line {lines[k]}: {problem}")
    if len(rows) % 2:
        raise ValueError(f"{path}: line {lines[-1]}: row {len(rows)} has no pair")
    return rows


@pytest.fixture
def t0():
    return T0


def use_row_writer(monkeypatch, process):
    """Make ``attempt_log`` render its rows in a forked writer process
    (``process`` true) or in this one, whatever CPUs this host has: it picks
    by the CPUs ``os.sched_getaffinity`` reports."""
    if process and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if process else {0},
                        raising=False)


@pytest.fixture(params=["in_process", "writer_process"])
def row_writer(request, monkeypatch):
    """Each test that takes it runs once with each of ``attempt_log``'s two
    row writers."""
    use_row_writer(monkeypatch, request.param == "writer_process")
    return request.param


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After every test, this process has no child left, not even one that
    has ended and is not yet reaped: ``attempt_log`` reaps its writer on
    every exit, and a test reaps each process it starts."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
