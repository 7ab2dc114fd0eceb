import random
from datetime import date, datetime, timedelta, timezone

import pytest

from acdroute.domain import (
    TS_FORMAT,
    RouteGroup,
    format_ts,
    parse_ts,
    second_texts,
    triggers_failover,
    validate_preference,
    whole_seconds,
)


@pytest.mark.parametrize("code", [99, 700, 0, -180, 1000])
def test_classify_rejects_out_of_range(code):
    with pytest.raises(ValueError, match="out of range 100-699"):
        triggers_failover(code)


def test_classify_rejects_non_integers():
    for code in (200.5, "200", True):
        with pytest.raises(ValueError, match="must be an integer"):
            triggers_failover(code)


def test_failover_iff_code_at_least_400():
    # total on [100, 699]: every code there is classified, none refused
    for code in range(100, 700):
        assert triggers_failover(code) is (code >= 400)


def test_failover_mapping():
    # one code of each hundred block: provisional, success and redirect
    # never fail over; client, server and global failures do
    assert [triggers_failover(code) for code in (180, 200, 301, 486, 503, 600)] == [
        False, False, False, True, True, True]


def test_preference_bounds():
    assert validate_preference(1) == 1
    assert validate_preference(9) == 9
    for bad in (0, 10, -1, 2.5, "9"):
        with pytest.raises(ValueError):
            validate_preference(bad)


def test_timestamp_round_trip():
    ts = datetime(2009, 11, 9, 10, 50, 25)
    assert parse_ts(format_ts(ts)) == ts
    assert format_ts(ts) == "2009-11-09 10:50:25"


def random_datetimes(seed, first_year, count=3000):
    """Seeded naive datetimes from Jan 1 of ``first_year`` to the end of
    9999, half of them with microseconds, plus both ends of that range."""
    rng = random.Random(seed)
    first = date(first_year, 1, 1).toordinal()
    yield datetime(first_year, 1, 1)
    yield datetime.max
    for _ in range(count):
        day = datetime.fromordinal(rng.randint(first, date.max.toordinal()))
        yield day + timedelta(
            seconds=rng.randrange(86400),
            microseconds=rng.choice((0, rng.randrange(1, 1_000_000))),
        )


def test_format_ts_matches_strftime_from_year_1000():
    # strftime is the reference where it pads the year to four digits;
    # it writes an aware timestamp's wall time and drops the offset
    plus_two = timezone(timedelta(hours=2))
    for ts in random_datetimes(5, 1000):
        assert format_ts(ts) == ts.strftime(TS_FORMAT), ts
        aware = ts.replace(tzinfo=plus_two)
        assert format_ts(aware) == aware.strftime(TS_FORMAT), aware


def test_format_ts_round_trips_every_year():
    for ts in random_datetimes(6, 1):
        assert parse_ts(format_ts(ts)) == ts.replace(microsecond=0), ts
    assert format_ts(datetime(999, 1, 1, 0, 0, 1)) == "0999-01-01 00:00:01"


class TestFormatTsWallTime:
    """``format_ts`` writes an aware time as its own wall time, never as the
    instant it names."""

    def test_one_instant_under_two_offsets_keeps_two_texts(self):
        noon_utc = datetime(2020, 1, 1, 12, tzinfo=timezone.utc)
        one_pm_plus_one = datetime(2020, 1, 1, 13, tzinfo=timezone(timedelta(hours=1)))
        assert noon_utc == one_pm_plus_one
        for first, second in ((noon_utc, one_pm_plus_one), (one_pm_plus_one, noon_utc)):
            assert format_ts(first) == first.strftime(TS_FORMAT)
            assert format_ts(second) == second.strftime(TS_FORMAT)
        assert format_ts(noon_utc) == "2020-01-01 12:00:00"
        assert format_ts(one_pm_plus_one) == "2020-01-01 13:00:00"

    def test_aware_time_and_its_wall_time_share_a_text(self):
        wall = datetime(2020, 1, 1, 13, 4, 5)
        aware = wall.replace(tzinfo=timezone(timedelta(hours=-7)))
        assert format_ts(aware) == format_ts(wall) == "2020-01-01 13:04:05"

    def test_correct_over_many_seconds_and_back(self):
        first = datetime(2020, 1, 1)
        stamps = [first + timedelta(seconds=s) for s in range(1500)]
        for ts in [*stamps, first, *reversed(stamps)]:
            assert format_ts(ts) == ts.strftime(TS_FORMAT), ts


def _second_texts_starts(rng):
    """Starts of every kind ``second_texts`` must render from: naive or
    aware at offsets either side of UTC, on or off the second, on the days
    where a date head changes oddly, and at random."""
    offsets = [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)),
               timezone(-timedelta(hours=11, minutes=45))]
    days = [datetime(999, 12, 31), datetime(1000, 1, 1), datetime(2020, 2, 28),
            datetime(2020, 2, 29), datetime(2019, 2, 28), datetime(2020, 12, 31),
            datetime(1900, 2, 28), datetime(2000, 2, 29)]
    for day in [*days, *(datetime.fromordinal(rng.randint(1, date.max.toordinal() - 400))
                         for _ in range(12))]:
        for tz in offsets:
            for micro in (0, 999_999, rng.randrange(1, 1_000_000)):
                yield day.replace(tzinfo=tz) + timedelta(
                    seconds=rng.choice((0, 86399, rng.randrange(86400))), microseconds=micro)


class TestSecondTexts:
    """``second_texts(start)(s)`` is ``format_ts(start + timedelta(seconds=s))``
    for whole seconds ``s``, without the ``datetime``."""

    def test_matches_format_ts_over_random_seconds(self):
        rng = random.Random(23)
        checked = 0
        for start in _second_texts_starts(rng):
            text = second_texts(start)
            # across day, leap-day and year ends, a day revisited after
            # later ones, and seconds from a minute to centuries away
            near = [rng.randrange(-3 * 86400, 3 * 86400) for _ in range(40)]
            far = [rng.randrange(-10**10, 10**10) for _ in range(10)]
            for s in [0, 1, 59, 60, 86399, 86400, 86401, 366 * 86400, *near, *far,
                      *near[:10]]:
                try:
                    want = format_ts(start + timedelta(seconds=s))
                except OverflowError:
                    with pytest.raises(OverflowError):
                        text(s)
                    continue
                assert text(s) == want, (start, s)
                checked += 1
        assert checked > 10_000

    @pytest.mark.parametrize("start", [
        datetime(9999, 12, 31, 23, 59, 59),
        datetime(9999, 12, 31, 23, 59, 59, 999_999),
        datetime(9999, 12, 31, 0, 0, 0, 1, tzinfo=timezone(timedelta(hours=-3))),
        datetime(9998, 12, 31, 12, 30),
    ], ids=["last-second", "last-microsecond", "aware-last-day", "a-year-before"])
    def test_overflow_past_the_year_9999_on_both_sides(self, start):
        text = second_texts(start)
        last = int((datetime.max.replace(tzinfo=start.tzinfo) - start).total_seconds())
        assert text(last) == format_ts(start + timedelta(seconds=last)) == (
            "9999-12-31 23:59:59")
        for past in (last + 1, last + 86400, last + 10**9):
            with pytest.raises(OverflowError):
                start + timedelta(seconds=past)
            with pytest.raises(OverflowError):
                text(past)
        # an overflow leaves the texts already made intact
        assert text(last) == "9999-12-31 23:59:59"

    def test_seconds_before_the_start_and_before_year_1(self):
        start = datetime(1, 1, 1, 0, 0, 5, 123)
        text = second_texts(start)
        assert text(-5) == format_ts(start - timedelta(seconds=5)) == "0001-01-01 00:00:00"
        with pytest.raises(OverflowError):
            start + timedelta(seconds=-6)
        with pytest.raises(OverflowError):
            text(-6)


@pytest.mark.parametrize("text, expected", [
    ("2009-11-09 10:50:25", datetime(2009, 11, 9, 10, 50, 25)),
    ("0001-01-01 00:00:00", datetime(1, 1, 1)),
    ("9999-12-31 23:59:59", datetime(9999, 12, 31, 23, 59, 59)),
    ("2020-02-29 00:00:00", datetime(2020, 2, 29)),
])
def test_parse_ts_reads_the_padded_form(text, expected):
    assert parse_ts(text) == expected


@pytest.mark.parametrize("text", [
    # forms strptime also reads: unpadded fields and non-ASCII digits
    "2020-1-01 00:00:00",
    "2020-01-1 00:00:00",
    "2020-01-01 0:00:00",
    "2020-01-01 00:0:00",
    "2020-01-01 00:00:0",
    "\uff12\uff10\uff12\uff10-01-01 00:00:00",  # full-width digits
    "\u0662\u0660\u0662\u0660-01-01 00:00:00",  # Arabic-Indic digits
    # other shapes, several of which fromisoformat reads on some Python versions
    "999-01-01 00:00:00",
    " 2020-01-01 00:00:00",
    "2020-01-01 00:00:00 ",
    "2020-01-01T00:00:00",
    "2020-01-01 00:00:00.5",
    "2020-01-01 00:00:00+00:00",
    "2020-01-01 00:00",
    "2020-01-01",
    "20200101 000000",
    "2020-01-01 00:00:00\n",
    # the right shape, but no such time
    "0000-01-01 00:00:00",
    "2020-13-01 00:00:00",
    "2019-02-29 00:00:00",
    "2020-01-01 24:00:00",
    "2020-01-01 00:60:00",
    "2020-01-01 00:00:60",
    "",
])
def test_parse_ts_refuses_every_other_form(text):
    with pytest.raises(ValueError):
        parse_ts(text)


def test_parse_ts_equals_strptime_on_what_format_ts_writes():
    # every year, every day of a leap and a common year, and every hour,
    # minute and second value (7 s steps over a day cover all three)
    rng = random.Random(11)
    stamps = [datetime(year, 1, 1) + timedelta(days=rng.randrange(365),
                                               seconds=rng.randrange(86400))
              for year in range(1, 10000)]
    for year in (2000, 2019):
        first = datetime(year, 1, 1, 12, 34, 56)
        stamps += [first + timedelta(days=d) for d in range(366 if year == 2000 else 365)]
    stamps += [datetime(2020, 5, 17) + timedelta(seconds=s) for s in range(0, 86400, 7)]
    for ts in stamps:
        text = format_ts(ts)
        assert parse_ts(text) == datetime.strptime(text, TS_FORMAT) == ts, text


class TestRouteGroup:
    def test_valid_group(self):
        group = RouteGroup((55, 62), (9, 8))
        assert group.load_min == 0.1

    @pytest.mark.parametrize("vendors, prefs, load_min", [
        ((55, 55), (9, 8), 0.1),       # one vendor twice
        ((55,), (9, 8), 0.1),
        ((55, -1), (9, 8), 0.1),
        ((55, 62), (9, 9), 0.1),       # equal preferences
        ((55, 62), (9, 10), 0.1),
        ((55, 62), (9, 8), 0.5),
        ((55, 62), (9, 8), -0.01),
    ])
    def test_invalid_groups(self, vendors, prefs, load_min):
        with pytest.raises(ValueError):
            RouteGroup(vendors, prefs, load_min)


def test_whole_seconds():
    assert whole_seconds(10) == 600
    assert whole_seconds(0.1) == 6  # 6.000000000000001 s in floats
    for bad in (10.004, 1 / 7, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            whole_seconds(bad)
