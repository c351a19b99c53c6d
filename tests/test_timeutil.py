from __future__ import annotations

from datetime import datetime, timedelta, timezone

from hypothesis import given, strategies as st

from dispatchbot.timeutil import (
    DAY,
    UTC,
    add_business_days,
    is_business_day,
    iso,
    parse_ts,
)

#: Fixed UTC offsets, to the minute, of up to a day either way.
offsets = st.builds(timezone, st.timedeltas(
    min_value=timedelta(hours=-23, minutes=-59),
    max_value=timedelta(hours=23, minutes=59)).map(
        lambda d: timedelta(minutes=d // timedelta(minutes=1))))


@given(ts=st.datetimes(min_value=datetime(1000, 1, 2),
                       max_value=datetime(9999, 12, 30), timezones=offsets))
def test_iso_matches_strftime_for_four_digit_years(ts):
    assert iso(ts) == ts.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


@given(ts=st.datetimes(min_value=datetime(1, 1, 1),
                       max_value=datetime(9999, 12, 31, 23, 59, 59),
                       timezones=st.just(UTC)))
def test_parse_ts_reads_back_iso_for_every_year(ts):
    assert parse_ts(iso(ts)) == ts.replace(microsecond=0)


def test_iso_pads_the_year_to_four_digits():
    assert iso(datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC)) == \
        "0999-12-31T23:59:59Z"
    assert iso(datetime(1, 1, 1, tzinfo=UTC)) == "0001-01-01T00:00:00Z"
    assert iso(datetime(2025, 1, 6, 9, 0, 0, 500, tzinfo=timezone(
        timedelta(hours=-5)))) == "2025-01-06T14:00:00Z"


def business_days_by_loop(start: datetime, days: int) -> datetime:
    """The day-by-day definition: step a day at a time, counting only
    weekdays, until `days` have been counted."""
    out = start
    remaining = days
    while remaining > 0:
        out += DAY
        if is_business_day(out.date()):
            remaining -= 1
    return out


@given(start=st.datetimes(min_value=datetime(2000, 1, 1),
                          max_value=datetime(2090, 12, 31),
                          timezones=st.just(timezone.utc)),
       days=st.integers(min_value=0, max_value=400))
def test_closed_form_equals_day_by_day_loop(start, days):
    assert add_business_days(start, days) == \
        business_days_by_loop(start, days)


def test_every_weekday_and_count_up_to_two_weeks():
    monday = datetime(2025, 1, 6, 17, 30, 5, tzinfo=timezone.utc)
    for offset in range(7):
        start = monday + timedelta(days=offset)
        for days in range(15):
            assert add_business_days(start, days) == \
                business_days_by_loop(start, days), (start, days)


def test_weekend_start_counts_friday_as_fifth_day():
    saturday = datetime(2025, 1, 11, 9, tzinfo=timezone.utc)
    assert add_business_days(saturday, 5) == saturday + timedelta(days=6)
    assert add_business_days(saturday, 0) == saturday
    assert add_business_days(saturday, -3) == saturday
