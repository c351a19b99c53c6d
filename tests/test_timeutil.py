from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
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


def iso_general(ts: datetime) -> str:
    """`iso` without its fast path for a canonical timestamp."""
    return ts.astimezone(UTC).replace(microsecond=0,
                                      tzinfo=None).isoformat() + "Z"


def parse_ts_general(raw: str) -> datetime:
    """`parse_ts` without its fast path for a canonical timestamp."""
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return ts.astimezone(UTC).replace(microsecond=0)


def outcome(fn, *args) -> str:
    """`fn(*args)` or the type of what it raised, as a repr, which names
    a result's tzinfo too."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the oracle's error types are the contract
        return repr(type(exc))


#: Every year, microseconds included.
any_instant = st.datetimes(min_value=datetime(1, 1, 1),
                           max_value=datetime(9999, 12, 31, 23, 59, 59,
                                              999999))
#: Naive, UTC and fixed-offset datetimes.
any_datetime = st.one_of(
    any_instant, any_instant.map(lambda ts: ts.replace(tzinfo=UTC)),
    st.builds(lambda ts, tz: ts.replace(tzinfo=tz), any_instant, offsets))


# `__wrapped__` is the body under the cache, which would otherwise answer
# an input equal to one seen before without taking the path under test.
@given(ts=any_datetime)
def test_iso_fast_path_equals_the_general_path(ts):
    assert outcome(iso.__wrapped__, ts) == outcome(iso_general, ts)


@given(raw=st.one_of(
    any_datetime.map(lambda ts: ts.isoformat()),  # +HH:MM, naive, fractions
    any_datetime.map(lambda ts: ts.isoformat(timespec="milliseconds")),
    any_datetime.map(lambda ts: ts.isoformat(timespec="seconds")),
    any_instant.map(lambda ts: ts.replace(tzinfo=UTC)).map(iso),
    st.text(max_size=32)))
def test_parse_ts_fast_path_equals_the_general_path(raw):
    assert outcome(parse_ts.__wrapped__, raw) == \
        outcome(parse_ts_general, raw)


@given(ts=any_instant)
def test_a_canonical_string_reads_back_as_itself(ts):
    raw = iso(ts.replace(tzinfo=UTC))
    assert iso(parse_ts(raw)) == raw


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


def add_business_days_by_steps(start: datetime, days: int) -> datetime:
    """`add_business_days` as it stepped before its table: whole weeks,
    then a day at a time, skipping weekend days."""
    if days <= 0:
        return start
    weeks, rest = divmod(days - 1, 5)
    out = start + weeks * timedelta(weeks=1)
    for _ in range(rest + 1):
        out += DAY
        while out.weekday() >= 5:
            out += DAY
    return out


@pytest.mark.parametrize("tz", [UTC, timezone(timedelta(hours=-5)), None],
                         ids=["utc", "fixed-offset", "naive"])
def test_table_equals_stepping_from_every_weekday(tz):
    monday = datetime(2025, 1, 6, 23, 30, 5, tzinfo=tz)
    for offset in range(7):
        start = monday + timedelta(days=offset)
        for days in range(-3, 201):
            assert add_business_days(start, days) == \
                add_business_days_by_steps(start, days), (start, days)


@given(start=any_datetime, days=st.integers(min_value=-3, max_value=200))
def test_table_equals_stepping_in_every_year(start, days):
    assert outcome(add_business_days, start, days) == \
        outcome(add_business_days_by_steps, start, days)


def test_no_room_before_the_year_10000_overflows():
    last_friday = datetime(9999, 12, 31, tzinfo=UTC)
    with pytest.raises(OverflowError):
        add_business_days(last_friday, 1)
    with pytest.raises(OverflowError):
        add_business_days(last_friday - timedelta(days=200), 200)
    assert add_business_days(last_friday - DAY, 1) == last_friday


def test_weekend_start_counts_friday_as_fifth_day():
    saturday = datetime(2025, 1, 11, 9, tzinfo=timezone.utc)
    assert add_business_days(saturday, 5) == saturday + timedelta(days=6)
    assert add_business_days(saturday, 0) == saturday
    assert add_business_days(saturday, -3) == saturday
