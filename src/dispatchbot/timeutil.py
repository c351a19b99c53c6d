"""Time helpers: UTC second-precision timestamps and business-day arithmetic."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from functools import lru_cache

UTC = timezone.utc
SECOND = timedelta(seconds=1)
DAY = timedelta(days=1)


def utc_now() -> datetime:
    return datetime.now(tz=UTC).replace(microsecond=0)


#: Distinct timestamps the codec remembers. All events of one cycle share
#: a timestamp, and the fold parses the strings a commit has just made.
_CODEC_CACHE = 1024


@lru_cache(maxsize=_CODEC_CACHE)
def iso(ts: datetime) -> str:
    """Render an aware timestamp as ISO-8601 UTC with a Z suffix, to the
    second, with a four-digit year (`parse_ts` reads every year back).
    Fast path: a canonical `ts` (see `parse_ts`) is rendered unconverted."""
    if ts.tzinfo is UTC and not ts.microsecond:
        return ts.isoformat()[:-6] + "Z"  # drop "+00:00"
    return ts.astimezone(UTC).replace(microsecond=0,
                                      tzinfo=None).isoformat() + "Z"


@lru_cache(maxsize=_CODEC_CACHE)
def parse_ts(raw: str) -> datetime:
    """Parse ISO-8601; naive input is taken as UTC. Truncates to seconds.
    Fast path: a string `iso` wrote parses to the canonical form, a UTC
    datetime (`fromisoformat` gives a zero offset the `UTC` instance) with
    no microseconds, which converting and truncating would only copy."""
    if raw.endswith("Z"):  # before 3.11, fromisoformat reads no "Z"
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is UTC and not ts.microsecond:
        return ts
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return ts.astimezone(UTC).replace(microsecond=0)


def parse_date(raw: str) -> date:
    return date.fromisoformat(raw)


def is_business_day(d: date) -> bool:
    return d.weekday() < 5


#: weekday -> the time from that weekday to each of the next five
#: business days, built once.
_BUSINESS_DAY_STEPS = tuple(
    tuple(timedelta(d) for d in range(1, 10) if (weekday + d) % 7 < 5)[:5]
    for weekday in range(7))

WEEK = timedelta(weeks=1)


def add_business_days(start: datetime, days: int) -> datetime:
    """Advance by whole business days, skipping Saturdays and Sundays:
    the first instant, a whole number of days after `start`, by which
    `days` business days have passed."""
    if days <= 0:
        return start
    # Any 7 consecutive days hold exactly 5 business days, so whole weeks
    # are a jump; the last 1 to 5 business days come from the table.
    weeks, rest = divmod(days - 1, 5)
    end = start + _BUSINESS_DAY_STEPS[start.weekday()][rest]
    return end + weeks * WEEK if weeks else end


def business_days(start: date, count: int) -> list[date]:
    """The first `count` business days on or after `start`."""
    out: list[date] = []
    d = start
    while len(out) < count:
        if is_business_day(d):
            out.append(d)
        d += DAY
    return out
