"""Time helpers: UTC second-precision timestamps and business-day arithmetic."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from functools import lru_cache

UTC = timezone.utc
SECOND = timedelta(seconds=1)
DAY = timedelta(days=1)
WEEK = timedelta(weeks=1)


def utc_now() -> datetime:
    return datetime.now(tz=UTC).replace(microsecond=0)


#: Distinct timestamps the codec remembers. All events of one cycle share
#: a timestamp, and the fold parses the strings a commit has just made.
_CODEC_CACHE = 1024


@lru_cache(maxsize=_CODEC_CACHE)
def iso(ts: datetime) -> str:
    """Render an aware timestamp as ISO-8601 UTC with a Z suffix."""
    return ts.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


@lru_cache(maxsize=_CODEC_CACHE)
def parse_ts(raw: str) -> datetime:
    """Parse ISO-8601; naive input is taken as UTC. Truncates to seconds."""
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return ts.astimezone(UTC).replace(microsecond=0)


def parse_date(raw: str) -> date:
    return date.fromisoformat(raw)


def is_business_day(d: date) -> bool:
    return d.weekday() < 5


def add_business_days(start: datetime, days: int) -> datetime:
    """Advance by whole business days, skipping Saturdays and Sundays:
    the first instant, a whole number of days after `start`, by which
    `days` business days have passed."""
    if days <= 0:
        return start
    # Any 7 consecutive days hold exactly 5 business days, so whole weeks
    # are a jump; the last 1 to 5 business days are stepped.
    weeks, rest = divmod(days - 1, 5)
    out = start + weeks * WEEK
    for _ in range(rest + 1):
        out += DAY
        while out.weekday() >= 5:
            out += DAY
    return out


def business_days(start: date, count: int) -> list[date]:
    """The first `count` business days on or after `start`."""
    out: list[date] = []
    d = start
    while len(out) < count:
        if is_business_day(d):
            out.append(d)
        d += DAY
    return out
