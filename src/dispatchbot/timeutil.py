"""Time helpers: UTC second-precision timestamps and business-day arithmetic.

The timestamp codec remembers both directions. `iso` caches instant ->
text, and when it renders a canonical instant (an exact `datetime` in UTC
with no microseconds) it also records text -> instant in the memo that
`parse_ts` reads. A live board folds records whose timestamps it has
just rendered, so the fold's parse of them is a memo hit that returns
what a fresh parse would: an equal `datetime` whose tzinfo is `UTC`.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from functools import lru_cache

UTC = timezone.utc
SECOND = timedelta(seconds=1)
DAY = timedelta(days=1)


def utc_now() -> datetime:
    return datetime.now(tz=UTC).replace(microsecond=0)


#: Distinct timestamps each direction of the codec remembers. All events
#: of one cycle share a timestamp; the fold parses the strings a commit
#: has just made, which `iso` has put in the memo, and a restart parses a
#: log's strings in the order they were written.
_CODEC_CACHE = 1024


@lru_cache(maxsize=_CODEC_CACHE)
def iso(ts: datetime) -> str:
    """Render an aware timestamp as ISO-8601 UTC with a Z suffix, to the
    second, with a four-digit year (`parse_ts` reads every year back).
    Fast path: a canonical `ts` (see `parse_ts`) is rendered unconverted,
    and `parse_ts` of its text then answers with `ts` itself."""
    if ts.tzinfo is UTC and not ts.microsecond:
        text = ts.isoformat()[:-6] + "Z"  # drop "+00:00"
        if type(ts) is datetime and not ts.fold:  # as a parse would build
            _PARSED.remember(text, ts)
        return text
    return ts.astimezone(UTC).replace(microsecond=0,
                                      tzinfo=None).isoformat() + "Z"


def _parse_ts(raw: str) -> datetime:
    """`parse_ts` without its memo: parse ISO-8601; naive input is taken
    as UTC. Truncates to seconds. Fast path: a string `iso` wrote parses
    to the canonical form, a UTC datetime (`fromisoformat` gives a zero
    offset the `UTC` instance) with no microseconds, which converting and
    truncating would only copy."""
    if raw.endswith("Z"):  # before 3.11, fromisoformat reads no "Z"
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is UTC and not ts.microsecond:
        return ts
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return ts.astimezone(UTC).replace(microsecond=0)


class _InstantMemo(dict):
    """Text -> instant for `parse_ts`, at most `_CODEC_CACHE` entries. A
    hit is a plain dict lookup, done in C; a miss parses, and a parse that
    raises caches nothing. Unlocked: two threads filling it at once may
    leave it an entry or two over its bound until the next clear."""

    def __missing__(self, raw: str) -> datetime:
        return self.remember(raw, _parse_ts(raw))

    def remember(self, raw: str, ts: datetime) -> datetime:
        if len(self) >= _CODEC_CACHE:
            # Emptied, not trimmed: finding a dict's oldest entry scans past
            # every entry deleted before it, which cost a render 0.3 us.
            self.clear()
        self[raw] = ts
        return ts


_PARSED = _InstantMemo()

#: `parse_ts(raw)`: `raw` parsed as `_parse_ts` does, through the memo.
parse_ts = _PARSED.__getitem__


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
