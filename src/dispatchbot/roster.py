"""Engineer rosters and availability filtering.

Roster order is insertion order and is never permuted; joins append at the
end so the assignment cursor's frame of reference stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date


@dataclass(frozen=True)
class RosterEntry:
    engineer_id: str
    joined_at: date | None = None
    separated_at: date | None = None
    #: Closed [start, end] leave intervals (leaves, regional holidays).
    leaves: tuple[tuple[date, date], ...] = ()

    def available_on(self, on: date) -> bool:
        """Joined, not yet separated and not on leave on `on`; every
        bound is inclusive."""
        if self.joined_at is not None and on < self.joined_at:
            return False
        if self.separated_at is not None and on > self.separated_at:
            return False
        return not any(start <= on <= end for start, end in self.leaves)


@dataclass
class EngineerRoster:
    team_id: str
    entries: list[RosterEntry] = field(default_factory=list)
    #: Engineer ids, built once: nothing appends to `entries`.
    _ids: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ids = set()
        for e in self.entries:
            if e.engineer_id in self._ids:
                raise ValueError(f"duplicate engineer id: {e.engineer_id}")
            self._ids.add(e.engineer_id)
            if (e.joined_at is not None and e.separated_at is not None
                    and e.separated_at < e.joined_at):
                raise ValueError(
                    f"{e.engineer_id}: separated_at before joined_at")

    def __contains__(self, engineer_id: str) -> bool:
        return engineer_id in self._ids

    def __len__(self) -> int:
        return len(self.entries)


def available_pool(roster: EngineerRoster, on: date) -> list[str]:
    """Engineers available on a date, in roster order. May be empty."""
    return [e.engineer_id for e in roster.entries if e.available_on(on)]
