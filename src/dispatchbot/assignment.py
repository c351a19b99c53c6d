"""Assignment policies: round-robin over the available pool and the two
rejected baselines (expertise, least-open-count). Under the Manual policy
a person assigns and reassigns through `BoardRuntime.reassign_ticket`.

All policies are pure given (roster, cursor position, counts) and
deterministic: ties break on stable roster order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime

from .roster import EngineerRoster, available_pool
from .workflow import Ticket

POLICY_ROUND_ROBIN = "RoundRobin"
POLICY_EXPERTISE = "Expertise"
POLICY_LEAST_OPEN = "LeastOpen"
POLICY_MANUAL = "Manual"

POLICIES = (POLICY_ROUND_ROBIN, POLICY_EXPERTISE, POLICY_LEAST_OPEN,
            POLICY_MANUAL)


class EmptyPoolError(Exception):
    """No engineer is available; the ticket stays unassigned until the
    next cycle."""


class UnknownEngineerError(Exception):
    pass


class TicketAlreadyDoneError(Exception):
    pass


@dataclass(frozen=True)
class AssignmentDecision:
    ticket_id: str
    engineer_id: str
    policy: str
    decided_at: datetime
    cursor_after: int | None = None


@dataclass(frozen=True)
class ExpertiseProfile:
    #: engineer id -> skill tags held
    skills: dict[str, frozenset[str]]
    #: ticket label -> skill tag
    label_tags: dict[str, str]

    def ticket_tag(self, ticket: Ticket) -> str | None:
        for label in ticket.labels:
            if label in self.label_tags:
                return self.label_tags[label]
        return None


def round_robin_assign(
    roster: EngineerRoster,
    position: int,
    ticket: Ticket,
    at: datetime,
) -> AssignmentDecision:
    """Assign to the first available engineer at or after the cursor
    `position` in cyclic roster order.

    The decision's `cursor_after` points one past the chosen engineer (not
    past the skipped unavailable ones), so returning engineers resume their
    fair share.
    """
    entries = roster.entries
    if not entries:
        raise EmptyPoolError(f"team {roster.team_id}: empty roster")
    day = at.date()
    n = len(entries)
    start = position % n
    for k in range(n):
        i = (start + k) % n
        if entries[i].available_on(day):
            return AssignmentDecision(
                ticket_id=ticket.id,
                engineer_id=entries[i].engineer_id,
                policy=POLICY_ROUND_ROBIN,
                decided_at=at,
                cursor_after=(i + 1) % n,
            )
    raise EmptyPoolError(f"team {roster.team_id}: nobody available")


def expertise_assign(
    profile: ExpertiseProfile,
    roster: EngineerRoster,
    ticket: Ticket,
    at: datetime,
    assigned_counts: dict[str, int],
    position: int,
) -> AssignmentDecision:
    """Prefer an available engineer whose skills cover the ticket's tag.

    Among several experts, pick the one with the least assigned-so-far
    count (roster order on ties). With no available expert, fall back to
    plain round-robin order rather than stranding the ticket; the cursor
    advances only on the fallback path.
    """
    pool = available_pool(roster, at.date())
    if not pool:
        raise EmptyPoolError(f"team {roster.team_id}: nobody available")
    tag = profile.ticket_tag(ticket)
    if tag is not None:
        experts = [e for e in pool if tag in profile.skills.get(e, frozenset())]
        if experts:
            # `min` keeps the first of equal keys, and the pool is in
            # roster order: ties go to the earliest engineer.
            chosen = min(experts, key=lambda e: assigned_counts.get(e, 0))
            return AssignmentDecision(
                ticket_id=ticket.id,
                engineer_id=chosen,
                policy=POLICY_EXPERTISE,
                decided_at=at,
                cursor_after=position,
            )
    return replace(round_robin_assign(roster, position, ticket, at),
                   policy=POLICY_EXPERTISE)


def least_open_assign(
    open_counts: dict[str, int],
    roster: EngineerRoster,
    ticket: Ticket,
    at: datetime,
) -> AssignmentDecision:
    """Assign to the available engineer with the fewest open (non-Done)
    tickets; missing counts read as 0. This is the gameable policy: an
    engineer who keeps tickets open suppresses their own assignments.
    """
    pool = available_pool(roster, at.date())
    if not pool:
        raise EmptyPoolError(f"team {roster.team_id}: nobody available")
    # First of equal counts in roster order, as `available_pool` keeps it.
    chosen = min(pool, key=lambda e: open_counts.get(e, 0))
    return AssignmentDecision(
        ticket_id=ticket.id,
        engineer_id=chosen,
        policy=POLICY_LEAST_OPEN,
        decided_at=at,
        cursor_after=None,
    )
