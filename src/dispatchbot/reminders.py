"""Stuck-state and SLA reminder evaluation.

Everything here is a pure function over a snapshot of tickets plus a
ledger that holds, for each (ticket, kind) reminder stream, the last
escalation index sent. The scheduler is therefore reentrant and replays
deterministically on a virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Iterable, Mapping

from .workflow import Priority, Ticket, WorkflowState


class ReminderKind(str, Enum):
    STUCK_STATE = "StuckState"
    SLA_IMMINENT = "SlaImminent"
    SLA_BREACHED = "SlaBreached"


#: Each member by its wire value: a dict lookup, not an Enum call.
REMINDER_KIND_BY_VALUE = {kind.value: kind for kind in ReminderKind}

#: Fallback stuck thresholds (hours) when a team configures nothing.
#: Blocked gets a tighter leash; Done never triggers.
DEFAULT_STUCK_HOURS: dict[WorkflowState, float] = {
    WorkflowState.BACKLOG: 120.0,
    WorkflowState.READY_TO_START: 120.0,
    WorkflowState.WORK_IN_PROGRESS: 120.0,
    WorkflowState.BLOCKED: 72.0,
    WorkflowState.READY_FOR_REVIEW: 120.0,
}

#: Largest stuck threshold or reminder period accepted: 100 years.
MAX_HOURS = 876_600.0


def _check_hours(name: str, hours: float) -> None:
    # Written so that NaN fails too: it compares false to everything.
    if not 0 < hours <= MAX_HOURS:
        raise ValueError(f"{name} must be in (0, {MAX_HOURS:g}] hours, "
                         f"got {hours!r}")


@dataclass(frozen=True)
class ThresholdPolicy:
    team_id: str = ""
    stuck_hours: Mapping[WorkflowState, float] = field(
        default_factory=lambda: dict(DEFAULT_STUCK_HOURS))
    sla_warning_fraction: float = 0.2
    reminder_period_hours: float = 24.0

    def __post_init__(self) -> None:
        if not 0 < self.sla_warning_fraction <= 1:
            raise ValueError("sla_warning_fraction must be in (0, 1]")
        _check_hours("reminder_period_hours", self.reminder_period_hours)
        for state, hours in self.stuck_hours.items():
            if state is WorkflowState.DONE:
                raise ValueError("Done has no stuck threshold")
            _check_hours(f"threshold for {state.value}", hours)

    def stuck_threshold(self, state: WorkflowState,
                        priority: Priority) -> timedelta:
        hours = self.stuck_hours.get(state, DEFAULT_STUCK_HOURS[state])
        if priority is Priority.HIGH:
            hours /= 2.0
        return timedelta(hours=hours)

    @property
    def reminder_period(self) -> timedelta:
        return timedelta(hours=self.reminder_period_hours)


@dataclass(frozen=True)
class Reminder:
    ticket_id: str
    kind: ReminderKind
    recipients: tuple[str, ...]
    escalation_index: int
    generated_at: datetime


def _escalations_due(trigger: datetime, now: datetime,
                     period: timedelta) -> int:
    """How many escalations are due strictly after `trigger`.

    The boundary is strict on both ends: nothing fires at the trigger
    instant, and exactly n reminders are due n periods past it.
    """
    if now <= trigger:
        return 0
    return -((trigger - now) // period)


def _streams(ticket: Ticket, policy: ThresholdPolicy,
             ) -> tuple[tuple[ReminderKind, datetime, datetime | None], ...]:
    """The reminder streams of an open ticket as (kind, trigger, cap).

    A stream's count at `now` is `_escalations_due(trigger, now, period)`,
    with `now` held at `cap` when there is one: the imminent stream stops
    at the deadline, where the breached stream takes over, so the
    triggered set stays monotone in `now`.
    """
    deadline = ticket.sla_deadline
    window = deadline - ticket.created_at
    return (
        (ReminderKind.STUCK_STATE,
         (ticket.state_entered_at or ticket.created_at)
         + policy.stuck_threshold(ticket.state, ticket.priority), None),
        (ReminderKind.SLA_IMMINENT,
         deadline - policy.sla_warning_fraction * window, deadline),
        (ReminderKind.SLA_BREACHED, deadline, None),
    )


def next_reminder_at(ticket: Ticket, now: datetime,
                     policy: ThresholdPolicy) -> datetime:
    """The earliest instant b >= `now` after which one of an open
    ticket's streams gains an escalation: its count at b equals its count
    at `now`, and grows strictly after b.

    A scheduler that re-evaluates the ticket at its first cycle strictly
    after b misses no reminder, provided nothing about the ticket changes
    in between.
    """
    period = policy.reminder_period
    boundaries = []
    for _, trigger, cap in _streams(ticket, policy):
        boundary = trigger + _escalations_due(trigger, now, period) * period
        if cap is None or boundary < cap:
            boundaries.append(boundary)
    return min(boundaries)


def _recipients(ticket: Ticket, team_channel: str | None = None) -> tuple[str, ...]:
    names = {ticket.reporter}
    if ticket.assignee:
        names.add(ticket.assignee)
    if team_channel:
        names.add(team_channel)
    return tuple(sorted(names))


def due_reminders(
    tickets: Iterable[Ticket],
    now: datetime,
    policy: ThresholdPolicy,
    already_sent: Mapping[tuple[str, str], int],
) -> list[Reminder]:
    """Reminders triggered at `now` past the last index `already_sent`
    holds for their (ticket id, kind value) stream: a stream n reminders
    due with k sent emits k + 1..n, so a long-escalated stream costs only
    its new reminders. Idempotent: with an updated ledger, a repeat call
    at the same instant emits nothing.
    """
    period = policy.reminder_period
    out: list[Reminder] = []
    team_channel = f"team:{policy.team_id}"
    for t in tickets:
        if t.state is WorkflowState.DONE:
            continue
        for kind, trigger, cap in _streams(t, policy):
            count = _escalations_due(
                trigger, now if cap is None else min(now, cap), period)
            sent = already_sent.get((t.id, kind.value), 0) if count else 0
            if count > sent:
                # Breach notifications additionally reach the team channel.
                recipients = _recipients(
                    t, team_channel if kind is ReminderKind.SLA_BREACHED
                    else None)
                out.extend(Reminder(t.id, kind, recipients, index, now)
                           for index in range(sent + 1, count + 1))
    return out
