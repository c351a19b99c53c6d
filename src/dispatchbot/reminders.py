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
from typing import Iterable, Mapping, NamedTuple

from .workflow import DONE, Priority, Ticket, WorkflowState


class ReminderKind(str, Enum):
    STUCK_STATE = "StuckState"
    SLA_IMMINENT = "SlaImminent"
    SLA_BREACHED = "SlaBreached"


#: Each member by its wire value: a dict lookup, not an Enum call.
REMINDER_KIND_BY_VALUE = {kind.value: kind for kind in ReminderKind}

#: Each member's wire value: a dict lookup, not the `value` descriptor.
REMINDER_KIND_VALUE = {kind: kind.value for kind in ReminderKind}

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

#: Shortest reminder period accepted: one second, the log's time
#: resolution. A shorter one may round to a zero `timedelta`.
MIN_PERIOD_HOURS = 1 / 3600


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
    #: `timedelta(hours=reminder_period_hours)`, built once.
    reminder_period: timedelta = field(init=False, repr=False, compare=False)
    #: state -> priority -> stuck threshold, built once from the policy's
    #: own copy of `stuck_hours`: a caller that later changes the mapping
    #: it passed in changes neither.
    _thresholds: Mapping[WorkflowState, Mapping[Priority, timedelta]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.sla_warning_fraction <= 1:
            raise ValueError("sla_warning_fraction must be in (0, 1]")
        if not MIN_PERIOD_HOURS <= self.reminder_period_hours <= MAX_HOURS:
            raise ValueError(f"reminder_period_hours must be in [1/3600, "
                             f"{MAX_HOURS:g}] hours, got "
                             f"{self.reminder_period_hours!r}")
        stuck_hours = dict(self.stuck_hours)
        for state, hours in stuck_hours.items():
            if state is WorkflowState.DONE:
                raise ValueError("Done has no stuck threshold")
            _check_hours(f"threshold for {state.value}", hours)
        thresholds = {}
        for state, default in DEFAULT_STUCK_HOURS.items():
            hours = stuck_hours.get(state, default)
            # High priority gets half the leash.
            thresholds[state] = {
                priority: timedelta(hours=hours / 2.0
                                    if priority is Priority.HIGH else hours)
                for priority in Priority}
        object.__setattr__(self, "stuck_hours", stuck_hours)
        object.__setattr__(self, "reminder_period",
                           timedelta(hours=self.reminder_period_hours))
        object.__setattr__(self, "_thresholds", thresholds)

    def stuck_threshold(self, state: WorkflowState,
                        priority: Priority) -> timedelta:
        return self._thresholds[state][priority]


class Reminder(NamedTuple):
    ticket_id: str
    kind: ReminderKind
    recipients: tuple[str, ...]
    escalation_index: int
    generated_at: datetime


def _triggers(ticket: Ticket, policy: ThresholdPolicy) -> list:
    """A trigger entry for an open `ticket` under `policy`:
    `[ticket, policy, stuck trigger, SLA-warning trigger, recipients,
    breach recipients]`. Neither trigger depends on the instant, so the
    entry holds for as long as the ticket and the policy are these very
    objects. The two recipient tuples are None until a reminder of the
    ticket falls due (see `due_reminders`)."""
    deadline = ticket.sla_deadline
    return [ticket, policy,
            ((ticket.state_entered_at or ticket.created_at)
             + policy._thresholds[ticket.state][ticket.priority]),
            deadline - policy.sla_warning_fraction * (deadline
                                                      - ticket.created_at),
            None, None]


def _evaluate(ticket: Ticket, now: datetime, policy: ThresholdPolicy,
              entry: list | None = None,
              ) -> tuple[tuple[int, int, int], datetime]:
    """One pass over an open ticket's reminder streams at `now`: the
    escalations each has due, in `ReminderKind` order, and the ticket's
    next reminder boundary b: the earliest instant b >= `now` after which
    a stream gains an escalation, so a scheduler that re-evaluates an
    unchanged ticket at its first cycle after b misses no reminder. Its
    triggers come from `entry`, the ticket's `_triggers` under `policy`,
    made here when it is not given.

    Each stream has a trigger and may have a cap. Its count at `now` is
    the number of escalations due strictly after its trigger, with `now`
    held at the cap when there is one: none at the trigger instant, and
    exactly n once n whole periods have passed, that is
    `-((trigger - now) // period)` for `now` past the trigger. The
    imminent stream, triggered when the warning fraction of the SLA
    window remains, stops at the deadline, where the breached stream
    takes over, so the triggered set stays monotone in `now`. A stream's
    next boundary is its trigger plus as many whole periods as its
    uncapped count at `now`; a capped stream's boundary counts only while
    it lies before the cap.
    """
    if entry is None:
        entry = _triggers(ticket, policy)
    period = policy.reminder_period
    deadline = ticket.sla_deadline
    stuck_at, warning_at = entry[2], entry[3]
    if now > stuck_at:
        stuck = -((stuck_at - now) // period)
        boundary = stuck_at + stuck * period
    else:
        stuck, boundary = 0, stuck_at
    if now < deadline:
        # The breached stream's boundary is the deadline itself, which
        # also keeps the imminent stream's boundary before its cap.
        breached = 0
        if deadline < boundary:
            boundary = deadline
        if now > warning_at:
            imminent = -((warning_at - now) // period)
            warning_at += imminent * period  # now the stream's boundary
        else:
            imminent = 0
        if warning_at < boundary:
            boundary = warning_at
    else:
        # Past the cap every boundary of the imminent stream is too.
        if now > deadline:
            breached = -((deadline - now) // period)
            breach_at = deadline + breached * period
        else:
            breached, breach_at = 0, deadline
        if breach_at < boundary:
            boundary = breach_at
        imminent = (-((warning_at - deadline) // period)
                    if deadline > warning_at else 0)
    return (stuck, imminent, breached), boundary


def _recipients(ticket: Ticket, team_channel: str | None = None) -> tuple[str, ...]:
    # A missing assignee or channel falls back to the reporter, whom the
    # set holds already.
    reporter = ticket.reporter
    return tuple(sorted({reporter, ticket.assignee or reporter,
                         team_channel or reporter}))


#: Each stream's kind, its wire value and the slot of its recipients in
#: a `_triggers` entry, in `ReminderKind` order. Breach notifications
#: additionally reach the team channel.
_STREAMS = tuple((kind, value, 5 if kind is ReminderKind.SLA_BREACHED else 4)
                 for kind, value in REMINDER_KIND_VALUE.items())


def due_reminders(
    tickets: Iterable[Ticket],
    now: datetime,
    policy: ThresholdPolicy,
    already_sent: Mapping[tuple[str, str], int],
    next_due: dict[str, datetime] | None = None,
    triggers: dict[str, list] | None = None,
) -> list[Reminder]:
    """Reminders triggered at `now` past the last index `already_sent`
    holds for their (ticket id, kind value) stream: a stream n reminders
    due with k sent emits k + 1..n, so a long-escalated stream costs only
    its new reminders. Idempotent: with an updated ledger, a repeat call
    at the same instant emits nothing.

    Given `next_due`, it also maps each open ticket's id to its next
    reminder boundary (see `_evaluate`), from the same single pass.

    Given `triggers`, a map the caller keeps from ticket id to its
    `_triggers` entry, it reuses each entry made from the very ticket
    and policy objects it is handed, and replaces any other. A ticket is
    immutable and a changed one is a new object, so the outcome is the
    one a fresh entry gives.
    """
    out: list[Reminder] = []
    if triggers is None:
        triggers = {}
    for t in tickets:
        if t.state is DONE:
            continue
        tid = t.id
        entry = triggers.get(tid)
        if entry is None or entry[0] is not t or entry[1] is not policy:
            entry = triggers[tid] = _triggers(t, policy)
        counts, boundary = _evaluate(t, now, policy, entry)
        if next_due is not None:
            next_due[tid] = boundary
        for (kind, value, slot), count in zip(_STREAMS, counts):
            if not count:
                continue
            index = already_sent.get((tid, value), 0)
            if count > index:
                if entry[4] is None:
                    entry[4] = _recipients(t)
                    entry[5] = _recipients(t, f"team:{policy.team_id}")
                recipients = entry[slot]
                while index < count:
                    index += 1
                    out.append(Reminder(tid, kind, recipients, index, now))
    return out
