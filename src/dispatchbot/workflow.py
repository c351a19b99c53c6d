"""Ticket domain model and the workflow state machine.

Tickets are immutable values; every change returns a new ticket. A ticket
holds only its current state: its history is the board's event log, and
replaying that log from creation rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .timeutil import UTC, add_business_days


class WorkflowState(str, Enum):
    BACKLOG = "Backlog"
    READY_TO_START = "ReadyToStart"
    WORK_IN_PROGRESS = "WorkInProgress"
    BLOCKED = "Blocked"
    READY_FOR_REVIEW = "ReadyForReview"
    DONE = "Done"


class Priority(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class ReopenMode(str, Enum):
    TO_BACKLOG = "ToBacklog"
    TO_SAME_ENGINEER = "ToSameEngineer"


#: Each member by its wire value: a dict lookup, not an Enum call.
STATE_BY_VALUE = {state.value: state for state in WorkflowState}
PRIORITY_BY_VALUE = {priority.value: priority for priority in Priority}
REOPEN_BY_VALUE = {mode.value: mode for mode in ReopenMode}

#: Each state's wire value, and the states each record is compared with:
#: the `value` descriptor, and before 3.12 a member read off its Enum
#: class, cost several times as much as a dict lookup or a module global.
STATE_VALUE = {state: state.value for state in WorkflowState}
BACKLOG, DONE = WorkflowState.BACKLOG, WorkflowState.DONE

_S = WorkflowState

#: Legal moves out of each state. ReadyToStart is optional and may be
#: skipped; Done is reachable from every earlier state because duplicate or
#: informally settled tickets close without walking the whole workflow.
TRANSITIONS: dict[WorkflowState, frozenset[WorkflowState]] = {
    _S.BACKLOG: frozenset({_S.READY_TO_START, _S.WORK_IN_PROGRESS, _S.DONE}),
    _S.READY_TO_START: frozenset({_S.WORK_IN_PROGRESS, _S.DONE}),
    _S.WORK_IN_PROGRESS: frozenset({_S.BLOCKED, _S.READY_FOR_REVIEW, _S.DONE}),
    _S.BLOCKED: frozenset({_S.WORK_IN_PROGRESS, _S.DONE}),
    _S.READY_FOR_REVIEW: frozenset({_S.WORK_IN_PROGRESS, _S.DONE}),
    _S.DONE: frozenset({_S.BACKLOG, _S.WORK_IN_PROGRESS}),
}

#: The state each reopen mode moves a Done ticket to.
REOPEN_STATE = {ReopenMode.TO_BACKLOG: _S.BACKLOG,
                ReopenMode.TO_SAME_ENGINEER: _S.WORK_IN_PROGRESS}

#: A ticket must carry an assignee before entering these states.
ASSIGNED_STATES = frozenset({_S.WORK_IN_PROGRESS, _S.READY_FOR_REVIEW})

#: Default SLA window in business days, keyed by priority, used when the
#: board supplies no explicit deadline.
DEFAULT_SLA_BUSINESS_DAYS: dict[Priority, int] = {
    Priority.HIGH: 3,
    Priority.MEDIUM: 10,
    Priority.LOW: 20,
}

ILLEGAL_EDGE = "IllegalEdge"
MISSING_ASSIGNEE = "MissingAssignee"
STALE_TIMESTAMP = "StaleTimestamp"


class TransitionError(Exception):
    """A workflow transition was rejected; `reason` names the failed check."""

    def __init__(self, ticket_id: str, from_state: WorkflowState,
                 to_state: WorkflowState, reason: str):
        self.ticket_id = ticket_id
        self.from_state = from_state
        self.to_state = to_state
        self.reason = reason
        super().__init__(
            f"{reason}: {ticket_id} {from_state.value} -> {to_state.value}")


@dataclass(frozen=True)
class Ticket:
    id: str
    reporter: str
    created_at: datetime
    sla_deadline: datetime
    priority: Priority = Priority.MEDIUM
    assignee: str | None = None
    state: WorkflowState = WorkflowState.BACKLOG
    state_entered_at: datetime | None = None
    resolved_at: datetime | None = None
    labels: tuple[str, ...] = ()


def evolve(value, **changes):
    """`dataclasses.replace(value, **changes)` for a ticket at about a
    fifth of its cost: no frozen dataclass `__init__`, which sets each
    field through `object.__setattr__`. `changes` must name fields.

    The copy's `__dict__` takes the fields one by one in the source's
    order, so it stays a key-sharing dict of the usual size. (Updating an
    empty instance dict from an ordinary dict would make it a larger
    private copy of that dict.)"""
    out = object.__new__(type(value))
    attrs = out.__dict__
    attrs.update(value.__dict__)
    attrs.update(changes)
    return out


#: What `new_ticket` copies. Each copy replaces every field without a
#: default, so it equals what `__init__` would build.
_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_BLANK_TICKET = Ticket(id="", reporter="", created_at=_EPOCH,
                       sla_deadline=_EPOCH)


def new_ticket(ticket_id: str, reporter: str, created_at: datetime,
               priority: Priority = Priority.MEDIUM,
               sla_deadline: datetime | None = None,
               labels: tuple[str, ...] = ()) -> Ticket:
    """Create a ticket in Backlog. The SLA deadline defaults by priority."""
    if sla_deadline is None:
        sla_deadline = add_business_days(
            created_at, DEFAULT_SLA_BUSINESS_DAYS[priority])
    return evolve(
        _BLANK_TICKET,
        id=ticket_id,
        reporter=reporter,
        created_at=created_at,
        sla_deadline=sla_deadline,
        priority=priority,
        state_entered_at=created_at,
        labels=labels,
    )


def apply_transition(ticket: Ticket, to: WorkflowState,
                     at: datetime) -> Ticket:
    """Move a ticket to an adjacent state, entered at `at`.

    Raises TransitionError with reason IllegalEdge, StaleTimestamp or
    MissingAssignee when a precondition fails. Pure: the input ticket is
    never mutated.
    """
    if to not in TRANSITIONS[ticket.state]:
        raise TransitionError(ticket.id, ticket.state, to, ILLEGAL_EDGE)
    if at <= ticket.state_entered_at:
        raise TransitionError(ticket.id, ticket.state, to, STALE_TIMESTAMP)
    if to in ASSIGNED_STATES and ticket.assignee is None:
        raise TransitionError(ticket.id, ticket.state, to, MISSING_ASSIGNEE)

    resolved_at = ticket.resolved_at
    if to is DONE:
        resolved_at = at
    elif ticket.state is DONE:
        resolved_at = None
    return evolve(ticket, state=to, state_entered_at=at,
                  resolved_at=resolved_at)


def reopen(ticket: Ticket, mode: ReopenMode, at: datetime) -> Ticket:
    """Reopen a Done ticket.

    ToBacklog returns it to the unassigned queue; ToSameEngineer puts it
    straight back in progress with the prior assignee retained.
    """
    to = REOPEN_STATE[mode]
    if ticket.state is not DONE:
        raise TransitionError(ticket.id, ticket.state, to, ILLEGAL_EDGE)
    out = apply_transition(ticket, to, at)
    return evolve(out, assignee=None) if to is BACKLOG else out
