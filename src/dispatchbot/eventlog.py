"""Append-only event log and the snapshot fold.

Each board persists as one newline-delimited JSON file; every record is
{"seq", "ts", "board", "kind", ...kind fields}. Board state is a pure fold
over the records, so any prefix of the log replays to a consistent
snapshot and live state always equals replay of what was written.

The fold also keeps derived indexes (open tickets, the unassigned backlog,
the pending outbox) so that a cycle reads only what is new, never the
whole history. They hold nothing the log does not: `replay` rebuilds them,
and snapshot equality ignores them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .notify import STATE_DELIVERED, Channel, OutboundMessage, compact_json
from .timeutil import parse_ts
from .workflow import (
    Priority,
    ReopenMode,
    Ticket,
    WorkflowState,
    apply_transition,
    new_ticket,
    reopen,
)

KIND_CREATED = "Created"
KIND_TRANSITIONED = "Transitioned"
KIND_ASSIGNED = "Assigned"
KIND_REASSIGNED = "Reassigned"
KIND_REMINDER_SENT = "ReminderSent"
KIND_MESSAGE_DELIVERED = "MessageDelivered"

EVENT_KINDS = (KIND_CREATED, KIND_TRANSITIONED, KIND_ASSIGNED,
               KIND_REASSIGNED, KIND_REMINDER_SENT, KIND_MESSAGE_DELIVERED)


class SeqGapError(Exception):
    def __init__(self, expected: int, found: int):
        self.expected = expected
        self.found = found
        super().__init__(f"expected seq {expected}, found {found}")


class DuplicateTicketError(ValueError):
    def __init__(self, ticket_id: str):
        self.ticket_id = ticket_id
        super().__init__(f"ticket {ticket_id} already exists")


class CorruptRecordError(Exception):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


#: One event as its log line, without the newline.
encode_event = compact_json


@dataclass
class BoardSnapshot:
    """Full board state at a log watermark: a fold of the event log."""

    board_id: str
    tickets: dict[str, Ticket] = field(default_factory=dict)
    cursor_position: int = 0
    #: (ticket id, reminder kind, escalation index) already sent. Each
    #: (ticket, kind) stream is prefix-closed: it holds indices 1..n.
    reminder_ledger: set = field(default_factory=set)
    outbox: dict[str, OutboundMessage] = field(default_factory=dict)
    assign_counts: dict[str, int] = field(default_factory=dict)
    msg_counter: int = 0
    watermark: int = 0
    # Derived indexes: maintained by `fold_event`, rebuilt by `replay`,
    # excluded from equality. The log stays the only source of truth.
    unassigned_backlog: set = field(default_factory=set, compare=False)
    open_tickets: set = field(default_factory=set, compare=False)
    #: msg ids neither delivered nor terminal, in outbox order (values
    #: unused); a failed message that will be retried keeps its place.
    pending_outbox: dict = field(default_factory=dict, compare=False)


def _reindex(snapshot: BoardSnapshot, ticket: Ticket) -> None:
    snapshot.tickets[ticket.id] = ticket
    if ticket.state is WorkflowState.DONE:
        snapshot.open_tickets.discard(ticket.id)
    else:
        snapshot.open_tickets.add(ticket.id)
    if ticket.state is WorkflowState.BACKLOG and ticket.assignee is None:
        snapshot.unassigned_backlog.add(ticket.id)
    else:
        snapshot.unassigned_backlog.discard(ticket.id)


def _message(wire: dict) -> OutboundMessage:
    return OutboundMessage(
        msg_id=wire["msg_id"],
        team_id=wire["team"],
        channel=Channel(wire["channel"]),
        kind=wire["kind"],
        ticket_id=wire["ticket"],
        text=wire["text"],
        created_at=parse_ts(wire["ts"]),
    )


def fold_event(snapshot: BoardSnapshot, event: dict) -> None:
    """Apply one event in place, all or nothing: a seq gap, an illegal
    transition, an unknown or duplicate ticket, an unknown message or a
    malformed field raises before the snapshot changes."""
    seq = event["seq"]
    if seq != snapshot.watermark + 1:
        raise SeqGapError(snapshot.watermark + 1, seq)
    kind = event["kind"]
    ts = parse_ts(event["ts"])
    wires = event.get("messages")
    messages = [_message(wire) for wire in wires] if wires else ()
    msg_counter = snapshot.msg_counter
    for msg in messages:
        msg_counter = max(msg_counter, int(msg.msg_id.lstrip("m")))

    if kind == KIND_CREATED:
        if event["ticket"] in snapshot.tickets:
            raise DuplicateTicketError(event["ticket"])
        ticket = new_ticket(
            ticket_id=event["ticket"],
            board_id=event["board"],
            reporter=event["reporter"],
            created_at=ts,
            priority=Priority(event.get("priority", "Medium")),
            sla_deadline=(parse_ts(event["sla_deadline"])
                          if event.get("sla_deadline") else None),
            labels=tuple(event.get("labels", ())),
        )
        _reindex(snapshot, ticket)
    elif kind == KIND_TRANSITIONED:
        ticket = snapshot.tickets[event["ticket"]]
        if event.get("reopen_mode"):
            ticket = reopen(ticket, ReopenMode(event["reopen_mode"]), ts,
                            event["actor"])
        else:
            ticket = apply_transition(ticket, WorkflowState(event["to"]), ts,
                                      event["actor"])
        _reindex(snapshot, ticket)
        # A state change resets the stuck clock, so the next spell's
        # escalations restart at index 1. The stream is prefix-closed,
        # so its keys are exactly 1..n.
        ledger = snapshot.reminder_ledger
        index = 1
        while (key := (ticket.id, "StuckState", index)) in ledger:
            ledger.discard(key)
            index += 1
    elif kind == KIND_ASSIGNED:
        ticket = replace(snapshot.tickets[event["ticket"]],
                         assignee=event["engineer"])
        _reindex(snapshot, ticket)
        if event.get("cursor_after") is not None:
            snapshot.cursor_position = event["cursor_after"]
        eng = event["engineer"]
        snapshot.assign_counts[eng] = snapshot.assign_counts.get(eng, 0) + 1
    elif kind == KIND_REASSIGNED:
        ticket = replace(snapshot.tickets[event["ticket"]],
                         assignee=event["engineer"])
        _reindex(snapshot, ticket)
    elif kind == KIND_REMINDER_SENT:
        snapshot.reminder_ledger.add(
            (event["ticket"], event["reminder_kind"], event["index"]))
    elif kind == KIND_MESSAGE_DELIVERED:
        msg = snapshot.outbox[event["msg_id"]]
        state, retries, terminal = (event["state"], event["retries"],
                                    event["terminal"])
        msg.delivery_state, msg.retries, msg.terminal = state, retries, terminal
        if state == STATE_DELIVERED or terminal:
            snapshot.pending_outbox.pop(msg.msg_id, None)
    else:
        raise ValueError(f"unknown event kind: {kind}")

    for msg in messages:
        snapshot.outbox[msg.msg_id] = msg
        snapshot.pending_outbox[msg.msg_id] = None
    snapshot.msg_counter = msg_counter
    snapshot.watermark = seq


def replay(events: Iterable[dict], board_id: str = "") -> BoardSnapshot:
    """Rebuild a snapshot from scratch by folding every event."""
    snapshot: BoardSnapshot | None = None
    for event in events:
        if snapshot is None:
            snapshot = BoardSnapshot(board_id=event["board"])
        fold_event(snapshot, event)
    return snapshot if snapshot is not None else BoardSnapshot(board_id)


class EventLog:
    """In-memory event list with optional ndjson persistence."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        self._fh = None
        if self.path is not None and self.path.exists():
            self.events = read_event_log(self.path)

    @property
    def watermark(self) -> int:
        return self.events[-1]["seq"] if self.events else 0

    def append(self, events: list[dict]) -> int:
        """Append events whose seq continues the log; returns the new
        watermark."""
        expected = self.watermark + 1
        for event in events:
            if event["seq"] != expected:
                raise SeqGapError(expected, event["seq"])
            expected += 1
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            for event in events:
                self._fh.write(encode_event(event) + "\n")
        self.events.extend(events)
        return self.watermark

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_event_log(path: str | Path) -> list[dict]:
    """Parse an ndjson log, failing fast with the offending line number."""
    events: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptRecordError(line_no, f"invalid JSON: {exc}")
            if not isinstance(event, dict) or "seq" not in event \
                    or "kind" not in event or "ts" not in event:
                raise CorruptRecordError(line_no, "missing required fields")
            if event["kind"] not in EVENT_KINDS:
                raise CorruptRecordError(
                    line_no, f"unknown kind {event['kind']!r}")
            events.append(event)
    return events
