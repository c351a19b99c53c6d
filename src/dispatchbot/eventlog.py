"""Append-only event log and the snapshot fold.

Each board persists as one newline-delimited JSON file; every record is
{"seq", "ts", "board", "kind", ...kind fields}. Board state is a pure fold
over the records, so any prefix of the log replays to a consistent
snapshot and live state always equals replay of what was written.

The fold also keeps derived indexes (open tickets, the unassigned backlog,
the pending outbox) so that a cycle reads only what is new, never the
whole history. They hold nothing the log does not: `replay` rebuilds them,
and snapshot equality ignores them.

Each record is parsed once and folded once. A message lives in the
outbox as the wire dict its event carries, shared with the event and
sent by the sinks as it is (see `notify`), so it is never rebuilt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .notify import (
    CHANNEL_BY_VALUE,
    STATE_DELIVERED,
    WIRE_FIELDS,
    OutboundMessage,
    compact_json,
)
from .timeutil import parse_ts
from .workflow import (
    Priority,
    ReopenMode,
    Ticket,
    WorkflowState,
    apply_transition,
    evolve,
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


class MalformedRecordError(ValueError):
    """A parseable record the fold cannot apply: a field it reads is
    missing, or names a ticket or message the board does not know."""

    def __init__(self, seq, field: str, detail: str):
        self.seq = seq
        self.field = field
        super().__init__(f"seq {seq}: {detail} in field {field!r}")


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


def _messages(seq: int, wires: list[dict]) -> list[OutboundMessage]:
    """The outbox entries for an event's wire dicts, which they keep."""
    messages = []
    for i, wire in enumerate(wires):
        channel = CHANNEL_BY_VALUE.get(wire.get("channel"))
        if channel is None or not WIRE_FIELDS <= wire.keys():
            missing = sorted(WIRE_FIELDS - wire.keys())
            if missing:
                name, detail = missing[0], "missing value"
            else:
                name = "channel"
                detail = f"unknown channel {wire['channel']!r}"
            raise MalformedRecordError(seq, f"messages[{i}].{name}", detail)
        messages.append(OutboundMessage.from_wire(wire, channel))
    return messages


def _ticket(snapshot: BoardSnapshot, event: dict) -> Ticket:
    """The known ticket that `event` names."""
    ticket = snapshot.tickets.get(event["ticket"])
    if ticket is None:
        raise MalformedRecordError(event["seq"], "ticket",
                                   f"unknown ticket {event['ticket']!r}")
    return ticket


def fold_event(snapshot: BoardSnapshot, event: dict) -> None:
    """Apply one event in place, all or nothing: a seq gap, an illegal
    transition, an unknown or duplicate ticket, an unknown message or a
    missing or malformed field raises before the snapshot changes."""
    seq = event["seq"]
    if seq != snapshot.watermark + 1:
        raise SeqGapError(snapshot.watermark + 1, seq)
    try:
        _apply(snapshot, event, seq)
    except KeyError as exc:
        # Every field is read before anything changes.
        raise MalformedRecordError(seq, exc.args[0], "missing value") \
            from None
    snapshot.watermark = seq


def _apply(snapshot: BoardSnapshot, event: dict, seq: int) -> None:
    kind = event["kind"]
    ts = parse_ts(event["ts"])
    wires = event.get("messages")
    messages = _messages(seq, wires) if wires else ()
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
        ticket = _ticket(snapshot, event)
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
        eng = event["engineer"]
        ticket = evolve(_ticket(snapshot, event), assignee=eng)
        cursor_after = event.get("cursor_after")
        _reindex(snapshot, ticket)
        if cursor_after is not None:
            snapshot.cursor_position = cursor_after
        snapshot.assign_counts[eng] = snapshot.assign_counts.get(eng, 0) + 1
    elif kind == KIND_REASSIGNED:
        ticket = evolve(_ticket(snapshot, event), assignee=event["engineer"])
        _reindex(snapshot, ticket)
    elif kind == KIND_REMINDER_SENT:
        snapshot.reminder_ledger.add(
            (event["ticket"], event["reminder_kind"], event["index"]))
    elif kind == KIND_MESSAGE_DELIVERED:
        msg = snapshot.outbox.get(event["msg_id"])
        if msg is None:
            raise MalformedRecordError(
                seq, "msg_id", f"unknown message {event['msg_id']!r}")
        state, retries, terminal = (event["state"], event["retries"],
                                    event["terminal"])
        msg.delivery_state, msg.retries, msg.terminal = state, retries, terminal
        if state == STATE_DELIVERED or terminal:
            snapshot.pending_outbox.pop(event["msg_id"], None)
    else:
        raise ValueError(f"unknown event kind: {kind}")

    for msg in messages:
        msg_id = msg.msg_id
        snapshot.outbox[msg_id] = msg
        snapshot.pending_outbox[msg_id] = None
    snapshot.msg_counter = msg_counter


def replay(events: Iterable[dict], board_id: str = "") -> BoardSnapshot:
    """Rebuild a snapshot from scratch by folding every event."""
    snapshot: BoardSnapshot | None = None
    for event in events:
        if snapshot is None:
            if "board" not in event:
                raise MalformedRecordError(event["seq"], "board",
                                           "missing value")
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
        #: seq of the last event in `events`; 0 when empty.
        self.watermark: int = self.events[-1]["seq"] if self.events else 0

    def append(self, events: list[dict]) -> int:
        """Append events whose seq continues the log; returns the new
        watermark. A failed write leaves `events` and `watermark` as they
        were."""
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
        self.watermark = expected - 1
        return self.watermark

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Parses one JSON value at an index: `json.loads` without its wrapper.
_scan_json = json.JSONDecoder().scan_once


def read_event_log(path: str | Path) -> list[dict]:
    """Parse an ndjson log, failing fast with the offending line number."""
    events: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event, end = _scan_json(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                # Not one JSON value: json.loads words the error.
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorruptRecordError(line_no, f"invalid JSON: {exc}")
            if type(event) is not dict or "seq" not in event \
                    or "kind" not in event or "ts" not in event:
                raise CorruptRecordError(line_no, "missing required fields")
            if event["kind"] not in EVENT_KINDS:
                raise CorruptRecordError(
                    line_no, f"unknown kind {event['kind']!r}")
            events.append(event)
    return events
