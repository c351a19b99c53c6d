"""Append-only event log and the snapshot fold.

Each board persists as one newline-delimited JSON file; every record is
{"seq", "ts", "board", "kind", ...kind fields}. Board state is a pure fold
over the records, so any prefix of the log replays to a consistent
snapshot and live state always equals replay of what was written.

`fold_event` checks what every record shares (its seq, board, `ts` and
the messages it announces), then `apply_event` hands the record to the
one handler for its kind, found in a table keyed by kind, and takes in
its messages, seq and message counter. Every record from outside a
cycle takes both steps: replay and restart, `report` and the board's
external commands. The records a cycle builds from state the runtime
already holds (`board.BoardRuntime.run_cycle`) take only the second:
what the shared checks guard holds for them by construction, and each
still meets its handler's checks against the board. Either way, each
record kind changes state in one place.

The fold also keeps derived indexes (open tickets, the unassigned
backlog, the assignments whose announcement has had no delivery attempt)
so that a cycle reads only what is new, never the whole history. They
hold nothing the log does not: `replay` rebuilds them, and snapshot
equality ignores them.

The outbox is the set of pending messages, in commit order: the wire
dicts their events carry, which the sinks send as they are (see
`notify`), so the fold checks every field of them. A message enters it
with the event that announces it and leaves it with the
`MessageDelivered` record that settles it (delivered, or failed for
good); the snapshot keeps only the failed attempts of pending messages
and a count of settled messages per channel and outcome.

The log is read in batches of lines, each parsed by one JSON scan, so the
records of a batch share one string per key. A batch that does not read
as exactly one record per line is read again line by line, so an error
names the same line and text either way. `iter_event_log` yields records
as it reads them, and the `replay` and `report` commands fold that stream:
they hold the board, not its history, and report the first line in file
order that cannot be read or folded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from .notify import (
    CHANNEL_BY_VALUE,
    STATE_DELIVERED,
    STATE_FAILED,
    WIRE_FIELDS,
    AppendWriter,
    compact_json,
    record_line,
)
from .reminders import REMINDER_KIND_BY_VALUE
from .timeutil import parse_ts
from .workflow import (
    BACKLOG,
    DONE,
    PRIORITY_BY_VALUE,
    REOPEN_BY_VALUE,
    STATE_BY_VALUE,
    Ticket,
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
    missing or mistyped, names another board or a ticket or message the
    board does not know, reuses a message id or skips a reminder index."""

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
    #: (ticket id, reminder kind) -> the last escalation index sent in
    #: that stream; indices 1..n were sent, in order.
    reminder_ledger: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Pending messages by msg id, in commit order: the wire dicts their
    #: events carry, shared with the events and so never to be mutated.
    outbox: dict[str, dict] = field(default_factory=dict)
    #: Failed attempts by msg id, for each pending message that failed.
    retries: dict[str, int] = field(default_factory=dict)
    #: (channel value, final delivery state) -> number of settled messages.
    settled: dict[tuple[str, str], int] = field(default_factory=dict)
    assign_counts: dict[str, int] = field(default_factory=dict)
    msg_counter: int = 0
    watermark: int = 0
    # Derived indexes: maintained by `fold_event`, rebuilt by `replay`,
    # excluded from equality. The log stays the only source of truth.
    unassigned_backlog: set = field(default_factory=set, compare=False)
    open_tickets: set = field(default_factory=set, compare=False)
    #: Msg id -> ticket for each `Assigned` record's announcement that has
    #: had no delivery attempt: the tickets a cycle's reminders skip.
    fresh_assignments: dict[str, str] = field(default_factory=dict,
                                              compare=False)


def _reindex(snapshot: BoardSnapshot, ticket: Ticket) -> None:
    tid, state = ticket.id, ticket.state
    snapshot.tickets[tid] = ticket
    if state is DONE:
        snapshot.open_tickets.discard(tid)
    else:
        snapshot.open_tickets.add(tid)
    if state is BACKLOG and ticket.assignee is None:
        snapshot.unassigned_backlog.add(tid)
    else:
        snapshot.unassigned_backlog.discard(tid)


def _timestamp(seq: int, name: str, raw):
    """`raw` parsed by `parse_ts`; a value it cannot read is malformed."""
    if type(raw) is str:
        try:
            return parse_ts(raw)
        except (ValueError, OverflowError):
            pass
    raise MalformedRecordError(seq, name, f"bad timestamp {raw!r}")


def _bad(seq: int, name: str, raw) -> MalformedRecordError:
    """The error for `raw`, read from field `name`, when it is invalid."""
    return MalformedRecordError(seq, name, f"bad value {raw!r}")


def _member(seq: int, name: str, by_value: dict, raw):
    """The Enum member whose value is `raw`, looked up in `by_value`."""
    try:
        return by_value[raw]
    except (KeyError, TypeError):  # TypeError: a list or an object
        raise MalformedRecordError(seq, name,
                                   f"unknown value {raw!r}") from None


#: Most digits a msg id may have after its "m".
MSG_DIGITS = 18


def _messages(seq: int, wires, event_ts: str, counter: int) -> int:
    """Check an event's wire dicts; return the last message number. Each
    must rise past `counter`, so no id is reused. A message's `ts` must
    parse; the runtime gives it its event's `ts`, parsed already."""
    if type(wires) is not list:
        raise MalformedRecordError(seq, "messages",
                                   f"not a list: {wires!r}")
    for i, wire in enumerate(wires):
        if type(wire) is not dict:
            raise MalformedRecordError(seq, f"messages[{i}]",
                                       f"not an object: {wire!r}")
        try:
            channel, msg_id, ts, team, kind, ticket, text = (
                wire["channel"], wire["msg_id"], wire["ts"], wire["team"],
                wire["kind"], wire["ticket"], wire["text"])
        except KeyError:
            raise MalformedRecordError(
                seq, f"messages[{i}].{min(WIRE_FIELDS - wire.keys())}",
                "missing value") from None
        if type(channel) is not str or channel not in CHANNEL_BY_VALUE:
            raise MalformedRecordError(seq, f"messages[{i}].channel",
                                       f"unknown channel {channel!r}")
        # "m" and 1 to 18 ASCII digits: `isdigit` alone takes other
        # scripts' digits, which `int` reads too.
        digits = (msg_id[1:] if type(msg_id) is str and msg_id[:1] == "m"
                  else "")
        if not (0 < len(digits) <= MSG_DIGITS and digits.isascii()
                and digits.isdigit()):
            raise MalformedRecordError(seq, f"messages[{i}].msg_id",
                                       f"bad message id {msg_id!r}")
        if ts != event_ts:
            _timestamp(seq, f"messages[{i}].ts", ts)
        if not (type(team) is type(kind) is type(ticket) is type(text) is str):
            name = next(name for name in ("team", "kind", "ticket", "text")
                        if type(wire[name]) is not str)
            raise _bad(seq, f"messages[{i}].{name}", wire[name])
        if (number := int(digits)) <= counter:
            raise MalformedRecordError(seq, f"messages[{i}].msg_id",
                                       f"reused message id {msg_id!r}")
        counter = number
    return counter


def _ticket(snapshot: BoardSnapshot, event: dict) -> Ticket:
    """The known ticket that `event` names."""
    tid = event["ticket"]
    ticket = snapshot.tickets.get(tid) if type(tid) is str else None
    if ticket is None:
        raise MalformedRecordError(event["seq"], "ticket",
                                   f"unknown ticket {tid!r}")
    return ticket


def fold_event(snapshot: BoardSnapshot, event: dict) -> None:
    """Apply one event in place, all or nothing: a seq gap, an illegal
    transition, an unknown or duplicate ticket, an unknown message or a
    missing or malformed field raises before the snapshot changes. The
    checks every record shares come first, then `apply_event`."""
    seq = event["seq"]
    # A bool is an int to Python, but not a seq.
    if type(seq) is not int:
        raise _bad(seq, "seq", seq)
    if seq != snapshot.watermark + 1:
        raise SeqGapError(snapshot.watermark + 1, seq)
    try:
        kind, board = event["kind"], event["board"]
        if board != snapshot.board_id:
            raise MalformedRecordError(seq, "board", f"expected board "
                                       f"{snapshot.board_id!r}, got "
                                       f"{board!r}")
        ts = _timestamp(seq, "ts", event["ts"])
        msg_counter = (_messages(seq, event["messages"], event["ts"],
                                 snapshot.msg_counter)
                       if "messages" in event else snapshot.msg_counter)
        try:
            _FOLDS[kind]  # the handler `apply_event` calls
        except (KeyError, TypeError):  # TypeError: a list or an object
            raise ValueError(f"unknown event kind: {kind}") from None
        apply_event(snapshot, event, ts, msg_counter)
    except KeyError as exc:
        # Every field is read before anything changes.
        raise MalformedRecordError(seq, exc.args[0], "missing value") \
            from None
    except OverflowError:  # a default SLA deadline past the year 9999
        raise MalformedRecordError(seq, "ts", "date out of range") from None


def apply_event(snapshot: BoardSnapshot, event: dict, ts: datetime,
                msg_counter: int) -> None:
    """The end of `fold_event`, for a record whose shared checks hold: its
    kind's handler, which checks the record against the board's state and
    raises before changing anything, then the outbox, `msg_counter` and
    `watermark`. `ts` is the instant the record's `ts` parses to and
    `msg_counter` the number of its last message (the snapshot's when it
    announces none). The cycle applies the records it builds from its own
    state here; every other record comes through `fold_event`."""
    seq = event["seq"]
    _FOLDS[event["kind"]](snapshot, event, seq, ts)
    for wire in event.get("messages", ()):
        snapshot.outbox[wire["msg_id"]] = wire
    snapshot.msg_counter = msg_counter
    snapshot.watermark = seq


def _fold_created(snapshot: BoardSnapshot, event: dict, seq: int,
                  ts: datetime) -> None:
    tid, reporter = event["ticket"], event["reporter"]
    labels = event.get("labels", [])
    if type(tid) is not str:
        raise _bad(seq, "ticket", tid)
    if tid in snapshot.tickets:
        raise DuplicateTicketError(tid)
    if type(reporter) is not str:
        raise _bad(seq, "reporter", reporter)
    if type(labels) is not list or not all(type(x) is str for x in labels):
        raise _bad(seq, "labels", labels)
    _reindex(snapshot, new_ticket(
        ticket_id=tid,
        reporter=reporter,
        created_at=ts,
        priority=_member(seq, "priority", PRIORITY_BY_VALUE,
                         event.get("priority", "Medium")),
        sla_deadline=(_timestamp(seq, "sla_deadline", event["sla_deadline"])
                      if "sla_deadline" in event else None),
        labels=tuple(labels),
    ))


def _fold_transitioned(snapshot: BoardSnapshot, event: dict, seq: int,
                       ts: datetime) -> None:
    ticket = _ticket(snapshot, event)
    to = _member(seq, "to", STATE_BY_VALUE, event["to"])
    if "reopen_mode" in event:
        mode = _member(seq, "reopen_mode", REOPEN_BY_VALUE,
                       event["reopen_mode"])
        ticket = reopen(ticket, mode, ts)
        # The record names the state its reopen mode leads to.
        if ticket.state is not to:
            raise _bad(seq, "to", event["to"])
    else:
        ticket = apply_transition(ticket, to, ts)
    _reindex(snapshot, ticket)
    # A state change resets the stuck clock, so the next spell's
    # escalations restart at index 1.
    snapshot.reminder_ledger.pop((ticket.id, "StuckState"), None)


def _fold_assigned(snapshot: BoardSnapshot, event: dict, seq: int,
                   ts: datetime) -> None:
    ticket, eng = _ticket(snapshot, event), event["engineer"]
    cursor_after = event.get("cursor_after")
    if type(eng) is not str:
        raise _bad(seq, "engineer", eng)
    if cursor_after is not None and (type(cursor_after) is not int
                                     or cursor_after < 0):
        raise _bad(seq, "cursor_after", cursor_after)
    _reindex(snapshot, evolve(ticket, assignee=eng))
    if cursor_after is not None:
        snapshot.cursor_position = cursor_after
    snapshot.assign_counts[eng] = snapshot.assign_counts.get(eng, 0) + 1
    for wire in event.get("messages", ()):
        snapshot.fresh_assignments[wire["msg_id"]] = ticket.id


def _fold_reassigned(snapshot: BoardSnapshot, event: dict, seq: int,
                     ts: datetime) -> None:
    ticket, eng = _ticket(snapshot, event), event["engineer"]
    if type(eng) is not str:
        raise _bad(seq, "engineer", eng)
    _reindex(snapshot, evolve(ticket, assignee=eng))


def _fold_reminder_sent(snapshot: BoardSnapshot, event: dict, seq: int,
                        ts: datetime) -> None:
    kind_value = event["reminder_kind"]
    _member(seq, "reminder_kind", REMINDER_KIND_BY_VALUE, kind_value)
    stream = (_ticket(snapshot, event).id, kind_value)
    index = event["index"]
    # Each stream counts up from 1, one index per record.
    expected = snapshot.reminder_ledger.get(stream, 0) + 1
    if type(index) is not int or index != expected:
        raise MalformedRecordError(
            seq, "index", f"expected index {expected}, got {index!r}")
    snapshot.reminder_ledger[stream] = index


def _fold_message_delivered(snapshot: BoardSnapshot, event: dict, seq: int,
                            ts: datetime) -> None:
    msg_id, state, retries, terminal = (
        event["msg_id"], event["state"], event["retries"], event["terminal"])
    if state not in (STATE_DELIVERED, STATE_FAILED):
        raise _bad(seq, "state", state)
    if type(retries) is not int or retries < 0:
        raise _bad(seq, "retries", retries)
    if type(terminal) is not bool:
        raise _bad(seq, "terminal", terminal)
    wire = snapshot.outbox.get(msg_id) if type(msg_id) is str else None
    if wire is None:
        # Never announced, or settled already.
        raise MalformedRecordError(seq, "msg_id",
                                   f"unknown message {msg_id!r}")
    snapshot.fresh_assignments.pop(msg_id, None)
    if state == STATE_DELIVERED or terminal:
        del snapshot.outbox[msg_id]
        snapshot.retries.pop(msg_id, None)
        key = (wire["channel"], state)
        snapshot.settled[key] = snapshot.settled.get(key, 0) + 1
    else:
        snapshot.retries[msg_id] = retries


#: One handler per record kind.
_FOLDS = {
    KIND_CREATED: _fold_created,
    KIND_TRANSITIONED: _fold_transitioned,
    KIND_ASSIGNED: _fold_assigned,
    KIND_REASSIGNED: _fold_reassigned,
    KIND_REMINDER_SENT: _fold_reminder_sent,
    KIND_MESSAGE_DELIVERED: _fold_message_delivered,
}


def replay(events: Iterable[dict],
           board_id: str | None = None) -> BoardSnapshot:
    """Rebuild a snapshot by folding every event; each must name board
    `board_id`, or, when that is None, the board the first event names."""
    snapshot = None if board_id is None else BoardSnapshot(board_id)
    for event in events:
        if snapshot is None:
            board = event.get("board", "")  # missing: the fold says so
            if type(board) is not str:
                raise _bad(event["seq"], "board", board)
            snapshot = BoardSnapshot(board)
        fold_event(snapshot, event)
    return snapshot if snapshot is not None else BoardSnapshot("")


class EventLog:
    """In-memory event list with optional ndjson persistence, written by
    one `AppendWriter` call per `append`, before it returns. Each record's
    line is `notify.record_line`'s: a record that fits its kind's layout
    has its announced messages encoded once, there, and `lines` keeps
    each message's line until the board's flush takes it for the
    message's sink."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        #: Msg id -> its wire's line, for each message this log wrote to
        #: its file that no flush has taken yet; empty in memory.
        self.lines: dict[str, str] = {}
        self._writer: AppendWriter | None = None
        if self.path is not None and self.path.exists():
            self.events = read_event_log(self.path)
        #: seq of the last event in `events`; 0 when empty.
        self.watermark: int = self.events[-1]["seq"] if self.events else 0

    def append(self, events: list[dict]) -> int:
        """Append events whose seq continues the log; returns the new
        watermark. A failed write leaves the file, `events`, `watermark`
        and `lines` as they were. A file-backed log writes each event as
        `record_line(event)`, `encode_event`'s text, and once the write
        succeeds keeps in `lines` the line of each wire it announces."""
        expected = self.watermark + 1
        for event in events:
            if event["seq"] != expected:
                raise SeqGapError(expected, event["seq"])
            expected += 1
        if self.path is not None:
            if self._writer is None:
                self._writer = AppendWriter(self.path)
            lines: dict[str, str] = {}
            self._writer.write("".join([record_line(event, lines) + "\n"
                                        for event in events]).encode())
            self.lines.update(lines)
        self.events.extend(events)
        self.watermark = expected - 1
        return self.watermark

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Parses one JSON value at an index: `json.loads` without its wrapper.
#: Keys are shared within one call, never across calls.
_scan_json = json.JSONDecoder().scan_once

#: Characters of log lines parsed with one scan, about 64 Ki.
_BATCH_CHARS = 1 << 16

#: The JSON string "\0", set between each two lines of a batch.
_SENTINEL = '"\\u0000"'
_JOIN = "\n," + _SENTINEL + "\n,"


def _fault(value) -> str | None:
    """Why the parsed line `value` is not a record, or None."""
    if type(value) is not dict or "seq" not in value \
            or "kind" not in value or "ts" not in value:
        return "missing required fields"
    if value["kind"] not in EVENT_KINDS:
        return f"unknown kind {value['kind']!r}"
    return None


def _not_utf8(text: str) -> str | None:
    """Why `text`, decoded with `surrogateescape`, was not UTF-8, or None.
    The flag `isascii` reads is stored, so an ASCII text costs nothing."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    return None


def _parse_line(line: str, line_no: int) -> dict:
    """The record on one stripped, nonblank line."""
    if (fault := _not_utf8(line)) is not None:
        raise CorruptRecordError(line_no, fault)
    try:
        event, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        # Not one JSON value: json.loads words the error.
        try:
            event = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorruptRecordError(line_no, f"invalid JSON: {exc}")
    if (fault := _fault(event)) is not None:
        raise CorruptRecordError(line_no, fault)
    return event


def _scan_batch(lines: list[str]) -> list[dict] | None:
    r"""The records on `lines` (stripped, nonblank), one per line, from one
    scan of the array `[line, "\u0000", line, ..., line]`, so that they
    share one string per key; None when the batch must be read line by
    line, as it must when it holds bytes that are not UTF-8.

    Accepting the array is exact. Strict JSON has no raw NUL in a string,
    so the only text whose value is the string "\0" is the sentinel token
    `"\u0000"`. The n - 1 odd values are such strings, in order, at the
    top level of the array, so each is its own occurrence of the token.
    The text holds n - 1 occurrences, the joins' own, so no line holds one
    and the odd values are the joins' tokens. The commas next to each join
    token then separate top-level values, and what lies between two joins,
    one line, is exactly the one value between them. A value parses the
    same wherever its text stands, so each record is the line read alone.
    Without the count, a line `{A},"\u0000",{B}` could stand in for a join
    while a record split over two lines takes that join's place.
    """
    n = len(lines)
    text = "[" + _JOIN.join(lines) + "]"
    if text.count(_SENTINEL) != n - 1 or _not_utf8(text) is not None:
        return None
    try:
        values, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    records = values[0::2]
    if end != len(text) or len(values) != 2 * n - 1 \
            or values[1::2].count("\0") != n - 1 \
            or any(map(_fault, records)):
        return None
    return records


def iter_event_log(path: str | Path) -> Iterator[dict]:
    """Yield the records of an ndjson log in file order. The first line
    that is not one record raises `CorruptRecordError` with its line
    number; blank lines are skipped but counted.

    Lines come in batches of about `_BATCH_CHARS` characters, split as
    iterating the file splits them, and a batch parses with one scan (see
    `_scan_batch`). A batch that will not is read line by line, each
    record yielded before the next line is read, so a consumer that folds
    the stream meets the first line it cannot read or fold first. Bytes
    that are not UTF-8 decode to lone surrogates, so the line that holds
    them is the one named."""
    line_no = 0
    with Path(path).open("r", encoding="utf-8",
                         errors="surrogateescape") as fh:
        while batch := fh.readlines(_BATCH_CHARS):
            records = _scan_batch([line for line in map(str.strip, batch)
                                   if line])
            if records is None:
                for line_no, line in enumerate(batch, line_no + 1):
                    if line := line.strip():
                        yield _parse_line(line, line_no)
            else:
                line_no += len(batch)
                yield from records


def read_event_log(path: str | Path) -> list[dict]:
    """Every record of an ndjson log, as `iter_event_log` yields them."""
    return list(iter_event_log(path))
