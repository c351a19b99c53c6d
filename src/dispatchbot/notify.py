"""Notification gateway: channel bindings, message templates, sinks.

Channels are abstract (ChatA / ChatB / Email); a binding maps each enabled
channel to an endpoint descriptor, either a file path (append one JSON
object per line) or an http(s) webhook URL (POST the same object).
Delivery is at-least-once with idempotent message ids; dedup is the
receiver's concern. `hand_over` gives a message to its sink, and `settle`
is the one retry/terminal rule, applied once a message's outcome is final.
Importing this module loads no HTTP client: `WebhookSink` imports the
stdlib one on its first delivery, and `check_endpoint` needs only
`urllib.parse`.

A message is its wire dict, the payload put on the wire: the
`announce_*` and `route_reminder` templates build it, the event that
announces it carries it, the fold keeps that same dict in the snapshot's
outbox until its delivery settles, and every sink's `deliver` takes it
and sends it as it is. No sink mutates it.

This module is the one place that serializes a record or a message.
`compact_json` is the canonical encoder. `record_line`, which writes
each line of a file-backed log, takes its text from a fixed layout per
record kind (`_LAYOUTS`) and per wire (`wire_line`): an f-string of the
shape's keys in sorted order, the same text `compact_json` gives. A
value a layout does not fit exactly, in keys or in types, is encoded by
`compact_json`. A record that fits has each of its wires encoded once,
and that line goes into the dict `record_line` is given, under the
wire's msg id. A file-backed log keeps those lines (`EventLog.lines`)
until the flush hands each to its sink with the wire, so a message's
channel line and its webhook body are the text its event's log line
holds. A sink handed no line encodes the wire with `wire_line`.
"""

from __future__ import annotations

import io
import json
import os
import urllib.parse
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Protocol

from .assignment import AssignmentDecision
from .reminders import REMINDER_KIND_VALUE, Reminder
from .timeutil import iso
from .workflow import STATE_VALUE, WorkflowState

DEFAULT_MAX_RETRIES = 3

STATE_DELIVERED = "Delivered"
STATE_FAILED = "Failed"

#: The C encoder that `JSONEncoder(sort_keys=True, separators=(",", ":"),
#: check_circular=False).encode` would build on every call, built once
#: with the same arguments: the same bytes, and the same `TypeError` for
#: a value JSON cannot hold. No cycle check: a record is a tree of dicts
#: and lists.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)


def compact_json(value) -> str:
    """Compact, key-sorted JSON: the bytes of an event-log line, of a
    channel-file line and of a webhook body."""
    return "".join(_encode(value, 0))


#: The escaper the C encoder calls for each string: every str a layout
#: writes goes through it, so its text is the encoder's whatever the
#: string holds.
_quote = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# Line layouts: `compact_json` of each record shape the runtime writes
# ---------------------------------------------------------------------------
#
# Each layout writes its shape's keys in sorted order, a str through
# `_quote`, an int (`type(v) is int`, so no bool) as `int` formats it,
# and a bool or None as its literal. It returns None unless the value has
# exactly its keys, each of exactly its type; then `compact_json` encodes
# the value instead. Tests hold each layout to `compact_json`.

def wire_line(wire) -> str | None:
    """`compact_json(wire)` for a dict of exactly the seven `WIRE_FIELDS`,
    each a str; None for any other value."""
    if type(wire) is not dict or len(wire) != 7:
        return None
    try:
        channel, kind, msg_id, team, text, ticket, ts = (
            wire["channel"], wire["kind"], wire["msg_id"], wire["team"],
            wire["text"], wire["ticket"], wire["ts"])
    except KeyError:
        return None
    if not (type(channel) is type(kind) is type(msg_id) is type(team)
            is type(text) is type(ticket) is type(ts) is str):
        return None
    return (f'{{"channel":{_quote(channel)},"kind":{_quote(kind)},'
            f'"msg_id":{_quote(msg_id)},"team":{_quote(team)},'
            f'"text":{_quote(text)},"ticket":{_quote(ticket)},'
            f'"ts":{_quote(ts)}}}')


def _created(r: dict, lines: dict[str, str]) -> str | None:
    try:
        board, priority, reporter, seq, ticket, ts = (
            r["board"], r["priority"], r["reporter"], r["seq"], r["ticket"],
            r["ts"])
    except KeyError:
        return None
    if not (type(board) is type(priority) is type(reporter) is type(ticket)
            is type(ts) is str and type(seq) is int):
        return None
    keys, labels, deadline = 7, "", ""
    if "labels" in r:
        value = r["labels"]
        if type(value) is not list or not all(
                type(label) is str for label in value):
            return None
        keys, labels = keys + 1, f',"labels":[{",".join(map(_quote, value))}]'
    if "sla_deadline" in r:
        value = r["sla_deadline"]
        if type(value) is not str:
            return None
        keys, deadline = keys + 1, f',"sla_deadline":{_quote(value)}'
    if len(r) != keys:
        return None
    return (f'{{"board":{_quote(board)},"kind":"Created"{labels},'
            f'"priority":{_quote(priority)},"reporter":{_quote(reporter)},'
            f'"seq":{seq}{deadline},"ticket":{_quote(ticket)},'
            f'"ts":{_quote(ts)}}}')


def _transitioned(r: dict, lines: dict[str, str]) -> str | None:
    try:
        actor, board, from_, messages, seq, ticket, to, ts = (
            r["actor"], r["board"], r["from"], r["messages"], r["seq"],
            r["ticket"], r["to"], r["ts"])
    except KeyError:
        return None
    if not (type(actor) is type(board) is type(from_) is type(ticket)
            is type(to) is type(ts) is str and type(seq) is int
            and type(messages) is list and len(messages) == 1
            and (wire := wire_line(messages[0])) is not None):
        return None
    keys, mode = 9, ""
    if "reopen_mode" in r:
        value = r["reopen_mode"]
        if type(value) is not str:
            return None
        keys, mode = keys + 1, f',"reopen_mode":{_quote(value)}'
    if len(r) != keys:
        return None
    line = (f'{{"actor":{_quote(actor)},"board":{_quote(board)},'
            f'"from":{_quote(from_)},"kind":"Transitioned",'
            f'"messages":[{wire}]{mode},"seq":{seq},'
            f'"ticket":{_quote(ticket)},"to":{_quote(to)},'
            f'"ts":{_quote(ts)}}}')
    lines[messages[0]["msg_id"]] = wire
    return line


def _assigned(r: dict, lines: dict[str, str]) -> str | None:
    if len(r) != 9:
        return None
    try:
        board, cursor, engineer, messages, policy, seq, ticket, ts = (
            r["board"], r["cursor_after"], r["engineer"], r["messages"],
            r["policy"], r["seq"], r["ticket"], r["ts"])
    except KeyError:
        return None
    if not (type(board) is type(engineer) is type(policy) is type(ticket)
            is type(ts) is str and type(seq) is int
            and (cursor is None or type(cursor) is int)
            and type(messages) is list and len(messages) == 1
            and (wire := wire_line(messages[0])) is not None):
        return None
    line = (f'{{"board":{_quote(board)},'
            f'"cursor_after":{"null" if cursor is None else cursor},'
            f'"engineer":{_quote(engineer)},"kind":"Assigned",'
            f'"messages":[{wire}],"policy":{_quote(policy)},"seq":{seq},'
            f'"ticket":{_quote(ticket)},"ts":{_quote(ts)}}}')
    lines[messages[0]["msg_id"]] = wire
    return line


def _reassigned(r: dict, lines: dict[str, str]) -> str | None:
    if len(r) != 8:
        return None
    try:
        board, engineer, from_engineer, messages, seq, ticket, ts = (
            r["board"], r["engineer"], r["from_engineer"], r["messages"],
            r["seq"], r["ticket"], r["ts"])
    except KeyError:
        return None
    if not (type(board) is type(engineer) is type(from_engineer)
            is type(ticket) is type(ts) is str and type(seq) is int
            and type(messages) is list and len(messages) == 1
            and (wire := wire_line(messages[0])) is not None):
        return None
    line = (f'{{"board":{_quote(board)},"engineer":{_quote(engineer)},'
            f'"from_engineer":{_quote(from_engineer)},"kind":"Reassigned",'
            f'"messages":[{wire}],"seq":{seq},'
            f'"ticket":{_quote(ticket)},"ts":{_quote(ts)}}}')
    lines[messages[0]["msg_id"]] = wire
    return line


def _reminder_sent(r: dict, lines: dict[str, str]) -> str | None:
    if len(r) != 9:
        return None
    try:
        board, index, messages, recipients, reminder_kind, seq, ticket, ts = (
            r["board"], r["index"], r["messages"], r["recipients"],
            r["reminder_kind"], r["seq"], r["ticket"], r["ts"])
    except KeyError:
        return None
    if not (type(board) is type(reminder_kind) is type(ticket) is type(ts)
            is str and type(index) is type(seq) is int
            and type(recipients) is list
            and all(type(name) is str for name in recipients)
            and type(messages) is list and messages):
        return None
    wires = []
    for message in messages:
        if (wire := wire_line(message)) is None:
            return None
        wires.append(wire)
    line = (f'{{"board":{_quote(board)},"index":{index},'
            f'"kind":"ReminderSent","messages":[{",".join(wires)}],'
            f'"recipients":[{",".join(map(_quote, recipients))}],'
            f'"reminder_kind":{_quote(reminder_kind)},"seq":{seq},'
            f'"ticket":{_quote(ticket)},"ts":{_quote(ts)}}}')
    for message, wire in zip(messages, wires):
        lines[message["msg_id"]] = wire
    return line


def _message_delivered(r: dict, lines: dict[str, str]) -> str | None:
    if len(r) != 8:
        return None
    try:
        board, msg_id, retries, seq, state, terminal, ts = (
            r["board"], r["msg_id"], r["retries"], r["seq"], r["state"],
            r["terminal"], r["ts"])
    except KeyError:
        return None
    if not (type(board) is type(msg_id) is type(state) is type(ts) is str
            and type(retries) is type(seq) is int and type(terminal) is bool):
        return None
    return (f'{{"board":{_quote(board)},"kind":"MessageDelivered",'
            f'"msg_id":{_quote(msg_id)},"retries":{retries},"seq":{seq},'
            f'"state":{_quote(state)},'
            f'"terminal":{"true" if terminal else "false"},'
            f'"ts":{_quote(ts)}}}')


#: The layout of each record kind, by the kind's value.
_LAYOUTS = {
    "Created": _created,
    "Transitioned": _transitioned,
    "Assigned": _assigned,
    "Reassigned": _reassigned,
    "ReminderSent": _reminder_sent,
    "MessageDelivered": _message_delivered,
}


def record_line(record, lines: dict[str, str]) -> str:
    """`compact_json(record)`, written from its kind's layout when the
    record has that layout's keys and types; then each wire of its
    `messages` is encoded once, by `wire_line`, and its line goes into
    `lines` under its msg id. Any other value is encoded by `compact_json`
    and leaves `lines` as it was, so a sink encodes its wires."""
    if type(record) is dict and type(kind := record.get("kind")) is str:
        layout = _LAYOUTS.get(kind)
        if layout is not None and (line := layout(record, lines)) is not None:
            return line
    return compact_json(record)


class AppendWriter:
    """One raw file opened for append (and read) that knows its length:
    the one write path of the event log and of each channel file. A
    `write` that raises or falls short is cut back to that length and
    re-raised; if the cut fails too, every later write raises. A newline
    the file's last line lost leads the first write that succeeds, so a
    torn line left by an earlier writer ends before the next one starts."""

    def __init__(self, path: str | Path):
        try:
            self.file = io.FileIO(path, "a+")
        except FileNotFoundError:  # the directory is new, or was deleted
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            self.file = io.FileIO(path, "a+")
        #: Bytes of the file known to be whole; None once a cut failed.
        self.length: int | None = self.file.tell()
        try:
            tail = (os.pread(self.file.fileno(), 1, self.length - 1)
                    if self.length else b"\n")
        except BaseException:
            self.file.close()
            raise
        self._lead = b"" if tail == b"\n" else b"\n"

    def write(self, data: bytes) -> None:
        if self.length is None:
            raise OSError("a failed write could not be cut back")
        if self._lead:
            data = self._lead + data
        try:
            if self.file.write(data) != len(data):
                raise OSError("short write")
        except BaseException:
            length, self.length = self.length, None
            self.file.truncate(length)
            self.length = length
            raise
        self.length += len(data)
        self._lead = b""

    def close(self) -> None:
        self.file.close()


class Channel(str, Enum):
    CHAT_A = "ChatA"
    CHAT_B = "ChatB"
    EMAIL = "Email"


#: Each channel by its wire value: a dict lookup, not an Enum call.
CHANNEL_BY_VALUE = {channel.value: channel for channel in Channel}

#: Each channel's wire value: a dict lookup, not the `value` descriptor.
CHANNEL_VALUE = {channel: channel.value for channel in Channel}

#: Stable fan-out order for reminders.
CHANNEL_ORDER = (Channel.CHAT_A, Channel.CHAT_B, Channel.EMAIL)

#: Channels eligible to carry the per-team review feed.
CHAT_CHANNELS = frozenset({Channel.CHAT_A, Channel.CHAT_B})


class BindingError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelBinding:
    team_id: str
    #: enabled channel -> endpoint descriptor (file path or webhook URL)
    endpoints: dict[Channel, str]
    review_channel: Channel
    #: The wire values of the enabled channels in CHANNEL_ORDER, which
    #: every reminder goes to, built once.
    fan_out: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every message's `team` is this value, and the fold reads only
        # a str there.
        if type(self.team_id) is not str:
            raise BindingError(f"team_id must be a string, got "
                               f"{self.team_id!r}")
        if not self.endpoints:
            raise BindingError(f"team {self.team_id}: no channels enabled")
        if self.review_channel not in self.endpoints:
            raise BindingError(
                f"team {self.team_id}: review channel not enabled")
        if self.review_channel not in CHAT_CHANNELS:
            raise BindingError(
                f"team {self.team_id}: review channel must be a chat channel")
        object.__setattr__(self, "fan_out", tuple(
            c.value for c in CHANNEL_ORDER if c in self.endpoints))


#: The keys of a message's wire dict.
WIRE_FIELDS = frozenset({"msg_id", "team", "channel", "kind", "ticket",
                         "text", "ts"})


# ---------------------------------------------------------------------------
# Message templates (bit-exact; covered by golden tests)
# ---------------------------------------------------------------------------

def assignment_text(decision: AssignmentDecision, ts: str) -> str:
    return (f"ASSIGNED {decision.ticket_id} -> {decision.engineer_id} "
            f"[{decision.policy}] at {ts}")


def state_change_text(ticket_id: str, from_state: WorkflowState,
                      to_state: WorkflowState, ts: str) -> str:
    return (f"STATE {ticket_id} {STATE_VALUE[from_state]} -> "
            f"{STATE_VALUE[to_state]} at {ts}")


def reminder_text(reminder: Reminder, ts: str) -> str:
    return (f"REMIND {reminder.ticket_id} "
            f"{REMINDER_KIND_VALUE[reminder.kind]} "
            f"#{reminder.escalation_index} at {ts}")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def _wire(make_id, binding: ChannelBinding, channel: str, kind: str,
          ticket_id: str, text: str, ts: str) -> dict:
    return {
        "msg_id": make_id(),
        "team": binding.team_id,
        "channel": channel,
        "kind": kind,
        "ticket": ticket_id,
        "text": text,
        "ts": ts,
    }


def route_reminder(reminder: Reminder, binding: ChannelBinding,
                   make_id) -> list[dict]:
    """One message per enabled channel, each with the same text."""
    kind, ticket_id = REMINDER_KIND_VALUE[reminder.kind], reminder.ticket_id
    ts = iso(reminder.generated_at)
    team, text = binding.team_id, reminder_text(reminder, ts)
    return [{"msg_id": make_id(), "team": team, "channel": channel,
             "kind": kind, "ticket": ticket_id, "text": text, "ts": ts}
            for channel in binding.fan_out]


def announce_assignment(decision: AssignmentDecision, binding: ChannelBinding,
                        make_id) -> dict:
    """Exactly one message, to the team's review channel."""
    ts = iso(decision.decided_at)
    return _wire(make_id, binding, CHANNEL_VALUE[binding.review_channel],
                 "Assignment", decision.ticket_id,
                 assignment_text(decision, ts), ts)


def announce_state_change(ticket_id: str, from_state: WorkflowState,
                          to_state: WorkflowState, at: datetime,
                          binding: ChannelBinding, make_id) -> dict:
    ts = iso(at)
    return _wire(make_id, binding, CHANNEL_VALUE[binding.review_channel],
                 "StateChange", ticket_id,
                 state_change_text(ticket_id, from_state, to_state, ts), ts)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class SinkUnreachable(Exception):
    """Transient delivery failure; retried on the next cycle."""


class PayloadRejected(Exception):
    """Permanent delivery failure; the message is failed terminally."""


class Sink(Protocol):
    """A sink delivers each wire it is handed with `line`, the text its
    event's log line holds for it, which a sink that sends text sends; it
    is None (after a restart or a failed attempt, on a log kept in memory,
    or when its record did not fit a layout) when the sink must encode the
    wire, with `wire_line`. A sink may also have a
    `close()`, which the board calls once per outbox flush, after every
    hand-over and before any delivery is settled; `close` returns the msg
    ids it could not write (`None` means none). Each of those whose
    message a sink took this flush counts as a transient failure."""

    def deliver(self, wire: dict, line: str | None) -> None: ...


class FileSink:
    """Appends one JSON object per line to `<dir>/<channel>.ndjson`.

    `deliver` queues the wire's line (the `line` it is handed, or the
    wire encoded when that is None) under its channel.
    `close`, which the board calls at the end of every outbox flush,
    writes each channel's queued lines with one `AppendWriter` write and
    returns the msg ids of every line queued for a channel it could not
    write; no descriptor outlives a flush. A delivery to a file sink is
    final only once `close` has written its line.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: channel -> (queued lines, their msg ids), in delivery order.
        self._queued: dict[str, tuple[list[str], list[str]]] = {}
        #: channel -> its file's path, built at its first flush.
        self._paths: dict[str, str] = {}

    def deliver(self, wire: dict, line: str | None) -> None:
        if line is None:
            line = wire_line(wire) or compact_json(wire)
        queue = self._queued.get(wire["channel"])
        if queue is None:
            queue = self._queued[wire["channel"]] = ([], [])
        queue[0].append(line)
        queue[1].append(wire["msg_id"])

    def close(self) -> list[str]:
        """Write every queued line; return the msg ids of the lines queued
        for each channel whose open, write or close failed. The writer
        cuts a failed write back, so a channel file holds whole lines."""
        queued, self._queued = self._queued, {}
        failed: list[str] = []
        for channel, (lines, msg_ids) in queued.items():
            path = self._paths.get(channel)
            if path is None:
                path = self._paths[channel] = str(
                    self.directory / f"{channel}.ndjson")
            try:
                writer = AppendWriter(path)
                try:
                    writer.write(("\n".join(lines) + "\n").encode())
                finally:
                    writer.close()
            except OSError:
                failed += msg_ids
        return failed


class WebhookSink:
    """POSTs the wire payload as JSON, the bytes of its channel-file
    line (the `line` it is handed, or the wire encoded when that is
    None): 2xx delivered, 4xx rejected. The stdlib HTTP client (and with
    it `email`, `ssl` and `socket`) loads on the first delivery, so a
    process whose channels are all files never pays for it."""

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout

    def deliver(self, wire: dict, line: str | None) -> None:
        import http.client
        import urllib.error
        import urllib.request

        if line is None:
            line = wire_line(wire) or compact_json(wire)
        body = line.encode("utf-8")
        try:
            request = urllib.request.Request(
                self.url, data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        # ValueError: a malformed URL; HTTPException: a broken response.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise SinkUnreachable(str(exc)) from exc
        if 200 <= status < 300:
            return
        if 400 <= status < 500:
            raise PayloadRejected(f"HTTP {status}")
        raise SinkUnreachable(f"HTTP {status}")


class MemorySink:
    """Collects wire payloads in memory; used by tests and dry runs. It
    keeps the wire and ignores its line."""

    def __init__(self):
        self.delivered: list[dict] = []

    def deliver(self, wire: dict, line: str | None) -> None:
        self.delivered.append(wire)


_WEBHOOK_SCHEMES = ("http://", "https://")


def check_endpoint(descriptor: str) -> None:
    """Raise ValueError for an http(s) endpoint that does not parse or
    names no host; any other descriptor is a file path and passes."""
    if descriptor.startswith(_WEBHOOK_SCHEMES):
        parts = urllib.parse.urlsplit(descriptor)
        parts.port  # raises ValueError on a malformed port
        if not parts.hostname:
            raise ValueError("no host")


def sink_for_endpoint(descriptor: str) -> Sink:
    if descriptor.startswith(_WEBHOOK_SCHEMES):
        return WebhookSink(descriptor)
    return FileSink(descriptor)


def hand_over(wire: dict, line: str | None,
              sink: Sink | None) -> type[Exception] | None:
    """Hand a pending message and its line (see `Sink`) to its sink once
    and return its outcome: None when the sink took it, `SinkUnreachable`
    for a transient failure or a missing sink, `PayloadRejected` for a
    rejection. A sink with a `close` may still fail a message it took."""
    if sink is None:
        return SinkUnreachable
    try:
        sink.deliver(wire, line)
    except PayloadRejected:
        return PayloadRejected
    except SinkUnreachable:
        return SinkUnreachable
    return None


def settle(outcome: type[Exception] | None, retries: int,
           max_retries: int) -> tuple[str, int, bool]:
    """The one retry rule: the (state, retries, terminal) of a message
    whose final outcome is `outcome` after `retries` failed attempts. A
    rejection is terminal at once, a transient failure once max_retries
    attempts have failed."""
    if outcome is None:
        return STATE_DELIVERED, retries, False
    retries += 1
    return (STATE_FAILED, retries,
            outcome is PayloadRejected or retries >= max_retries)
