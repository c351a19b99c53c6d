"""Notification gateway: channel bindings, message templates, sinks.

Channels are abstract (ChatA / ChatB / Email); a binding maps each enabled
channel to an endpoint descriptor, either a file path (append one JSON
object per line) or an http(s) webhook URL (POST the same object).
Delivery is at-least-once with idempotent message ids; dedup is the
receiver's concern. `attempt_delivery` is the one retry/terminal rule.

A message is built once, as its wire dict: the payload put on the wire.
The event that announces it carries that dict, the fold keeps the same
dict in the outbox's `OutboundMessage`, and every sink sends it as it is.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Protocol, TextIO

from .assignment import AssignmentDecision
from .reminders import Reminder
from .timeutil import iso, parse_ts
from .workflow import WorkflowState

DEFAULT_MAX_RETRIES = 3

STATE_PENDING = "Pending"
STATE_DELIVERED = "Delivered"
STATE_FAILED = "Failed"

#: Compact, key-sorted JSON: the bytes of an event-log line and of a
#: channel-file line. One prebuilt encoder, not one per call, and no
#: cycle check: a record is a tree of dicts and lists.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                check_circular=False).encode


class Channel(str, Enum):
    CHAT_A = "ChatA"
    CHAT_B = "ChatB"
    EMAIL = "Email"


#: Each channel by its wire value: a dict lookup, not an Enum call.
CHANNEL_BY_VALUE = {channel.value: channel for channel in Channel}

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

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise BindingError(f"team {self.team_id}: no channels enabled")
        if self.review_channel not in self.endpoints:
            raise BindingError(
                f"team {self.team_id}: review channel not enabled")
        if self.review_channel not in CHAT_CHANNELS:
            raise BindingError(
                f"team {self.team_id}: review channel must be a chat channel")

    def enabled(self) -> list[Channel]:
        return [c for c in CHANNEL_ORDER if c in self.endpoints]


#: The keys of a message's wire dict.
WIRE_FIELDS = frozenset({"msg_id", "team", "channel", "kind", "ticket",
                         "text", "ts"})


class OutboundMessage:
    """One message: its wire dict and its delivery state.

    The wire dict is the payload put on the wire (webhook body / file
    line). It is shared, not copied: the event that announced the message
    holds the same dict, so it must not be mutated.
    """

    __slots__ = ("_wire", "channel", "delivery_state", "retries",
                 "terminal")

    def __init__(self, msg_id: str, team_id: str, channel: Channel,
                 kind: str, ticket_id: str, text: str, created_at: datetime,
                 delivery_state: str = STATE_PENDING, retries: int = 0,
                 terminal: bool = False):
        self._wire = {
            "msg_id": msg_id,
            "team": team_id,
            "channel": channel.value,
            "kind": kind,
            "ticket": ticket_id,
            "text": text,
            "ts": iso(created_at),
        }
        self.channel = channel
        self.delivery_state = delivery_state
        self.retries = retries
        self.terminal = terminal

    @classmethod
    def from_wire(cls, wire: dict, channel: Channel) -> OutboundMessage:
        """A pending message holding `wire`, whose "channel" is `channel`."""
        message = cls.__new__(cls)
        message._wire = wire
        message.channel = channel
        message.delivery_state = STATE_PENDING
        message.retries = 0
        message.terminal = False
        return message

    def wire(self) -> dict:
        """The payload put on the wire: the shared dict itself."""
        return self._wire

    msg_id = property(lambda self: self._wire["msg_id"])
    team_id = property(lambda self: self._wire["team"])
    kind = property(lambda self: self._wire["kind"])
    ticket_id = property(lambda self: self._wire["ticket"])
    text = property(lambda self: self._wire["text"])
    created_at = property(lambda self: parse_ts(self._wire["ts"]))

    def _state(self) -> tuple:
        return (self._wire, self.delivery_state, self.retries, self.terminal)

    def __eq__(self, other) -> bool:
        if type(other) is not OutboundMessage:
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (f"OutboundMessage({self._wire!r}, {self.delivery_state!r}, "
                f"retries={self.retries}, terminal={self.terminal})")


# ---------------------------------------------------------------------------
# Message templates (bit-exact; covered by golden tests)
# ---------------------------------------------------------------------------

def assignment_text(decision: AssignmentDecision) -> str:
    return (f"ASSIGNED {decision.ticket_id} -> {decision.engineer_id} "
            f"[{decision.policy}] at {iso(decision.decided_at)}")


def state_change_text(ticket_id: str, from_state: WorkflowState,
                      to_state: WorkflowState, at: datetime) -> str:
    return (f"STATE {ticket_id} {from_state.value} -> {to_state.value} "
            f"at {iso(at)}")


def reminder_text(reminder: Reminder) -> str:
    return (f"REMIND {reminder.ticket_id} {reminder.kind.value} "
            f"#{reminder.escalation_index} at {iso(reminder.generated_at)}")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def route_reminder(reminder: Reminder, binding: ChannelBinding,
                   make_id) -> list[OutboundMessage]:
    """One message per enabled channel."""
    return [
        OutboundMessage(
            msg_id=make_id(),
            team_id=binding.team_id,
            channel=channel,
            kind=reminder.kind.value,
            ticket_id=reminder.ticket_id,
            text=reminder_text(reminder),
            created_at=reminder.generated_at,
        )
        for channel in binding.enabled()
    ]


def announce_assignment(decision: AssignmentDecision, binding: ChannelBinding,
                        make_id) -> OutboundMessage:
    """Exactly one message, to the team's review channel."""
    return OutboundMessage(
        msg_id=make_id(),
        team_id=binding.team_id,
        channel=binding.review_channel,
        kind="Assignment",
        ticket_id=decision.ticket_id,
        text=assignment_text(decision),
        created_at=decision.decided_at,
    )


def announce_state_change(ticket_id: str, from_state: WorkflowState,
                          to_state: WorkflowState, at: datetime,
                          binding: ChannelBinding, make_id) -> OutboundMessage:
    return OutboundMessage(
        msg_id=make_id(),
        team_id=binding.team_id,
        channel=binding.review_channel,
        kind="StateChange",
        ticket_id=ticket_id,
        text=state_change_text(ticket_id, from_state, to_state, at),
        created_at=at,
    )


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class SinkUnreachable(Exception):
    """Transient delivery failure; retried on the next cycle."""


class PayloadRejected(Exception):
    """Permanent delivery failure; the message is failed terminally."""


class Sink(Protocol):
    def deliver(self, message: OutboundMessage) -> None: ...


class FileSink:
    """Appends one JSON object per line to `<dir>/<channel>.ndjson`.

    A channel file is opened on the first delivery to it and stays open
    until `close`, which the board calls at the end of every outbox flush,
    so no handle outlives a flush. Each line is flushed to the OS before
    `deliver` returns, that is, before its delivery is logged.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._files: dict[Channel, TextIO] = {}

    def deliver(self, message: OutboundMessage) -> None:
        line = compact_json(message.wire()) + "\n"
        fh = self._files.get(message.channel)
        try:
            if fh is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                path = self.directory / f"{message.channel.value}.ndjson"
                fh = path.open("a", encoding="utf-8")
                self._files[message.channel] = fh
            fh.write(line)
            fh.flush()
        except OSError as exc:
            # The next attempt reopens the file through a fresh handle.
            if fh is not None:
                self._close(self._files.pop(message.channel))
            raise SinkUnreachable(str(exc)) from exc

    def close(self) -> None:
        """Close every open channel file."""
        files, self._files = self._files, {}
        for fh in files.values():
            self._close(fh)

    @staticmethod
    def _close(fh: TextIO) -> None:
        # Every delivered line is already flushed; a failing close loses
        # nothing and must not abort the cycle.
        try:
            fh.close()
        except OSError:
            pass


class WebhookSink:
    """POSTs the wire payload as JSON: 2xx delivered, 4xx rejected."""

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout

    def deliver(self, message: OutboundMessage) -> None:
        body = json.dumps(message.wire()).encode("utf-8")
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
    """Collects wire payloads in memory; used by tests and dry runs."""

    def __init__(self):
        self.delivered: list[dict] = []

    def deliver(self, message: OutboundMessage) -> None:
        self.delivered.append(message.wire())


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


def attempt_delivery(message: OutboundMessage, sink: Sink | None,
                     max_retries: int) -> tuple[str, int, bool]:
    """Try to deliver a pending message once; return its new (state,
    retries, terminal) and leave the message itself unchanged.

    A missing sink counts as unreachable. Transient failures increment the
    retry count and become terminal once max_retries attempts have failed;
    rejections are terminal immediately.
    """
    try:
        if sink is None:
            raise SinkUnreachable(f"no sink for {message.channel.value}")
        sink.deliver(message)
    except PayloadRejected:
        return STATE_FAILED, message.retries + 1, True
    except SinkUnreachable:
        retries = message.retries + 1
        return STATE_FAILED, retries, retries >= max_retries
    return STATE_DELIVERED, message.retries, False
