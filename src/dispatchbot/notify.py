"""Notification gateway: channel bindings, message templates, sinks.

Channels are abstract (ChatA / ChatB / Email); a binding maps each enabled
channel to an endpoint descriptor, either a file path (append one JSON
object per line) or an http(s) webhook URL (POST the same object).
Delivery is at-least-once with idempotent message ids; dedup is the
receiver's concern. `attempt_delivery` is the one retry/terminal rule.
Importing this module loads no HTTP client: `WebhookSink` imports the
stdlib one on its first delivery, and `check_endpoint` needs only
`urllib.parse`.

A message is its wire dict, the payload put on the wire: the
`announce_*` and `route_reminder` templates build it, the event that
announces it carries it, the fold keeps that same dict in the snapshot's
outbox until its delivery settles, and every sink's `deliver` takes it
and sends it as it is. No sink mutates it.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Protocol, TextIO

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
    def deliver(self, wire: dict) -> None: ...


class FileSink:
    """Appends one JSON object per line to `<dir>/<channel>.ndjson`.

    A channel file is opened on the first delivery to it and stays open
    until `close`, which the board calls at the end of every outbox flush,
    so no handle outlives a flush. Each line is flushed to the OS before
    `deliver` returns, that is, before its delivery is logged.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._files: dict[str, TextIO] = {}

    def deliver(self, wire: dict) -> None:
        line = compact_json(wire) + "\n"
        channel = wire["channel"]
        fh = self._files.get(channel)
        try:
            if fh is None:
                path = self.directory / f"{channel}.ndjson"
                try:
                    fh = path.open("a", encoding="utf-8")
                except FileNotFoundError:
                    # The directory is new, or was deleted: make it.
                    self.directory.mkdir(parents=True, exist_ok=True)
                    fh = path.open("a", encoding="utf-8")
                self._files[channel] = fh
            fh.write(line)
            fh.flush()
        except OSError as exc:
            # The next attempt reopens the file through a fresh handle.
            if fh is not None:
                self._close(self._files.pop(channel))
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
    """POSTs the wire payload as JSON, the bytes of its channel-file
    line: 2xx delivered, 4xx rejected. The stdlib HTTP client (and with
    it `email`, `ssl` and `socket`) loads on the first delivery, so a
    process whose channels are all files never pays for it."""

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout

    def deliver(self, wire: dict) -> None:
        import http.client
        import urllib.error
        import urllib.request

        body = compact_json(wire).encode("utf-8")
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

    def deliver(self, wire: dict) -> None:
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


def attempt_delivery(wire: dict, retries: int, sink: Sink | None,
                     max_retries: int) -> tuple[str, int, bool]:
    """Try once to deliver a pending message whose earlier attempts failed
    `retries` times; return its new (state, retries, terminal).

    A missing sink counts as unreachable. Transient failures increment the
    retry count and become terminal once max_retries attempts have failed;
    rejections are terminal immediately.
    """
    try:
        if sink is None:
            raise SinkUnreachable(f"no sink for {wire['channel']}")
        sink.deliver(wire)
    except PayloadRejected:
        return STATE_FAILED, retries + 1, True
    except SinkUnreachable:
        retries += 1
        return STATE_FAILED, retries, retries >= max_retries
    return STATE_DELIVERED, retries, False
