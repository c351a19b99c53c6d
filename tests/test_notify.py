from __future__ import annotations

import json
import socket
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dispatchbot.assignment import AssignmentDecision
from dispatchbot.eventlog import replay
from dispatchbot.notify import (
    BindingError,
    Channel,
    ChannelBinding,
    FileSink,
    MemorySink,
    OutboundMessage,
    PayloadRejected,
    SinkUnreachable,
    WebhookSink,
    assignment_text,
    attempt_delivery,
    reminder_text,
    route_reminder,
    state_change_text,
)
from dispatchbot.reminders import Reminder, ReminderKind
from dispatchbot.workflow import WorkflowState

from .conftest import at, binding, team_config


def make_ids():
    counter = iter(range(1, 100))
    return lambda: f"m{next(counter):06d}"


def decision(policy="RoundRobin"):
    return AssignmentDecision("T1-42", "e3", policy, at(0), cursor_after=1)


def reminder(kind=ReminderKind.STUCK_STATE, index=2):
    return Reminder("T1-42", kind, ("e3", "r1"), index, at(5))


class TestTemplates:
    def test_assignment_text(self):
        assert assignment_text(decision()) == \
            "ASSIGNED T1-42 -> e3 [RoundRobin] at 2025-01-06T09:00:00Z"

    def test_manual_reassignment_tag(self):
        assert "[Manual]" in assignment_text(decision(policy="Manual"))

    def test_state_change_text(self):
        text = state_change_text("T1-42", WorkflowState.WORK_IN_PROGRESS,
                                 WorkflowState.BLOCKED, at(0))
        assert text == \
            "STATE T1-42 WorkInProgress -> Blocked at 2025-01-06T09:00:00Z"

    def test_reminder_text(self):
        assert reminder_text(reminder()) == \
            "REMIND T1-42 StuckState #2 at 2025-01-06T14:00:00Z"


class TestRouting:
    def test_reminder_fans_out_to_all_enabled(self):
        msgs = route_reminder(reminder(), binding(), make_ids())
        assert len(msgs) == 3
        assert [m.channel for m in msgs] == [Channel.CHAT_A, Channel.CHAT_B,
                                             Channel.EMAIL]

    def test_two_channel_team(self):
        b = ChannelBinding("team1", {Channel.EMAIL: "out",
                                     Channel.CHAT_A: "out"}, Channel.CHAT_A)
        msgs = route_reminder(reminder(), b, make_ids())
        assert {m.channel for m in msgs} == {Channel.CHAT_A, Channel.EMAIL}

    def test_announcement_goes_to_review_channel_only(self, memory_runtime):
        runtime = memory_runtime(replace(
            team_config(), binding=binding(review=Channel.CHAT_B)))
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        [assigned] = [e for e in runtime.log.events
                      if e["kind"] == "Assigned"]
        msgs = assigned["messages"]
        assert len(msgs) == 1
        assert msgs[0]["channel"] == Channel.CHAT_B.value

    def test_binding_requires_enabled_review_channel(self):
        with pytest.raises(BindingError):
            ChannelBinding("team1", {Channel.EMAIL: "out"}, Channel.CHAT_A)
        with pytest.raises(BindingError):
            ChannelBinding("team1", {}, Channel.CHAT_A)


class ScriptedSink:
    """Raises the scripted exceptions in order, then succeeds."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.delivered = []

    def deliver(self, message):
        if self.outcomes:
            raise self.outcomes.pop(0)
        self.delivered.append(message.msg_id)


def message():
    return OutboundMessage("m000001", "team1", Channel.CHAT_A, "StuckState",
                           "T1-42", "text", at(0))


@pytest.fixture
def flush(memory_runtime):
    """Run a board whose one assignment announcement, m000001, goes
    through `sink`; return the message's (state, retries, terminal)
    after each of `cycles` hourly cycles, checking replay after each."""

    def run(sink, cycles, max_retries=3):
        runtime = memory_runtime(replace(team_config(),
                                         max_retries=max_retries))
        runtime.sinks = {c: sink for c in runtime.sinks}
        runtime.inject_ticket("T1-1", "r1", at(0))
        outcomes = []
        for hour in range(1, cycles + 1):
            runtime.run_cycle(at(hour))
            msg = runtime.snapshot.outbox["m000001"]
            outcomes.append((msg.delivery_state, msg.retries, msg.terminal))
            assert replay(runtime.log.events) == runtime.snapshot
        return outcomes

    return run


class TestDelivery:
    def test_file_sink_appends_wire_line(self, tmp_path):
        msg = message()
        assert attempt_delivery(msg, FileSink(tmp_path), 3) == \
            ("Delivered", 0, False)
        line = (tmp_path / "ChatA.ndjson").read_text().strip()
        assert json.loads(line) == msg.wire()
        assert json.loads(line)["ts"] == "2025-01-06T09:00:00Z"

    def test_transient_failures_then_success(self, flush):
        sink = ScriptedSink([SinkUnreachable("down"), SinkUnreachable("down")])
        assert flush(sink, 3, max_retries=3) == [
            ("Failed", 1, False), ("Failed", 2, False),
            ("Delivered", 2, False)]
        assert sink.delivered == ["m000001"]

    def test_max_retries_becomes_terminal(self, flush):
        sink = ScriptedSink([SinkUnreachable("down")] * 5)
        assert flush(sink, 3, max_retries=3)[-1] == ("Failed", 3, True)

    def test_rejection_is_immediately_terminal(self, flush):
        outcomes = flush(ScriptedSink([PayloadRejected("bad")]), 1)
        assert outcomes == [("Failed", 1, True)]

    def test_delivered_message_not_redeliverable(self, flush):
        sink = MemorySink()
        assert flush(sink, 3) == [("Delivered", 0, False)] * 3
        assert [m["msg_id"] for m in sink.delivered] == ["m000001"]

    def test_missing_sink_is_unreachable(self):
        assert attempt_delivery(message(), None, 1) == ("Failed", 1, True)

    def test_file_sink_os_error_fails_the_message(self, tmp_path, flush):
        # The sink directory sits under a regular file: `mkdir` fails with
        # NotADirectoryError, the cycle completes and the message retries.
        (tmp_path / "plain").write_text("")
        outcomes = flush(FileSink(tmp_path / "plain" / "channels"), 1)
        assert outcomes == [("Failed", 1, False)]


class Receiver(BaseHTTPRequestHandler):
    """Answers every POST with the server's `status` and keeps the
    decoded bodies in the server's `bodies`."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.bodies.append(json.loads(self.rfile.read(length)))
        self.send_response(self.server.status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def receiver():
    server = HTTPServer(("127.0.0.1", 0), Receiver)
    server.bodies, server.status = [], 204
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def webhook(server):
    host, port = server.server_address
    return WebhookSink(f"http://{host}:{port}/hook", timeout=5)


class TestWebhookSink:
    def test_no_content_is_delivered(self, receiver):
        assert attempt_delivery(message(), webhook(receiver), 3) == \
            ("Delivered", 0, False)

    def test_body_is_the_wire_payload(self, receiver):
        msg = message()
        webhook(receiver).deliver(msg)
        assert receiver.bodies == [msg.wire()]

    def test_bad_request_is_terminal(self, receiver):
        receiver.status = 400
        with pytest.raises(PayloadRejected):
            webhook(receiver).deliver(message())
        assert attempt_delivery(message(), webhook(receiver), 3) == \
            ("Failed", 1, True)

    def test_unavailable_is_retried(self, receiver):
        receiver.status = 503
        with pytest.raises(SinkUnreachable):
            webhook(receiver).deliver(message())
        assert attempt_delivery(message(), webhook(receiver), 3) == \
            ("Failed", 1, False)

    def test_closed_port_is_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sink = WebhookSink(f"http://127.0.0.1:{port}/hook", timeout=5)
        with pytest.raises(SinkUnreachable):
            sink.deliver(message())
        assert attempt_delivery(message(), sink, 3) == ("Failed", 1, False)

    def test_malformed_url_is_retried(self):
        sink = WebhookSink("http://[::1/hook", timeout=5)
        assert attempt_delivery(message(), sink, 3) == ("Failed", 1, False)
