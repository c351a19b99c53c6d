from __future__ import annotations

import errno
import gc
import json
import pathlib
import socket
import sys
import threading
import warnings
from dataclasses import replace
from datetime import datetime
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispatchbot import notify
from dispatchbot.assignment import AssignmentDecision
from dispatchbot.board import BoardRuntime
from dispatchbot.eventlog import EventLog, replay
from dispatchbot.notify import (
    BindingError,
    Channel,
    ChannelBinding,
    FileSink,
    MemorySink,
    PayloadRejected,
    SinkUnreachable,
    WebhookSink,
    assignment_text,
    attempt_delivery,
    compact_json,
    reminder_text,
    route_reminder,
    state_change_text,
)
from dispatchbot.reminders import Reminder, ReminderKind, ThresholdPolicy
from dispatchbot.timeutil import iso
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
        assert assignment_text(decision(), iso(at(0))) == \
            "ASSIGNED T1-42 -> e3 [RoundRobin] at 2025-01-06T09:00:00Z"

    def test_manual_reassignment_tag(self):
        assert "[Manual]" in assignment_text(decision(policy="Manual"),
                                             iso(at(0)))

    def test_state_change_text(self):
        text = state_change_text("T1-42", WorkflowState.WORK_IN_PROGRESS,
                                 WorkflowState.BLOCKED, iso(at(0)))
        assert text == \
            "STATE T1-42 WorkInProgress -> Blocked at 2025-01-06T09:00:00Z"

    def test_reminder_text(self):
        assert reminder_text(reminder(), iso(at(5))) == \
            "REMIND T1-42 StuckState #2 at 2025-01-06T14:00:00Z"


@pytest.fixture
def rendered(monkeypatch):
    """Every instant `notify` renders from now on, in order."""
    instants = []

    def counted_iso(instant):
        instants.append(instant)
        return iso(instant)

    monkeypatch.setattr(notify, "iso", counted_iso)
    return instants


class TestRouting:
    def test_reminder_fans_out_to_all_enabled(self):
        msgs = route_reminder(reminder(), binding(), make_ids())
        assert len(msgs) == 3
        assert [m["channel"] for m in msgs] == [Channel.CHAT_A.value,
                                                Channel.CHAT_B.value,
                                                Channel.EMAIL.value]

    def test_reminder_renders_its_instant_once(self, rendered):
        msgs = route_reminder(reminder(), binding(), make_ids())
        assert rendered == [at(5)]
        assert {(m["text"], m["ts"]) for m in msgs} == {
            ("REMIND T1-42 StuckState #2 at 2025-01-06T14:00:00Z",
             "2025-01-06T14:00:00Z")}

    def test_each_announcement_renders_its_instant_once(self, rendered,
                                                        memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r1", at(0))
        assert rendered == []  # a Created record announces nothing
        runtime.run_cycle(at(1))  # assigns T1-1 and T1-2
        assert rendered == [at(1), at(1)]
        runtime.reassign_ticket("T1-1", "e3", at(2))
        assert rendered[2:] == [at(2)]
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(3), "e3")
        assert rendered[3:] == [at(3)]
        texts = [(m["text"], m["ts"]) for e in runtime.log.events
                 for m in e.get("messages", ())]
        assert texts == [
            ("ASSIGNED T1-1 -> e1 [RoundRobin] at 2025-01-06T10:00:00Z",
             "2025-01-06T10:00:00Z"),
            ("ASSIGNED T1-2 -> e2 [RoundRobin] at 2025-01-06T10:00:00Z",
             "2025-01-06T10:00:00Z"),
            ("ASSIGNED T1-1 -> e3 [Manual] at 2025-01-06T11:00:00Z",
             "2025-01-06T11:00:00Z"),
            ("STATE T1-1 Backlog -> WorkInProgress at 2025-01-06T12:00:00Z",
             "2025-01-06T12:00:00Z")]

    def test_two_channel_team(self):
        b = ChannelBinding("team1", {Channel.EMAIL: "out",
                                     Channel.CHAT_A: "out"}, Channel.CHAT_A)
        msgs = route_reminder(reminder(), b, make_ids())
        assert {m["channel"] for m in msgs} == {Channel.CHAT_A.value,
                                                Channel.EMAIL.value}

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


#: Any JSON value: every string (non-ASCII, control characters and lone
#: surrogates included), ints far past 64 bits, every float (NaN and
#: infinities included), bools and null, nested in lists and objects.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-10**40, max_value=10**40)
    | st.text(st.characters(blacklist_categories=())),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24)


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestCompactJson:
    @given(json_values)
    def test_equals_json_dumps(self, value):
        assert compact_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [b"bytes"], datetime(2025, 1, 6), object(),
        {1: "a", "b": 2}, {(1, 2): 3},
    ], ids=["set", "bytes", "datetime", "object", "mixed-keys",
            "tuple-key"])
    def test_a_value_json_cannot_hold_raises_the_same_error(self, value):
        with pytest.raises(TypeError) as ours:
            compact_json(value)
        with pytest.raises(TypeError) as theirs:
            dumps(value)
        assert str(ours.value) == str(theirs.value)

    def test_tuples_and_int_keys_as_json_dumps_writes_them(self):
        value = {2: (1, "x"), 10: None, -1: [True, 1.5e300]}
        assert compact_json(value) == dumps(value)


class ScriptedSink:
    """Raises the scripted exceptions in order, then succeeds."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.delivered = []

    def deliver(self, wire):
        if self.outcomes:
            raise self.outcomes.pop(0)
        self.delivered.append(wire["msg_id"])


def message():
    return {"msg_id": "m000001", "team": "team1", "channel": "ChatA",
            "kind": "StuckState", "ticket": "T1-42", "text": "text",
            "ts": "2025-01-06T09:00:00Z"}


@pytest.fixture
def flush(memory_runtime):
    """Run a board whose one assignment announcement, m000001, goes
    through `sink`; return the (state, retries, terminal) of its last
    delivery record after each of `cycles` hourly cycles, checking
    replay after each."""

    def run(sink, cycles, max_retries=3):
        runtime = memory_runtime(replace(team_config(),
                                         max_retries=max_retries))
        runtime.sinks = {c: sink for c in runtime.sinks}
        runtime.inject_ticket("T1-1", "r1", at(0))
        outcomes = []
        for hour in range(1, cycles + 1):
            runtime.run_cycle(at(hour))
            *_, last = (e for e in runtime.log.events
                        if e.get("msg_id") == "m000001")
            outcomes.append((last["state"], last["retries"], last["terminal"]))
            assert replay(runtime.log.events) == runtime.snapshot
        return outcomes

    return run


class TestDelivery:
    def test_file_sink_appends_wire_line(self, tmp_path):
        msg = message()
        sink = FileSink(tmp_path)
        assert attempt_delivery(msg, 0, sink, 3) == ("Delivered", 0, False)
        sink.close()
        line = (tmp_path / "ChatA.ndjson").read_text().strip()
        assert json.loads(line) == msg
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
        assert attempt_delivery(message(), 0, None, 1) == ("Failed", 1, True)

    def test_file_sink_os_error_fails_the_message(self, tmp_path, flush):
        # The sink directory sits under a regular file: `mkdir` fails with
        # NotADirectoryError, the cycle completes and the message retries.
        (tmp_path / "plain").write_text("")
        outcomes = flush(FileSink(tmp_path / "plain" / "channels"), 1)
        assert outcomes == [("Failed", 1, False)]


class Receiver(BaseHTTPRequestHandler):
    """Answers every POST with the server's `status` and keeps the
    bodies, decoded in the server's `bodies` and raw in its `raw`."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        self.server.raw.append(body)
        self.server.bodies.append(json.loads(body))
        self.send_response(self.server.status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def receiver():
    server = HTTPServer(("127.0.0.1", 0), Receiver)
    server.bodies, server.raw, server.status = [], [], 204
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
        assert attempt_delivery(message(), 0, webhook(receiver), 3) == \
            ("Delivered", 0, False)

    def test_body_is_the_wire_payload(self, receiver, tmp_path):
        msg = message()
        webhook(receiver).deliver(msg)
        assert receiver.bodies == [msg]
        # The same bytes as the message's channel-file line.
        sink = FileSink(tmp_path)
        sink.deliver(msg)
        sink.close()
        line = (tmp_path / f"{msg['channel']}.ndjson").read_bytes()
        assert receiver.raw == [line.rstrip(b"\n")]

    def test_bad_request_is_terminal(self, receiver):
        receiver.status = 400
        with pytest.raises(PayloadRejected):
            webhook(receiver).deliver(message())
        assert attempt_delivery(message(), 0, webhook(receiver), 3) == \
            ("Failed", 1, True)

    def test_unavailable_is_retried(self, receiver):
        receiver.status = 503
        with pytest.raises(SinkUnreachable):
            webhook(receiver).deliver(message())
        assert attempt_delivery(message(), 0, webhook(receiver), 3) == \
            ("Failed", 1, False)

    def test_closed_port_is_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sink = WebhookSink(f"http://127.0.0.1:{port}/hook", timeout=5)
        with pytest.raises(SinkUnreachable):
            sink.deliver(message())
        assert attempt_delivery(message(), 0, sink, 3) == ("Failed", 1, False)

    def test_malformed_url_is_retried(self):
        sink = WebhookSink("http://[::1/hook", timeout=5)
        assert attempt_delivery(message(), 0, sink, 3) == ("Failed", 1, False)


class TestSharedWire:
    """A sink is handed the outbox's wire dict itself, the one its event
    carries (see `test_a_message_is_its_events_wire_dict`): it sends that
    dict and leaves it as it is."""

    def test_no_sink_mutates_the_wire(self, tmp_path, receiver):
        wire = message()
        before = list(wire.items())
        file_sink = FileSink(tmp_path)
        for sink in (file_sink, MemorySink(), webhook(receiver)):
            sink.deliver(wire)
            assert list(wire.items()) == before
        file_sink.close()
        assert receiver.bodies == [wire]


def channel_lines(directory) -> dict[str, list[str]]:
    """The msg ids in each channel file, in file order."""
    return {path.stem: [json.loads(line)["msg_id"]
                        for line in path.read_text().splitlines()]
            for path in sorted(directory.glob("*.ndjson"))}


@pytest.fixture
def opened(monkeypatch):
    """Record every file `Path.open` hands out, by file name."""
    inner = pathlib.Path.open
    handles: list[tuple[str, object]] = []

    def spy(path, *args, **kwargs):
        fh = inner(path, *args, **kwargs)
        handles.append((path.name, fh))
        return fh

    monkeypatch.setattr(pathlib.Path, "open", spy)
    return handles


def file_runtime(directory, log=None):
    """A board whose three channels are files under `directory`, with
    sinks built from the endpoints as `dispatchbot run` builds them and
    a stuck reminder every hour after 1 h in a state."""
    endpoints = {c: str(directory) for c in Channel}
    config = replace(
        team_config(thresholds=ThresholdPolicy(
            team_id="team1", reminder_period_hours=1,
            stuck_hours={state: 1.0 for state in WorkflowState
                         if state is not WorkflowState.DONE})),
        binding=ChannelBinding("team1", endpoints, Channel.CHAT_A))
    return BoardRuntime(config, log=log if log is not None else EventLog())


class TestFileSinkFlush:
    """The file sink opens a channel file once per outbox flush and puts
    each line on disk before its delivery is logged."""

    def test_each_channel_file_opened_at_most_once_per_cycle(self, tmp_path,
                                                             opened):
        runtime = file_runtime(tmp_path)
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        for hour in (1, 1.5):
            del opened[:]
            report = runtime.run_cycle(at(hour))
            names = [name for name, _ in opened]
            assert sorted(names) == sorted(set(names))
        # The second cycle sent stuck reminders to every channel.
        assert report.reminders_sent == 3
        assert report.messages_delivered == 9
        assert sorted(names) == ["ChatA.ndjson", "ChatB.ndjson",
                                 "Email.ndjson"]
        lines = channel_lines(tmp_path)
        assert [len(ids) for ids in lines.values()] == [6, 3, 3]
        delivered = [e["msg_id"] for e in runtime.log.events
                     if e.get("state") == "Delivered"]
        assert sorted(sum(lines.values(), [])) == delivered

    def test_line_on_disk_before_its_delivery_is_logged(self, tmp_path):
        seen = []

        class CheckingLog(EventLog):
            def append(self, events):
                for event in events:
                    if event["kind"] == "MessageDelivered":
                        on_disk = sum(channel_lines(tmp_path).values(), [])
                        assert event["msg_id"] in on_disk
                        seen.append(event["msg_id"])
                return super().append(events)

        runtime = file_runtime(tmp_path, log=CheckingLog())
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        runtime.run_cycle(at(1))
        runtime.run_cycle(at(1.5))
        assert len(seen) == 12

    def test_no_handle_outlives_a_cycle(self, tmp_path, opened,
                                        monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            runtime = file_runtime(tmp_path)
            runtime.inject_ticket("T1-1", "r1", at(0))
            runtime.run_cycle(at(1))
            runtime.run_cycle(at(1.5))
            assert opened and all(fh.closed for _, fh in opened)
            del runtime, opened[:]
            gc.collect()
        assert unraisable == []

    def test_channel_file_deleted_between_cycles_is_recreated(self,
                                                              tmp_path):
        channels = tmp_path / "channels"
        runtime = file_runtime(channels)
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(0, seconds=10))
        assert channel_lines(channels) == {"ChatA": ["m000001"]}
        (channels / "ChatA.ndjson").unlink()
        channels.rmdir()
        runtime.inject_ticket("T1-2", "r1", at(0, seconds=20))
        runtime.run_cycle(at(0, seconds=30))
        assert channel_lines(channels) == {"ChatA": ["m000002"]}

    def test_directory_made_only_when_missing(self, tmp_path, monkeypatch):
        made = []
        inner = pathlib.Path.mkdir

        def mkdir(path, *args, **kwargs):
            made.append(path)
            return inner(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", mkdir)
        channels = tmp_path / "a" / "channels"
        runtime = file_runtime(channels)
        for hour in range(3):
            runtime.inject_ticket(f"T1-{hour}", "r1", at(hour))
            runtime.run_cycle(at(hour, seconds=10))
            # The first flush makes the directory and its missing parent.
            assert made == ([channels, channels.parent, channels]
                            if hour == 0 else [])
            del made[:]
        delivered = sum(channel_lines(channels).values(), [])
        assert sorted(delivered) == sorted(
            e["msg_id"] for e in runtime.log.events
            if e["kind"] == "MessageDelivered")

    def test_write_failure_retried_through_a_fresh_handle(self, tmp_path,
                                                          monkeypatch):
        inner = pathlib.Path.open
        handles = []
        #: One entry per write, across handles: True fails that write.
        script = [False, True, False]

        class FaultyFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                if script and script.pop(0):
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        def faulty_open(path, mode="r", *args, **kwargs):
            fh = inner(path, mode, *args, **kwargs)
            if mode != "a":
                return fh
            handles.append(FaultyFile(fh))
            return handles[-1]

        monkeypatch.setattr(pathlib.Path, "open", faulty_open)
        runtime = file_runtime(tmp_path)
        for i in range(1, 4):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        report = runtime.run_cycle(at(0, seconds=10))
        assert (report.messages_delivered, report.messages_failed) == (2, 1)
        [failed] = [e for e in runtime.log.events
                    if e.get("msg_id") == "m000002"]
        assert (failed["state"], failed["retries"]) == ("Failed", 1)
        # The failed handle was dropped: m000003 went through a new one.
        assert len(handles) == 2 and all(fh.closed for fh in handles)
        assert channel_lines(tmp_path) == {"ChatA": ["m000001", "m000003"]}

        report = runtime.run_cycle(at(0, seconds=20))
        assert (report.messages_delivered, report.messages_failed) == (1, 0)
        assert len(handles) == 3 and all(fh.closed for fh in handles)
        assert channel_lines(tmp_path) == {
            "ChatA": ["m000001", "m000003", "m000002"]}
        assert replay(runtime.log.events) == runtime.snapshot
