from __future__ import annotations

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
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchbot import notify
from dispatchbot.assignment import AssignmentDecision
from dispatchbot.board import BoardRuntime
from dispatchbot.eventlog import (
    EVENT_KINDS,
    EventLog,
    read_event_log,
    replay,
)
from dispatchbot.notify import (
    AppendWriter,
    BindingError,
    Channel,
    ChannelBinding,
    FileSink,
    MemorySink,
    PayloadRejected,
    SinkUnreachable,
    WebhookSink,
    assignment_text,
    compact_json,
    hand_over,
    record_line,
    reminder_text,
    route_reminder,
    settle,
    state_change_text,
)
from dispatchbot.reminders import Reminder, ReminderKind, ThresholdPolicy
from dispatchbot.timeutil import iso
from dispatchbot.workflow import WorkflowState

from .conftest import at, binding, clear_codec, team_config


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

    @pytest.mark.parametrize("team_id", [
        None, 7, b"team1", ["team1"], type("Team", (str,), {})("team1")])
    def test_binding_refuses_a_team_id_that_is_not_a_str(self, team_id):
        # Every message's `team` is the binding's, and the fold refuses a
        # wire whose team is not a str: a str subclass included.
        with pytest.raises(BindingError, match="team_id must be a string"):
            ChannelBinding(team_id, {Channel.CHAT_A: "out"}, Channel.CHAT_A)


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


#: Texts that could break a layout that wrote a string as it stands.
_TRICKY = st.sampled_from([
    '"messages":0', '"messages":0,', '{"messages":0}', '\\"messages\\":0',
    '"', '\\', '\\"', "\0", "messages", "\u00e9\u2713\U0001f600", ""])
_text = _TRICKY | st.text(max_size=8)

#: A wire as the templates build it, with any text in its string fields.
_wires = st.fixed_dictionaries({
    key: st.sampled_from(["m000001", "m000002"]) if key == "msg_id"
    else _text for key in sorted(notify.WIRE_FIELDS)})

_leaves = st.none() | st.booleans() | st.integers() | st.floats() | _text


def _tree(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(_text, inner, max_size=3),
                        max_leaves=6)


#: JSON values whose strings include the tricky texts.
_json_values = _tree(_leaves)
#: The same, with values JSON cannot hold among them.
_values = _tree(_leaves | st.builds(set) | st.builds(object))


@st.composite
def _records(draw) -> dict:
    """Any JSON object, or one with the fields every record shares, with
    a `messages` value of wires, of other values, empty, not a list, or
    none; some carry an object of their own with `"messages": 0` under a
    key that sorts before `messages`."""
    record = draw(st.fixed_dictionaries(
        {"seq": st.integers(1, 10**6), "ts": _text, "board": _text,
         "kind": _text}) | st.dictionaries(_text, _json_values, max_size=4))
    record.update(draw(st.dictionaries(
        st.sampled_from(["a", "from", "kind", "labels", "to"]),
        st.just({"messages": 0}) | st.just([{"messages": 0}]) | _values,
        max_size=2)))
    messages = draw(st.none() | st.lists(_wires, min_size=1, max_size=3)
                    | st.lists(_wires | _values, max_size=3) | _values)
    if messages is not None:
        record["messages"] = messages
    return record


#: Each record shape `BoardRuntime` writes, by kind: the type of each
#: field it always has, and of each it may have. Written out here, apart
#: from `notify`, as the rule a layout is checked against.
_SHAPES = {
    "Created": ({"board": "str", "priority": "str", "reporter": "str",
                 "seq": "int", "ticket": "str", "ts": "str"},
                {"labels": "names", "sla_deadline": "str"}),
    "Transitioned": ({"actor": "str", "board": "str", "from": "str",
                      "messages": "wire", "seq": "int", "ticket": "str",
                      "to": "str", "ts": "str"},
                     {"reopen_mode": "str"}),
    "Assigned": ({"board": "str", "cursor_after": "cursor",
                  "engineer": "str", "messages": "wire", "policy": "str",
                  "seq": "int", "ticket": "str", "ts": "str"}, {}),
    "Reassigned": ({"board": "str", "engineer": "str",
                    "from_engineer": "str", "messages": "wire",
                    "seq": "int", "ticket": "str", "ts": "str"}, {}),
    "ReminderSent": ({"board": "str", "index": "int", "messages": "wires",
                      "recipients": "names", "reminder_kind": "str",
                      "seq": "int", "ticket": "str", "ts": "str"}, {}),
    "MessageDelivered": ({"board": "str", "msg_id": "str",
                          "retries": "int", "seq": "int", "state": "str",
                          "terminal": "bool", "ts": "str"}, {}),
}


def _is_wire(value) -> bool:
    return (type(value) is dict and value.keys() == notify.WIRE_FIELDS
            and all(type(text) is str for text in value.values()))


#: Whether a value is of a field type of `_SHAPES`.
_OF_TYPE = {
    "str": lambda v: type(v) is str,
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "cursor": lambda v: v is None or type(v) is int,
    "names": lambda v: type(v) is list and all(type(n) is str for n in v),
    "wire": lambda v: type(v) is list and len(v) == 1 and _is_wire(v[0]),
    "wires": lambda v: type(v) is list and v != [] and all(map(_is_wire, v)),
}

#: A value of each field type of `_SHAPES`.
_OF_TYPE_VALUES = {
    "str": _text,
    "int": st.integers(),
    "bool": st.booleans(),
    "cursor": st.none() | st.integers(),
    "names": st.lists(_text, max_size=3),
    "wire": st.lists(_wires, min_size=1, max_size=1),
    "wires": st.lists(_wires, min_size=1, max_size=3),
}


def _fits(record) -> bool:
    """Whether `record` is exactly one of the runtime's record shapes."""
    kind = record.get("kind") if type(record) is dict else None
    if type(kind) is not str or kind not in _SHAPES:
        return False
    required, optional = _SHAPES[kind]
    types, keys = {**required, **optional}, record.keys() - {"kind"}
    return (required.keys() <= keys <= types.keys()
            and all(_OF_TYPE[types[key]](record[key]) for key in keys))


#: What takes a field's place in a near miss: types the runtime never
#: writes there (`Channel.CHAT_A` is a str subclass), or any value.
_STRANGERS = (st.sampled_from([True, 1.5, None, 10**30, Channel.CHAT_A])
              | _values)


@st.composite
def _shaped(draw) -> dict:
    """A record of one of the runtime's shapes, optional fields and all,
    with the tricky texts in its strings and its keys in any order; or a
    near miss of one: a key missing or one too many, a field of another
    type, a wire with a key missing or one too many, or a `messages`
    list of no wire, two wires or an item that is no wire."""
    kind = draw(st.sampled_from(sorted(_SHAPES)))
    required, optional = _SHAPES[kind]
    types = dict(required, **{key: optional[key] for key in optional
                              if draw(st.booleans())})
    record = {key: draw(_OF_TYPE_VALUES[types[key]]) for key in types}
    record["kind"] = kind
    miss = draw(st.sampled_from(["none", "drop", "add", "retype", "wire",
                                 "messages"]))
    if miss == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif miss == "add":
        key = draw(st.sampled_from(
            ["a", "zz", "labels", "reopen_mode", "messages", "cursor_after"])
            | _text)
        record.setdefault(key, draw(_json_values))
    elif miss == "retype":
        record[draw(st.sampled_from(sorted(record)))] = draw(_STRANGERS)
    elif "messages" in record and miss == "wire":
        wire = draw(st.sampled_from(record["messages"]))
        if draw(st.booleans()):
            del wire[draw(st.sampled_from(sorted(wire)))]
        else:
            wire[draw(st.sampled_from(["a", "zz", "labels"]))] = "x"
    elif "messages" in record and miss == "messages":
        record["messages"] = draw(
            st.just([]) | st.lists(_wires, min_size=2, max_size=2)
            | st.lists(_wires | _STRANGERS, min_size=1, max_size=2))
    return dict(draw(st.permutations(list(record.items()))))


class TestRecordLine:
    """`record_line` is `compact_json`; when the record is one of the
    runtime's shapes, it puts each wire's line in the dict it is given,
    under the wire's msg id, and leaves it as it was otherwise."""

    @staticmethod
    def check(record):
        lines = {}
        try:
            want = compact_json(record)
        except Exception as exc:
            with pytest.raises(type(exc)):
                record_line(record, lines)
            assert lines == {}
            return
        assert record_line(record, lines) == want
        kept = {}
        if _fits(record):
            kept = {wire["msg_id"]: compact_json(wire)
                    for wire in record.get("messages", ())}
        assert lines == kept

    @settings(max_examples=300, deadline=None)
    @given(_records())
    def test_a_record_line_is_its_compact_json(self, record):
        self.check(record)

    @settings(max_examples=600, deadline=None)
    @given(_shaped())
    def test_a_runtime_shape_or_a_near_miss_is_its_compact_json(self,
                                                               record):
        self.check(record)

    @pytest.mark.parametrize("kind", sorted(_SHAPES))
    def test_each_field_of_another_type_is_a_near_miss(self, kind):
        """Every field of each shape, its wires' fields among them, in
        turn missing or replaced by a value of each type."""
        wire = message()
        others = [True, False, 1.5, None, 10**30, 7, "x", Channel.CHAT_A,
                  [], ["x"], {}, set(), [wire], [wire, wire], [wire, 5]]
        example = {"str": 'x"\u00e9', "int": 7, "bool": True, "cursor": 3,
                   "names": ["e1", "\0"], "wire": [wire],
                   "wires": [wire, dict(wire, msg_id="m000002")]}
        required, optional = _SHAPES[kind]
        for types in (required, {**required, **optional}):
            record = {key: example[types[key]] for key in types}
            record["kind"] = kind
            assert _fits(record)
            variants = [record, dict(record, zz=1)]
            for key in record:
                variants.append({k: v for k, v in record.items() if k != key})
                variants += [dict(record, **{key: value}) for value in others]
            for i, item in enumerate(record.get("messages", ())):
                for key in sorted(item):
                    wires = [dict(item, **{key: value}) for value in others]
                    wires += [{k: v for k, v in item.items() if k != key},
                              dict(item, zz="x")]
                    variants += [dict(record, messages=[
                        *record["messages"][:i], bad,
                        *record["messages"][i + 1:]]) for bad in wires]
            for variant in variants:
                self.check(variant)

    def test_every_kind_has_a_layout(self):
        assert notify._LAYOUTS.keys() == _SHAPES.keys() == set(EVENT_KINDS)

    @settings(max_examples=200, deadline=None)
    @given(_wires | _json_values)
    def test_a_wire_line_is_its_compact_json_or_none(self, wire):
        line = notify.wire_line(wire)
        assert line == (compact_json(wire) if _is_wire(wire) else None)

    def test_each_wires_text_is_kept_under_its_msg_id(self):
        first, second = message(), dict(message(), msg_id="m000002",
                                         channel="Email")
        lines = {"m000000": "kept"}
        record = {"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
                  "kind": "ReminderSent", "ticket": "T1-42",
                  "reminder_kind": "StuckState", "index": 1,
                  "recipients": ["e3"], "messages": [first, second]}
        assert record_line(record, lines) == compact_json(record)
        assert lines == {"m000000": "kept",
                         "m000001": compact_json(first),
                         "m000002": compact_json(second)}
        for quiet in ({"seq": 2, "kind": "Created"},
                      {"seq": 3, "messages": []},
                      dict(record, index=True), dict(record, extra=1)):
            assert record_line(quiet, lines) == compact_json(quiet)
        assert len(lines) == 3

    def test_a_runtime_leaves_no_state_in_the_module(self, tmp_path):
        # A file-backed log whose sinks keep wires in memory, as the
        # overload restart runs: the lines its flush hands over leave
        # nothing behind in `notify` once the runtime is gone.
        def sizes():
            return {name: len(value) for name, value in vars(notify).items()
                    if isinstance(value, (dict, list, set))}

        before = sizes()
        path = tmp_path / "T1.events.ndjson"
        for hour in (0, 10):  # a run, then a restart from its log
            sink = MemorySink()
            runtime = BoardRuntime(
                team_config(), log=EventLog(path),
                sinks={c: sink for c in Channel})
            with runtime.log:
                tids = [f"T1-{hour + n}" for n in range(3)]
                for n, tid in enumerate(tids):
                    runtime.inject_ticket(tid, "r1", at(hour + n))
                runtime.apply_external_transition(
                    tids[0], WorkflowState.READY_TO_START, at(hour + 3),
                    "r1")
                report = runtime.run_cycle(at(hour + 4))
            assert (report.assigned, report.messages_delivered) == (2, 3)
            del runtime, sink
        assert sizes() == before

    def test_two_boards_sharing_a_msg_id_each_send_their_own(self, tmp_path):
        clear_codec()
        runtimes = [file_runtime(tmp_path / name, log=EventLog(
            tmp_path / name / "T1.events.ndjson")) for name in "ab"]
        # Both announcements, both m000001, are logged before either flush.
        for runtime, (tid, engineer) in zip(runtimes, [("T1-1", "e1"),
                                                       ("T1-9", "e2")]):
            runtime.inject_ticket(tid, "r1", at(0))
            runtime.reassign_ticket(tid, engineer, at(0, seconds=5))
        for runtime, name in zip(runtimes, "ab"):
            with runtime.log:
                [wire] = runtime.snapshot.outbox.values()
                assert wire["msg_id"] == "m000001"
                runtime.run_cycle(at(0, seconds=10))
            assert (tmp_path / name / "ChatA.ndjson").read_text() == \
                compact_json(wire) + "\n"
        texts = [(tmp_path / name / "ChatA.ndjson").read_text()
                 for name in "ab"]
        assert "T1-1" in texts[0] and "T1-9" in texts[1]


class ScriptedSink:
    """Raises the scripted exceptions in order, then succeeds."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.delivered = []

    def deliver(self, wire, line):
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
    def test_file_sink_appends_the_wire_payload(self, tmp_path):
        msg = message()
        sink = FileSink(tmp_path)
        assert settle(hand_over(msg, None, sink), 0, 3) == \
            ("Delivered", 0, False)
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
        assert settle(hand_over(message(), None, None), 0, 1) == \
            ("Failed", 1, True)

    def test_file_sink_os_error_fails_the_message(self, tmp_path, flush):
        # The sink directory sits under a regular file: opening the channel
        # file at `close` fails with NotADirectoryError, the cycle
        # completes and the message retries.
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
        outcome = hand_over(message(), None, webhook(receiver))
        assert settle(outcome, 0, 3) == ("Delivered", 0, False)

    def test_body_is_the_wire_payload(self, receiver, tmp_path):
        msg = message()
        webhook(receiver).deliver(msg, None)
        assert receiver.bodies == [msg]
        # The same bytes as the message's channel-file line.
        sink = FileSink(tmp_path)
        sink.deliver(msg, None)
        sink.close()
        line = (tmp_path / f"{msg['channel']}.ndjson").read_bytes()
        assert receiver.raw == [line.rstrip(b"\n")]

    def test_a_sink_sends_the_line_it_is_handed(self, receiver, tmp_path):
        # The text the log wrote for the wire goes out as it is: neither
        # sink encodes the wire again.
        msg, line = message(), '{"msg_id":"m000001","text":"as logged"}'
        webhook(receiver).deliver(msg, line)
        sink = FileSink(tmp_path)
        sink.deliver(msg, line)
        sink.close()
        assert receiver.raw == [line.encode()]
        assert (tmp_path / "ChatA.ndjson").read_text() == line + "\n"

    def test_bad_request_is_terminal(self, receiver):
        receiver.status = 400
        with pytest.raises(PayloadRejected):
            webhook(receiver).deliver(message(), None)
        outcome = hand_over(message(), None, webhook(receiver))
        assert settle(outcome, 0, 3) == ("Failed", 1, True)

    def test_unavailable_is_retried(self, receiver):
        receiver.status = 503
        with pytest.raises(SinkUnreachable):
            webhook(receiver).deliver(message(), None)
        outcome = hand_over(message(), None, webhook(receiver))
        assert settle(outcome, 0, 3) == ("Failed", 1, False)

    def test_closed_port_is_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sink = WebhookSink(f"http://127.0.0.1:{port}/hook", timeout=5)
        with pytest.raises(SinkUnreachable):
            sink.deliver(message(), None)
        assert settle(hand_over(message(), None, sink), 0, 3) == \
            ("Failed", 1, False)

    def test_malformed_url_is_retried(self):
        sink = WebhookSink("http://[::1/hook", timeout=5)
        assert settle(hand_over(message(), None, sink), 0, 3) == \
            ("Failed", 1, False)


class TestSharedWire:
    """A sink is handed the outbox's wire dict itself, the one its event
    carries (see `test_a_message_is_its_events_wire_dict`): it sends that
    dict and leaves it as it is."""

    def test_no_sink_mutates_the_wire(self, tmp_path, receiver):
        wire = message()
        before = list(wire.items())
        file_sink = FileSink(tmp_path)
        for sink in (file_sink, MemorySink(), webhook(receiver)):
            sink.deliver(wire, None)
            assert list(wire.items()) == before
        file_sink.close()
        assert receiver.bodies == [wire]


def channel_lines(directory) -> dict[str, list[str]]:
    """The msg ids in each channel file, in file order."""
    return {path.stem: [json.loads(line)["msg_id"]
                        for line in path.read_text().splitlines()]
            for path in sorted(directory.glob("*.ndjson"))}


def checking_log(directory, seen: list[str]) -> EventLog:
    """An in-memory log that asserts each delivery's line is in its
    channel file under `directory` when the delivery is appended, and
    collects the delivered msg ids in `seen`."""

    class CheckingLog(EventLog):
        def append(self, events):
            for event in events:
                if event.get("state") == "Delivered":
                    on_disk = sum(channel_lines(directory).values(), [])
                    assert event["msg_id"] in on_disk
                    seen.append(event["msg_id"])
            return super().append(events)

    return CheckingLog()


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
    """The file sink opens and writes a channel file once per outbox flush
    and puts each line on disk before its delivery is logged."""

    def test_each_channel_file_opened_at_most_once_per_cycle(self, tmp_path,
                                                             file_spy):
        runtime = file_runtime(tmp_path)
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        for hour, lines in ((1, 3), (1.5, 9)):
            del file_spy.opens[:], file_spy.writes[:]
            report = runtime.run_cycle(at(hour))
            assert report.messages_delivered == lines
            names = file_spy.opens
            assert sorted(names) == sorted(set(names))
            # One write per channel file, carrying all of its lines.
            assert sorted(file_spy.writes) == sorted(names)
        # The second cycle sent stuck reminders to every channel.
        assert report.reminders_sent == 3
        assert sorted(names) == ["ChatA.ndjson", "ChatB.ndjson",
                                 "Email.ndjson"]
        lines = channel_lines(tmp_path)
        assert [len(ids) for ids in lines.values()] == [6, 3, 3]
        delivered = [e["msg_id"] for e in runtime.log.events
                     if e.get("state") == "Delivered"]
        assert sorted(sum(lines.values(), [])) == delivered

    def test_line_on_disk_before_its_delivery_is_logged(self, tmp_path):
        seen = []
        runtime = file_runtime(tmp_path, log=checking_log(tmp_path, seen))
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        runtime.run_cycle(at(1))
        runtime.run_cycle(at(1.5))
        assert len(seen) == 12

    def test_one_failing_channel_fails_only_its_own_lines(self, tmp_path,
                                                          file_spy):
        seen = []
        runtime = file_runtime(tmp_path, log=checking_log(tmp_path, seen))
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        runtime.run_cycle(at(1))
        file_spy.fail("Email.ndjson")
        report = runtime.run_cycle(at(1.5))
        # The same flush delivers the reminders to ChatA and ChatB.
        assert (report.messages_delivered, report.messages_failed) == (6, 3)
        lines = channel_lines(tmp_path)
        assert [len(lines[c]) for c in ("ChatA", "ChatB")] == [6, 3]
        assert lines["Email"] == []
        email = {e["msg_id"] for e in runtime.snapshot.outbox.values()
                 if e["channel"] == "Email"}
        assert len(email) == 3 and set(runtime.snapshot.retries) == email
        for msg_id in email:
            [record] = [e for e in runtime.log.events
                        if e.get("msg_id") == msg_id and "state" in e]
            assert (record["state"], record["retries"],
                    record["terminal"]) == ("Failed", 1, False)
        assert all(fh.closed for fh in file_spy.handles)

        file_spy.heal()
        report = runtime.run_cycle(at(1.75))
        assert (report.messages_delivered, report.messages_failed) == (3, 0)
        assert sorted(channel_lines(tmp_path)["Email"]) == sorted(email)
        assert len(seen) == 12 and not runtime.snapshot.outbox
        assert replay(runtime.log.events) == runtime.snapshot

    def test_no_handle_outlives_a_cycle(self, tmp_path, file_spy,
                                        monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            runtime = file_runtime(tmp_path)
            runtime.inject_ticket("T1-1", "r1", at(0))
            runtime.run_cycle(at(1))
            runtime.run_cycle(at(1.5))
            assert file_spy.handles and all(
                fh.closed for fh in file_spy.handles)
            del runtime, file_spy.handles[:]
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
                                                          file_spy):
        runtime = file_runtime(tmp_path)
        runtime.inject_ticket("T1-1", "r1", at(0, seconds=1))
        report = runtime.run_cycle(at(0, seconds=5))
        assert (report.messages_delivered, report.messages_failed) == (1, 0)
        for i in (2, 3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i + 4))
        file_spy.fail("ChatA.ndjson")
        report = runtime.run_cycle(at(0, seconds=10))
        # The failed write fails every message queued for its channel.
        assert (report.messages_delivered, report.messages_failed) == (0, 2)
        for msg_id in ("m000002", "m000003"):
            [failed] = [e for e in runtime.log.events
                        if e.get("msg_id") == msg_id and "state" in e]
            assert (failed["state"], failed["retries"],
                    failed["terminal"]) == ("Failed", 1, False)
        assert len(file_spy.handles) == 2
        assert all(fh.closed for fh in file_spy.handles)
        assert channel_lines(tmp_path) == {"ChatA": ["m000001"]}

        # The next cycle writes them all through a fresh handle.
        file_spy.heal()
        report = runtime.run_cycle(at(0, seconds=20))
        assert (report.messages_delivered, report.messages_failed) == (2, 0)
        assert len(file_spy.handles) == 3
        assert all(fh.closed for fh in file_spy.handles)
        assert channel_lines(tmp_path) == {
            "ChatA": ["m000001", "m000002", "m000003"]}
        assert replay(runtime.log.events) == runtime.snapshot

    @pytest.mark.parametrize("fault", ["torn", "short"])
    @pytest.mark.parametrize("earlier", [0, 1])
    def test_failed_write_leaves_no_partial_line(self, tmp_path, file_spy,
                                                 fault, earlier):
        """A write that stops partway, raising or short, is cut back to
        the file's length before it: the file holds only whole lines, and
        the retried lines parse after the next flush."""
        runtime = file_runtime(tmp_path)
        for i in range(1, earlier + 1):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        runtime.run_cycle(at(0, seconds=5))
        before = (tmp_path / "ChatA.ndjson").read_bytes() if earlier else b""
        for i in range(earlier + 1, earlier + 3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i + 5))
        file_spy.fail("ChatA.ndjson", keep=0.5, short=fault == "short")
        report = runtime.run_cycle(at(0, seconds=10))
        assert (report.messages_delivered, report.messages_failed) == (0, 2)
        assert (tmp_path / "ChatA.ndjson").read_bytes() == before
        assert all(fh.closed for fh in file_spy.handles)

        file_spy.heal()
        report = runtime.run_cycle(at(0, seconds=20))
        assert (report.messages_delivered, report.messages_failed) == (2, 0)
        ids = [f"m{n:06d}" for n in range(1, earlier + 3)]
        assert channel_lines(tmp_path) == {"ChatA": ids}
        assert [e["msg_id"] for e in runtime.log.events
                if e.get("state") == "Delivered"] == ids
        assert replay(runtime.log.events) == runtime.snapshot

    @pytest.mark.parametrize("short", [False, True], ids=["raise", "short"])
    def test_a_write_failing_at_every_byte_offset(self, tmp_path, file_spy,
                                                  short):
        """A channel write that stops after any of its bytes leaves no
        partial line: the file replays, and the next cycle's line starts a
        line of its own."""

        def board(directory):
            runtime = file_runtime(
                directory, log=EventLog(directory / "T1.events.ndjson"))
            runtime.inject_ticket("T1-1", "r1", at(0))
            runtime.run_cycle(at(0, seconds=10))
            runtime.inject_ticket("T1-2", "r1", at(0, seconds=20))
            return runtime

        clean = board(tmp_path / "clean")
        with clean.log:
            clean.run_cycle(at(0, seconds=30))
        first, second = (tmp_path / "clean" / "ChatA.ndjson").read_bytes() \
            .splitlines(keepends=True)
        for keep in range(len(second)):
            runtime = board(tmp_path / f"torn-{keep}")
            chat = tmp_path / f"torn-{keep}" / "ChatA.ndjson"
            with runtime.log:
                file_spy.fail(chat.name, keep, short)
                report = runtime.run_cycle(at(0, seconds=30))
                file_spy.heal()
                assert (report.messages_delivered,
                        report.messages_failed) == (0, 1)
                assert chat.read_bytes() == first
                assert replay(read_event_log(runtime.log.path)) == \
                    runtime.snapshot
                report = runtime.run_cycle(at(0, seconds=40))
                assert (report.messages_delivered,
                        report.messages_failed) == (1, 0)
                assert chat.read_bytes() == first + second
                assert replay(read_event_log(runtime.log.path)) == \
                    runtime.snapshot
        assert file_spy.leaked() == []

    def test_a_torn_line_a_failed_cut_left_ends_before_the_retry(
            self, tmp_path, file_spy):
        """A write whose cut fails leaves part of a line in the file; the
        next flush's writer ends that line before it writes its own."""
        runtime = file_runtime(tmp_path)
        runtime.inject_ticket("T1-1", "r1", at(0))
        file_spy.fail("ChatA.ndjson", keep=0.5)
        file_spy.cut_fails.add("ChatA.ndjson")
        report = runtime.run_cycle(at(0, seconds=10))
        assert (report.messages_delivered, report.messages_failed) == (0, 1)
        [wire] = runtime.snapshot.outbox.values()
        line = compact_json(wire)
        torn = (tmp_path / "ChatA.ndjson").read_text()
        assert torn == line[:len(line + "\n") // 2]

        file_spy.heal()
        report = runtime.run_cycle(at(0, seconds=20))
        assert (report.messages_delivered, report.messages_failed) == (1, 0)
        assert (tmp_path / "ChatA.ndjson").read_text().split("\n") == [
            torn, line, ""]
        assert file_spy.leaked() == []
        assert replay(runtime.log.events) == runtime.snapshot

    @pytest.mark.parametrize("fault", ["none", "raise", "short", "cut"])
    def test_no_descriptor_outlives_a_flush(self, tmp_path, file_spy, fault):
        runtime = file_runtime(tmp_path)
        runtime.inject_ticket("T1-1", "r1", at(0))
        if fault != "none":
            file_spy.fail("ChatA.ndjson", keep=0.5, short=fault == "short")
        if fault == "cut":
            file_spy.cut_fails.add("ChatA.ndjson")
        report = runtime.run_cycle(at(0, seconds=10))
        assert report.messages_failed == (fault != "none")
        assert file_spy.handles and file_spy.leaked() == []


class TestEncodedOnce:
    """A file-backed board encodes each message once, alone, when its
    event is logged; its channel line is that text."""

    def test_each_wire_is_encoded_once_as_a_value_of_its_own(
            self, tmp_path, monkeypatch):
        clear_codec()
        encoded, whole = [], []
        wire_line, encode = notify.wire_line, notify._encode

        def wire_spy(wire):
            encoded.append(wire)
            return wire_line(wire)

        def encode_spy(value, level):
            whole.append(value)
            return encode(value, level)

        monkeypatch.setattr(notify, "wire_line", wire_spy)
        monkeypatch.setattr(notify, "_encode", encode_spy)
        path = tmp_path / "T1.events.ndjson"
        runtime = file_runtime(tmp_path, log=EventLog(path))
        with runtime.log:
            runtime.inject_ticket("T1-1", "r1", at(0))
            runtime.inject_ticket("T1-2", "r1", at(0))
            runtime.apply_external_transition(
                "T1-2", WorkflowState.READY_TO_START, at(0, seconds=5),
                "r1")
            report = runtime.run_cycle(at(0, seconds=10))
        assert (len(report.assignments), report.messages_delivered) == (1, 2)
        wires = [wire for event in runtime.log.events
                 for wire in event.get("messages", ())]
        assert [wire["kind"] for wire in wires] == ["StateChange",
                                                    "Assignment"]
        for wire in wires:
            assert sum(value is wire for value in encoded) == 1
        # Every record fits its kind's layout: none, and so none with its
        # wires inside, goes through the canonical encoder.
        assert whole == []
        assert (tmp_path / "ChatA.ndjson").read_text() == "".join(
            compact_json(wire) + "\n" for wire in wires)
        assert path.read_text() == "".join(
            compact_json(event) + "\n" for event in runtime.log.events)

        # A restart reads its pending message back from the log, and the
        # new log holds no line for it: the sink encodes it, and sends
        # the same text.
        runtime = file_runtime(tmp_path, log=EventLog(path))
        with runtime.log:
            runtime.apply_external_transition(
                "T1-2", WorkflowState.DONE, at(0, seconds=20), "r1")
        clear_codec()
        del encoded[:], whole[:]
        runtime = file_runtime(tmp_path, log=EventLog(path))
        with runtime.log:
            [pending] = runtime.snapshot.outbox.values()
            report = runtime.run_cycle(at(0, seconds=30))
        assert report.messages_delivered == 1
        assert [value for value in encoded if value is pending] == [pending]
        assert whole == []
        line = compact_json(pending)
        assert (tmp_path / "ChatA.ndjson").read_text().splitlines()[-1] == \
            line
        assert f'"messages":[{line}]' in path.read_text()
        assert replay(read_event_log(path)) == runtime.snapshot


def test_a_failed_cut_refuses_every_later_write(tmp_path, file_spy):
    path = tmp_path / "ChatA.ndjson"
    writer = AppendWriter(path)
    try:
        writer.write(b"one\n")
        file_spy.fail(path.name, keep=2)
        file_spy.cut_fails.add(path.name)
        # The cut's error is raised, with the write's as its context.
        with pytest.raises(OSError, match="Input/output") as err:
            writer.write(b"two\n")
        assert "No space left" in str(err.value.__context__)
        file_spy.heal()
        for line in (b"two\n", b"three\n"):
            with pytest.raises(OSError, match="could not be cut back"):
                writer.write(line)
        assert path.read_bytes() == b"one\ntw"
    finally:
        writer.close()
    assert file_spy.leaked() == []
