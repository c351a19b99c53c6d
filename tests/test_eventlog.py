from __future__ import annotations

import copy
import json
import tracemalloc
from collections import Counter
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchbot import eventlog
from dispatchbot.cli import REPLAY_ERRORS, main
from dispatchbot.eventlog import (
    BoardSnapshot,
    EVENT_KINDS,
    CorruptRecordError,
    DuplicateTicketError,
    EventLog,
    MalformedRecordError,
    SeqGapError,
    encode_event,
    fold_event,
    iter_event_log,
    read_event_log,
    replay,
)
from dispatchbot.sim import SimConfig, run_simulation
from dispatchbot.workflow import TransitionError


def test_replay_of_empty_log_is_empty():
    snapshot = replay([], "T1")
    assert snapshot.tickets == {}
    assert snapshot.watermark == 0


def test_seq_gap_detected():
    events = [
        {"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
         "kind": "Created", "ticket": "T1-1", "reporter": "r1"},
        {"seq": 3, "ts": "2025-01-06T10:00:00Z", "board": "T1",
         "kind": "Created", "ticket": "T1-2", "reporter": "r1"},
    ]
    with pytest.raises(SeqGapError) as err:
        replay(events, "T1")
    assert err.value.found == 3


def test_append_rejects_gap(tmp_path):
    with EventLog(tmp_path / "x.ndjson") as log:
        log.append([{"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
                     "kind": "Created", "ticket": "T1-1", "reporter": "r1"}])
        with pytest.raises(SeqGapError):
            log.append([{"seq": 5, "ts": "2025-01-06T09:00:00Z",
                         "board": "T1", "kind": "Created", "ticket": "T1-2",
                         "reporter": "r1"}])


def test_corrupt_record_names_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
                    '"kind":"Created","ticket":"T1-1","reporter":"r1"}\n'
                    "not json\n")
    with pytest.raises(CorruptRecordError) as err:
        read_event_log(path)
    assert err.value.line_no == 2


GOOD_LINE = ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
             '"kind":"Created","ticket":"T1-1","reporter":"r1"}')


#: (log text, line number, message) of a log that does not read.
CORRUPT_LOGS = [
    # Blank lines are skipped but still counted.
    (GOOD_LINE + "\n\n   \n" + '{"seq":2' + "\n", 4,
     "invalid JSON: Expecting ',' delimiter: line 1 column 9 (char 8)"),
    (GOOD_LINE + "\n" + GOOD_LINE[:40] + "\n", 2,
     "invalid JSON: Unterminated string starting at: line 1 column 38 "
     "(char 37)"),
    ("{} {}\n", 1, "invalid JSON: Extra data: line 1 column 4 (char 3)"),
    (GOOD_LINE + " x\n", 1,
     "invalid JSON: Extra data: line 1 column 101 (char 100)"),
    ("garbage\n", 1,
     "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("\ufeff" + GOOD_LINE + "\n", 1,
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 "
     "column 1 (char 0)"),
    ("[1, 2]\n", 1, "missing required fields"),
    ('"seq"\n', 1, "missing required fields"),
    ("\t{ }\x0b\n", 1, "missing required fields"),
    ('{"seq":1,"kind":"Created"}\n', 1, "missing required fields"),
    ('{"seq":1,"ts":"x","kind":"Exploded"}\n', 1,
     "unknown kind 'Exploded'"),
    ('{"seq":1,"ts":"x","kind":["Created"]}\n', 1,
     "unknown kind ['Created']"),
]


@pytest.mark.parametrize("text, line_no, message", CORRUPT_LOGS)
def test_corrupt_record_texts(tmp_path, text, line_no, message):
    path = tmp_path / "bad.ndjson"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptRecordError) as err:
        read_event_log(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_read_accepts_what_json_loads_accepts(tmp_path):
    path = tmp_path / "log.ndjson"
    path.write_text("\n  " + GOOD_LINE + "\t\n\n"
                    + GOOD_LINE.replace('"seq":1', '"seq":NaN') + "\n")
    events = read_event_log(path)
    assert events[0] == json.loads(GOOD_LINE)
    assert events[1]["seq"] != events[1]["seq"]  # NaN, as json.loads reads it


def test_unknown_kind_is_corrupt(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
                    '"kind":"Exploded"}\n')
    with pytest.raises(CorruptRecordError):
        read_event_log(path)


def test_log_round_trips_through_disk(tmp_path):
    run = run_simulation(SimConfig(seed=5, horizon_days=2, arrival_rate=4,
                                   roster_size=2), tmp_path)
    path = tmp_path / "SIM.events.ndjson"
    on_disk = read_event_log(path)
    assert on_disk == run.events
    assert replay(on_disk) == run.snapshot


def test_replay_equals_live_snapshot_after_sim():
    run = run_simulation(SimConfig(seed=9, horizon_days=3, arrival_rate=6,
                                   roster_size=3, reminders_enabled=True,
                                   stuck_threshold_hours=8,
                                   reminder_period_hours=6))
    assert replay(run.events) == run.snapshot


def test_every_prefix_replays():
    run = run_simulation(SimConfig(seed=2, horizon_days=2, arrival_rate=5,
                                   roster_size=2))
    for cut in range(len(run.events) + 1):
        snapshot = replay(run.events[:cut])
        assert snapshot.watermark == cut


def test_stuck_ledger_resets_on_transition():
    run = run_simulation(SimConfig(seed=13, horizon_days=3, arrival_rate=5,
                                   roster_size=2, reminders_enabled=True,
                                   stuck_threshold_hours=2,
                                   reminder_period_hours=2,
                                   cycle_period_hours=2))
    snapshot = replay(run.events)
    # no StuckState stream survives for a ticket whose state changed after
    # its last stuck reminder was sent
    moved, reminded = {}, {}
    for e in run.events:
        if e["kind"] == "Transitioned":
            moved[e["ticket"]] = e["seq"]
        elif e["kind"] == "ReminderSent" and \
                e["reminder_kind"] == "StuckState":
            reminded[e["ticket"]] = e["seq"]
    reset = {tid for tid, seq in reminded.items() if moved.get(tid, 0) > seq}
    assert reset and len(reset) < len(reminded)
    for tid in reminded:
        assert ((tid, "StuckState") in snapshot.reminder_ledger) == \
            (tid not in reset)


def test_reminder_ledger_holds_each_streams_count_since_its_reset():
    # Overload-shaped: a small desk, a backlog, short stuck thresholds and
    # frequent escalations, so streams grow long and reset on transitions.
    run = run_simulation(SimConfig(seed=4, horizon_days=4, arrival_rate=20,
                                   roster_size=2, reminders_enabled=True,
                                   stuck_threshold_hours=4,
                                   reminder_period_hours=2,
                                   cycle_period_hours=1))
    # Each stream's ReminderSent records since its last reset, counted
    # from the log: a transition resets the ticket's StuckState stream.
    counts: dict = {}
    for e in run.events:
        if e["kind"] == "Transitioned":
            counts.pop((e["ticket"], "StuckState"), None)
        elif e["kind"] == "ReminderSent":
            stream = (e["ticket"], e["reminder_kind"])
            counts[stream] = counts.get(stream, 0) + 1
    assert run.snapshot.reminder_ledger == counts
    assert max(counts.values()) > 3
    # some StuckState stream was reset by a transition and began again
    restarts = Counter(e["ticket"] for e in run.events
                       if e["kind"] == "ReminderSent" and e["index"] == 1
                       and e["reminder_kind"] == "StuckState")
    assert max(restarts.values()) > 1


def test_encode_is_stable():
    event = {"seq": 1, "kind": "Created", "b": 2, "a": 1}
    assert encode_event(event) == '{"a":1,"b":2,"kind":"Created","seq":1}'


def _bad_events(events, snapshot):
    """Events that must be rejected after `events`, each with its error."""
    last = events[-1]
    seq, ts = last["seq"] + 1, "2025-03-01T09:00:00Z"
    created = next(e for e in events if e["kind"] == "Created")
    assigned = next(e for e in events if e["kind"] == "Assigned")
    ticket = snapshot.tickets[created["ticket"]]
    base = {"seq": seq, "ts": ts, "board": last["board"]}
    message = dict(assigned["messages"][0], msg_id="m999999")
    return [
        (dict(created, seq=seq, ts=ts, reporter="someone else"),
         DuplicateTicketError),
        (dict(base, kind="Transitioned", ticket=ticket.id, to="Bogus",
              actor="e1"), MalformedRecordError),
        # A move to the state it is in is never an edge.
        (dict(base, kind="Transitioned", ticket=ticket.id,
              to=ticket.state.value, actor="e1", messages=[message]),
         TransitionError),
        (dict(base, kind="Assigned", ticket="nope", engineer="e1",
              messages=[message]), MalformedRecordError),
        # A valid move whose message is malformed: nothing of it lands.
        (dict(base, kind="Assigned", ticket=ticket.id, engineer="e1",
              messages=[dict(message, channel="Pager")]), ValueError),
        (dict(base, kind="MessageDelivered", msg_id="m999999",
              state="Delivered", retries=0, terminal=False),
         MalformedRecordError),
        (dict(base, kind="MessageDelivered", msg_id="m000001",
              state="Failed", retries=7), MalformedRecordError),
        (dict(base, kind="Exploded"), ValueError),
    ]


@pytest.mark.parametrize("case", range(8))
def test_a_rejected_event_changes_nothing(case):
    run = run_simulation(SimConfig(seed=4, horizon_days=3, arrival_rate=6,
                                   roster_size=3))
    snapshot = replay(run.events)
    event, error = _bad_events(run.events, snapshot)[case]
    before = copy.deepcopy(snapshot)
    with pytest.raises(error):
        fold_event(snapshot, event)
    # Derived indexes too: vars() compares every field.
    assert vars(snapshot) == vars(before)


@pytest.mark.parametrize("event, field, text", [
    ({"kind": "Created", "reporter": "r1"}, "ticket",
     "seq 1: missing value in field 'ticket'"),
    ({"kind": "Created", "ticket": "T1-1"}, "reporter",
     "seq 1: missing value in field 'reporter'"),
    ({"kind": "Assigned", "ticket": "T1-9", "engineer": "e1"}, "ticket",
     "seq 1: unknown ticket 'T1-9' in field 'ticket'"),
    ({"kind": "Transitioned", "ticket": "T1-9", "to": "Done",
      "actor": "e1"}, "ticket",
     "seq 1: unknown ticket 'T1-9' in field 'ticket'"),
    ({"kind": "MessageDelivered", "msg_id": "m000001", "state": "Delivered",
      "retries": 0, "terminal": False}, "msg_id",
     "seq 1: unknown message 'm000001' in field 'msg_id'"),
    ({"kind": "ReminderSent", "ticket": "T1-1", "index": 1},
     "reminder_kind", "seq 1: missing value in field 'reminder_kind'"),
])
def test_malformed_record_names_seq_and_field(event, field, text):
    snapshot = replay([], "T1")
    event = dict(event, seq=1, ts="2025-01-06T09:00:00Z", board="T1")
    with pytest.raises(MalformedRecordError) as err:
        fold_event(snapshot, event)
    assert (err.value.seq, err.value.field, str(err.value)) == \
        (1, field, text)
    assert isinstance(err.value, ValueError)
    assert snapshot == replay([], "T1")


def test_malformed_message_names_its_field():
    created = {"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
               "kind": "Created", "ticket": "T1-1", "reporter": "r1"}
    wire = {"msg_id": "m000001", "team": "team1", "channel": "ChatA",
            "kind": "Assignment", "ticket": "T1-1", "text": "hi",
            "ts": "2025-01-06T09:00:00Z"}
    for bad, field in [(dict(wire, channel="Pager"), "messages[1].channel"),
                       ({k: v for k, v in wire.items() if k != "text"},
                        "messages[1].text")]:
        snapshot = replay([created])
        event = {"seq": 2, "ts": "2025-01-06T10:00:00Z", "board": "T1",
                 "kind": "Assigned", "ticket": "T1-1", "engineer": "e1",
                 "messages": [wire, bad]}
        with pytest.raises(MalformedRecordError) as err:
            fold_event(snapshot, event)
        assert err.value.field == field
        assert snapshot == replay([created])


CREATED = {"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
           "kind": "Created", "ticket": "T1-1", "reporter": "r1"}
WIRE = {"msg_id": "m000001", "team": "team1", "channel": "ChatA",
        "kind": "Assignment", "ticket": "T1-1", "text": "hi",
        "ts": "2025-01-06T10:00:00Z"}
ASSIGNED = {"kind": "Assigned", "ticket": "T1-1", "engineer": "e1"}
MOVED = {"kind": "Transitioned", "ticket": "T1-1", "actor": "e1"}
NEW = {"kind": "Created", "ticket": "T1-2", "reporter": "r1"}
REMINDED = {"kind": "ReminderSent", "ticket": "T1-1",
            "reminder_kind": "StuckState", "index": 1}
DELIVERED = {"kind": "MessageDelivered", "msg_id": "m000001",
             "state": "Delivered", "retries": 0, "terminal": False}


@pytest.mark.parametrize("event, field, text", [
    ({"kind": "Created", "ticket": "T1-2", "reporter": "r1",
      "priority": "Urgent"}, "priority",
     "seq 2: unknown value 'Urgent' in field 'priority'"),
    (dict(MOVED, to="Nope"), "to",
     "seq 2: unknown value 'Nope' in field 'to'"),
    (dict(MOVED, to=5), "to", "seq 2: unknown value 5 in field 'to'"),
    (dict(MOVED, to=["Done"]), "to",
     "seq 2: unknown value ['Done'] in field 'to'"),
    (dict(MOVED, to="Backlog", reopen_mode="Sideways"), "reopen_mode",
     "seq 2: unknown value 'Sideways' in field 'reopen_mode'"),
    (dict(ASSIGNED, ts="not a time"), "ts",
     "seq 2: bad timestamp 'not a time' in field 'ts'"),
    (dict(ASSIGNED, ts=5), "ts", "seq 2: bad timestamp 5 in field 'ts'"),
    (dict(ASSIGNED, ts="0001-01-01T00:00:00+05:00"), "ts",
     "seq 2: bad timestamp '0001-01-01T00:00:00+05:00' in field 'ts'"),
    ({"kind": "Created", "ticket": "T1-2", "reporter": "r1",
      "sla_deadline": "soon"}, "sla_deadline",
     "seq 2: bad timestamp 'soon' in field 'sla_deadline'"),
    (dict(ASSIGNED, messages=[WIRE, dict(WIRE, ts="not a time")]),
     "messages[1].ts",
     "seq 2: bad timestamp 'not a time' in field 'messages[1].ts'"),
    (dict(ASSIGNED, messages=[dict(WIRE, ts=5)]), "messages[0].ts",
     "seq 2: bad timestamp 5 in field 'messages[0].ts'"),
    (dict(ASSIGNED, messages=[dict(WIRE, ts=None)]), "messages[0].ts",
     "seq 2: bad timestamp None in field 'messages[0].ts'"),
    ({"kind": "Created", "ticket": "T1-2", "reporter": "r1",
      "messages": [5]}, "messages[0]",
     "seq 2: not an object: 5 in field 'messages[0]'"),
    ({"kind": "Created", "ticket": "T1-2", "reporter": "r1",
      "messages": 5}, "messages",
     "seq 2: not a list: 5 in field 'messages'"),
    (dict(ASSIGNED, messages={}), "messages",
     "seq 2: not a list: {} in field 'messages'"),
    (dict(ASSIGNED, messages=None), "messages",
     "seq 2: not a list: None in field 'messages'"),
    (dict(ASSIGNED, messages=[WIRE, dict(WIRE, msg_id="mx")]),
     "messages[1].msg_id",
     "seq 2: bad message id 'mx' in field 'messages[1].msg_id'"),
    (dict(ASSIGNED, messages=[dict(WIRE, msg_id=7)]), "messages[0].msg_id",
     "seq 2: bad message id 7 in field 'messages[0].msg_id'"),
    (dict(ASSIGNED, messages=[dict(WIRE, msg_id="m")]), "messages[0].msg_id",
     "seq 2: bad message id 'm' in field 'messages[0].msg_id'"),
    (dict(ASSIGNED, messages=[dict(WIRE, msg_id="m\u0663")]),
     "messages[0].msg_id",
     "seq 2: bad message id 'm\u0663' in field 'messages[0].msg_id'"),
    (dict(ASSIGNED, messages=[dict(WIRE, msg_id="m" + "9" * 19)]),
     "messages[0].msg_id",
     f"seq 2: bad message id 'm{'9' * 19}' in field 'messages[0].msg_id'"),
    *((dict(ASSIGNED, messages=[dict(WIRE, msg_id=bad)]),
       "messages[0].msg_id",
       f"seq 2: bad message id {bad!r} in field 'messages[0].msg_id'")
      # `int` reads each of these; a message id holds ASCII digits alone.
      for bad in ("m1\n", "m1_0", "m+1", "m 1", " m1", "M1", "m\u00b2")),
    (dict(ASSIGNED, messages=[WIRE, WIRE]), "messages[1].msg_id",
     "seq 2: reused message id 'm000001' in field 'messages[1].msg_id'"),
    (dict(ASSIGNED, messages=[dict(WIRE, msg_id="m000002"), WIRE]),
     "messages[1].msg_id",
     "seq 2: reused message id 'm000001' in field 'messages[1].msg_id'"),
    (dict(DELIVERED, msg_id=[]), "msg_id",
     "seq 2: unknown message [] in field 'msg_id'"),
    (dict(DELIVERED, state="Lost"), "state",
     "seq 2: bad value 'Lost' in field 'state'"),
    (dict(DELIVERED, state=["Delivered"]), "state",
     "seq 2: bad value ['Delivered'] in field 'state'"),
    (dict(DELIVERED, retries="x"), "retries",
     "seq 2: bad value 'x' in field 'retries'"),
    (dict(DELIVERED, retries=-1), "retries",
     "seq 2: bad value -1 in field 'retries'"),
    (dict(DELIVERED, retries=True), "retries",
     "seq 2: bad value True in field 'retries'"),
    (dict(DELIVERED, terminal=1), "terminal",
     "seq 2: bad value 1 in field 'terminal'"),
    (dict(NEW, ticket=["x"]), "ticket",
     "seq 2: bad value ['x'] in field 'ticket'"),
    (dict(NEW, reporter=5), "reporter",
     "seq 2: bad value 5 in field 'reporter'"),
    (dict(NEW, labels=5), "labels", "seq 2: bad value 5 in field 'labels'"),
    (dict(NEW, labels="abc"), "labels",
     "seq 2: bad value 'abc' in field 'labels'"),
    (dict(NEW, labels=["net", 5]), "labels",
     "seq 2: bad value ['net', 5] in field 'labels'"),
    (dict(ASSIGNED, engineer=["e1"]), "engineer",
     "seq 2: bad value ['e1'] in field 'engineer'"),
    (dict(ASSIGNED, cursor_after="q"), "cursor_after",
     "seq 2: bad value 'q' in field 'cursor_after'"),
    (dict(ASSIGNED, cursor_after=-1), "cursor_after",
     "seq 2: bad value -1 in field 'cursor_after'"),
    (dict(ASSIGNED, kind="Reassigned", engineer=7), "engineer",
     "seq 2: bad value 7 in field 'engineer'"),
    (dict(MOVED, ticket=["T1-1"], to="Done"), "ticket",
     "seq 2: unknown ticket ['T1-1'] in field 'ticket'"),
    (dict(REMINDED, index=2), "index",
     "seq 2: expected index 1, got 2 in field 'index'"),
    (dict(REMINDED, index="zz"), "index",
     "seq 2: expected index 1, got 'zz' in field 'index'"),
    (dict(REMINDED, index=True), "index",
     "seq 2: expected index 1, got True in field 'index'"),
    (dict(REMINDED, reminder_kind="x"), "reminder_kind",
     "seq 2: unknown value 'x' in field 'reminder_kind'"),
    (dict(REMINDED, reminder_kind=["StuckState"]), "reminder_kind",
     "seq 2: unknown value ['StuckState'] in field 'reminder_kind'"),
    (dict(REMINDED, ticket=["T1-1"]), "ticket",
     "seq 2: unknown ticket ['T1-1'] in field 'ticket'"),
    (dict(ASSIGNED, seq=2.0), "seq", "seq 2.0: bad value 2.0 in field 'seq'"),
    (dict(ASSIGNED, board="OTHER"), "board",
     "seq 2: expected board 'T1', got 'OTHER' in field 'board'"),
    (dict(ASSIGNED, board=["T1"]), "board",
     "seq 2: expected board 'T1', got ['T1'] in field 'board'"),
    (dict(ASSIGNED, messages=[dict(WIRE, channel=["ChatA"])]),
     "messages[0].channel",
     "seq 2: unknown channel ['ChatA'] in field 'messages[0].channel'"),
    (dict(ASSIGNED, messages=[dict(WIRE, team=5)]), "messages[0].team",
     "seq 2: bad value 5 in field 'messages[0].team'"),
    (dict(ASSIGNED, messages=[dict(WIRE, kind=None)]), "messages[0].kind",
     "seq 2: bad value None in field 'messages[0].kind'"),
    (dict(ASSIGNED, messages=[dict(WIRE, ticket=["T1-1"])]),
     "messages[0].ticket",
     "seq 2: bad value ['T1-1'] in field 'messages[0].ticket'"),
    (dict(ASSIGNED, messages=[WIRE, dict(WIRE, msg_id="m000002", text=5)]),
     "messages[1].text", "seq 2: bad value 5 in field 'messages[1].text'"),
    (dict(NEW, sla_deadline=0), "sla_deadline",
     "seq 2: bad timestamp 0 in field 'sla_deadline'"),
    (dict(NEW, sla_deadline=False), "sla_deadline",
     "seq 2: bad timestamp False in field 'sla_deadline'"),
    (dict(NEW, sla_deadline=None), "sla_deadline",
     "seq 2: bad timestamp None in field 'sla_deadline'"),
    (dict(MOVED, to="Backlog", reopen_mode=""), "reopen_mode",
     "seq 2: unknown value '' in field 'reopen_mode'"),
    (dict(MOVED, to="Backlog", reopen_mode=None), "reopen_mode",
     "seq 2: unknown value None in field 'reopen_mode'"),
    (dict(NEW, ts="9999-12-31T23:00:00Z"), "ts",
     "seq 2: date out of range in field 'ts'"),
], ids=["priority", "state", "state-int", "state-list", "reopen-mode", "ts",
        "ts-int", "ts-out-of-range", "sla-deadline", "message-ts",
        "message-ts-int", "message-ts-null", "message-not-object",
        "messages-int", "messages-object", "messages-null", "message-id",
        "message-id-int", "message-id-no-digits",
        "message-id-non-ascii-digit", "message-id-too-long",
        "message-id-newline", "message-id-underscore", "message-id-plus",
        "message-id-space", "message-id-leading-space",
        "message-id-capital", "message-id-superscript",
        "message-id-repeated",
        "message-id-falling", "delivered-msg-id-list", "delivered-state",
        "delivered-state-list", "delivered-retries-string",
        "delivered-retries-negative", "delivered-retries-bool",
        "delivered-terminal-int", "created-ticket-list",
        "created-reporter-int", "labels-int", "labels-string",
        "labels-non-string", "engineer-list", "cursor-string",
        "cursor-negative", "reassigned-engineer-int", "moved-ticket-list",
        "reminder-index-skipped", "reminder-index-string",
        "reminder-index-bool", "reminder-kind", "reminder-kind-list",
        "reminder-ticket-list", "seq-float", "board-other", "board-list",
        "wire-channel-list", "wire-team-int", "wire-kind-null", "wire-ticket-list",
        "wire-text-int", "sla-deadline-zero", "sla-deadline-false",
        "sla-deadline-null", "reopen-mode-empty", "reopen-mode-null",
        "ts-no-room-for-sla"])
def test_unknown_value_or_bad_timestamp_changes_nothing(event, field, text):
    snapshot = replay([CREATED])
    event = {"seq": 2, "ts": "2025-01-06T10:00:00Z", "board": "T1", **event}
    with pytest.raises(MalformedRecordError) as err:
        fold_event(snapshot, event)
    assert (err.value.seq, err.value.field, str(err.value)) == \
        (2, field, text)
    assert vars(snapshot) == vars(replay([CREATED]))


#: A well-formed record of each kind, to fold after `ANNOUNCED`.
WELL_FORMED = {
    "Created": NEW,
    "Transitioned": dict(MOVED, to="ReadyToStart"),
    "Assigned": dict(ASSIGNED, messages=[dict(WIRE, msg_id="m000002")]),
    "Reassigned": dict(ASSIGNED, kind="Reassigned", engineer="e2"),
    "ReminderSent": REMINDED,
    "MessageDelivered": DELIVERED,
}
ANNOUNCED = [CREATED, {"seq": 2, "ts": "2025-01-06T10:00:00Z", "board": "T1",
                       **ASSIGNED, "messages": [WIRE]}]


@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_a_well_formed_record_of_each_kind_folds(kind):
    snapshot = replay(ANNOUNCED)
    fold_event(snapshot, {"seq": 3, "ts": "2025-01-06T11:00:00Z",
                          "board": "T1", **WELL_FORMED[kind]})
    assert snapshot.watermark == 3
    assert snapshot != replay(ANNOUNCED)


@pytest.mark.parametrize("kind", ["Exploded", ["Created"], {"Created": 1}],
                         ids=["unknown", "list", "object"])
def test_a_record_of_no_known_kind_changes_nothing(kind):
    snapshot = replay([CREATED])
    event = {"seq": 2, "ts": "2025-01-06T10:00:00Z", "board": "T1", **NEW,
             "kind": kind, "messages": [WIRE]}
    with pytest.raises(ValueError) as err:
        fold_event(snapshot, event)
    assert type(err.value) is ValueError
    assert str(err.value) == f"unknown event kind: {kind}"
    assert vars(snapshot) == vars(replay([CREATED]))


def test_a_message_may_carry_another_timestamp_than_its_event():
    earlier = dict(WIRE, ts="2025-01-06T09:30:00+00:00")
    snapshot = replay([CREATED, {"seq": 2, "ts": "2025-01-06T10:00:00Z",
                                 "board": "T1", **ASSIGNED,
                                 "messages": [earlier]}])
    assert snapshot.outbox["m000001"] is earlier


def test_a_delivery_record_settles_its_message_once():
    announced = [CREATED, {"seq": 2, "ts": "2025-01-06T10:00:00Z",
                           "board": "T1", **ASSIGNED, "messages": [WIRE]}]
    failed = dict(DELIVERED, seq=3, ts="2025-01-06T11:00:00Z", board="T1",
                  state="Failed", retries=1)
    snapshot = replay(announced + [failed])
    assert snapshot.outbox == {"m000001": WIRE}
    assert snapshot.retries == {"m000001": 1}
    assert snapshot.settled == {}

    delivered = dict(failed, seq=4, state="Delivered")
    snapshot = replay(announced + [failed, delivered])
    assert snapshot.outbox == snapshot.retries == {}
    assert snapshot.settled == {("ChatA", "Delivered"): 1}
    assert snapshot != replay(announced + [failed])

    # A settled message is no longer known: marking it again is rejected.
    again = dict(failed, seq=5, ts="2025-01-06T12:00:00Z", retries=3,
                 terminal=True)
    before = copy.deepcopy(snapshot)
    with pytest.raises(MalformedRecordError) as err:
        fold_event(snapshot, again)
    assert str(err.value) == \
        "seq 5: unknown message 'm000001' in field 'msg_id'"
    assert vars(snapshot) == vars(before)


def test_replay_needs_a_board_on_the_first_record():
    with pytest.raises(MalformedRecordError) as err:
        replay([{"seq": 1, "ts": "2025-01-06T09:00:00Z", "kind": "Created",
                 "ticket": "T1-1", "reporter": "r1"}])
    assert err.value.field == "board"


class FailingHandle:
    """A log file handle whose writes fail, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def close(self):
        pass


def test_watermark_follows_appends_and_survives_a_failed_write(tmp_path):
    path = tmp_path / "x.ndjson"
    first = {"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
             "kind": "Created", "ticket": "T1-1", "reporter": "r1"}
    second = dict(first, seq=2, ticket="T1-2")
    with EventLog(path) as log:
        assert log.watermark == 0
        assert log.append([first]) == 1 == log.watermark
        log.close()
        log._fh = FailingHandle()
        with pytest.raises(OSError):
            log.append([second])
        assert log.watermark == 1
        assert log.events == [first]
        log._fh = None
        assert log.append([second]) == 2 == log.watermark
    with EventLog(path) as reopened:
        assert reopened.watermark == 2
        assert reopened.events == [first, second]


def test_flush_hands_appended_lines_to_a_second_reader(tmp_path):
    path = tmp_path / "x.ndjson"
    with EventLog(path) as log:
        log.append([CREATED])
        log.flush()
        assert read_event_log(path) == log.events == [CREATED]
    memory = EventLog()
    memory.append([CREATED])
    memory.flush()
    assert memory.events == [CREATED]


def test_a_message_is_its_events_wire_dict():
    run = run_simulation(SimConfig(seed=4, horizon_days=2, arrival_rate=6,
                                   roster_size=3, reminders_enabled=True,
                                   stuck_threshold_hours=4,
                                   reminder_period_hours=2))
    wires = {wire["msg_id"]: wire for event in run.events
             for wire in event.get("messages", ())}
    # Each message, checked as its delivery is folded: it leaves the
    # outbox then.
    snapshot, checked = BoardSnapshot(run.snapshot.board_id), 0
    for event in run.events:
        if event["kind"] == "MessageDelivered":
            msg_id = event["msg_id"]
            assert snapshot.outbox[msg_id] is wires[msg_id]
            checked += 1
        fold_event(snapshot, event)
    assert checked == len(wires) - len(snapshot.outbox)
    assert snapshot == run.snapshot
    # The sink was handed the same dicts, in delivery order.
    [sink] = {id(s): s for s in run.runtime.sinks.values()}.values()
    assert [wire["msg_id"] for wire in sink.delivered] == [
        e["msg_id"] for e in run.events if e.get("state") == "Delivered"]
    assert all(wire is wires[wire["msg_id"]] for wire in sink.delivered)


def _events(*records):
    """`records` numbered from seq 1, an hour apart, on board T1."""
    return [dict(record, seq=seq, board="T1",
                 ts=f"2025-01-06T{9 + seq:02d}:00:00Z")
            for seq, record in enumerate(records, start=1)]


def _rejected(records, field, text):
    """Fold `records`; the last must be rejected, naming `field`, and
    leave the snapshot as the others made it."""
    events = _events(*records)
    snapshot = replay(events[:-1])
    before = copy.deepcopy(snapshot)
    with pytest.raises(MalformedRecordError) as err:
        fold_event(snapshot, events[-1])
    assert (err.value.field, str(err.value)) == (field, text)
    assert vars(snapshot) == vars(before)


def test_a_message_id_is_never_reused():
    announced = [CREATED, dict(ASSIGNED, messages=[WIRE])]
    again = {"kind": "Reassigned", "ticket": "T1-1", "engineer": "e2",
             "messages": [dict(WIRE, text="second")]}
    # A pending message is not replaced, whose wire would then never go.
    _rejected(announced + [again], "messages[0].msg_id",
              "seq 3: reused message id 'm000001' in field "
              "'messages[0].msg_id'")
    # A delivered message does not come back to be delivered again.
    _rejected(announced + [DELIVERED, again], "messages[0].msg_id",
              "seq 4: reused message id 'm000001' in field "
              "'messages[0].msg_id'")
    fresh = dict(again, messages=[dict(WIRE, msg_id="m000002")])
    assert list(replay(_events(*announced, DELIVERED, fresh)).outbox) == \
        ["m000002"]


def test_a_reopen_record_names_the_state_it_leads_to():
    done = [CREATED, dict(MOVED, to="Done")]
    reopened = dict(MOVED, to="Blocked", reopen_mode="ToBacklog")
    _rejected(done + [reopened], "to",
              "seq 3: bad value 'Blocked' in field 'to'")
    for mode, to in (("ToBacklog", "Backlog"),
                     ("ToSameEngineer", "WorkInProgress")):
        records = [CREATED, ASSIGNED, dict(MOVED, to="Done"),
                   dict(reopened, reopen_mode=mode, to=to)]
        assert replay(_events(*records)).tickets["T1-1"].state.value == to


def test_each_reminder_stream_counts_up_from_one():
    stuck, imminent = REMINDED, dict(REMINDED, reminder_kind="SlaImminent")
    records = [CREATED, stuck, dict(stuck, index=2), imminent]
    assert replay(_events(*records)).reminder_ledger == {
        ("T1-1", "StuckState"): 2, ("T1-1", "SlaImminent"): 1}
    _rejected(records + [dict(stuck, index=2)], "index",
              "seq 5: expected index 3, got 2 in field 'index'")
    # A transition restarts the stuck stream only.
    records += [dict(MOVED, to="Done")]
    assert replay(_events(*records)).reminder_ledger == {
        ("T1-1", "SlaImminent"): 1}
    _rejected(records + [dict(stuck, index=3)], "index",
              "seq 6: expected index 1, got 3 in field 'index'")
    _rejected(records + [imminent], "index",
              "seq 6: expected index 2, got 1 in field 'index'")
    records += [stuck, dict(imminent, index=2)]
    assert replay(_events(*records)).reminder_ledger == {
        ("T1-1", "StuckState"): 1, ("T1-1", "SlaImminent"): 2}


#: Valid records to follow `ANNOUNCED_LOG`, of every kind, for the
#: property below to break.
TEMPLATES = [
    NEW, dict(NEW, priority="High", labels=["net"],
              sla_deadline="2025-02-01T00:00:00Z"),
    dict(MOVED, to="Done"), dict(MOVED, to="Backlog",
                                 reopen_mode="ToBacklog"),
    dict(ASSIGNED, cursor_after=1, messages=[dict(WIRE, msg_id="m000002")]),
    dict(ASSIGNED, kind="Reassigned", engineer="e2",
         messages=[dict(WIRE, msg_id="m000002")]),
    REMINDED, DELIVERED, dict(DELIVERED, state="Failed", retries=1),
]
ANNOUNCED_LOG = _events(CREATED, dict(ASSIGNED, messages=[WIRE]))
#: Every key the fold reads, and one it does not.
KEYS = sorted({key for record in TEMPLATES + ANNOUNCED_LOG
               for key in record} | {"other"})
#: Any JSON value, kept small; strings are often ones the fold knows, or
#: the last hour a timestamp can name.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(sorted(
        {value for record in TEMPLATES + ANNOUNCED_LOG + [WIRE]
         for value in record.values() if type(value) is str}
        | {"9999-12-31T23:00:00Z"})),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=3)


@st.composite
def _mutated(draw, value: dict, keys: list[str]) -> dict:
    """`value` with up to two of its keys dropped and up to two of `keys`
    set to any JSON value."""
    out = dict(value)
    for key in draw(st.sets(st.sampled_from(sorted(out)), max_size=2)):
        del out[key]
    out.update(draw(st.dictionaries(st.sampled_from(keys), JSON,
                                    max_size=2)))
    return out


@st.composite
def _log_tail(draw) -> list[dict]:
    records = []
    for seq in range(3, 3 + draw(st.integers(1, 2))):
        record = dict(draw(st.sampled_from(TEMPLATES)), seq=seq,
                      ts=f"2025-01-06T{9 + seq:02d}:00:00Z", board="T1")
        if "messages" in record:
            record["messages"] = [draw(_mutated(wire, sorted(WIRE)))
                                  for wire in record["messages"]]
        records.append(draw(_mutated(record, KEYS) | st.dictionaries(
            st.sampled_from(KEYS), JSON, max_size=6)))
    return records


@settings(max_examples=150, deadline=None)
@given(tail=_log_tail())
def test_any_json_object_on_a_line_folds_or_is_a_replay_error(
        tmp_path_factory, tail):
    path = tmp_path_factory.getbasetemp() / "fuzzed.events.ndjson"
    path.write_text("".join(encode_event(record) + "\n"
                            for record in ANNOUNCED_LOG + tail))
    try:
        replay(read_event_log(path))
    except REPLAY_ERRORS:
        pass


def test_a_log_whose_final_newline_was_lost_takes_appends(tmp_path):
    path = tmp_path / "x.ndjson"
    first, second = _events(CREATED, dict(CREATED, ticket="T1-2"))
    path.write_text(encode_event(first))
    with EventLog(path) as log:
        assert log.events == [first]
        log.append([second])
    assert path.read_text() == \
        encode_event(first) + "\n" + encode_event(second) + "\n"
    # A log that ends in its newline, or is empty, gets none added.
    for text, event in (("", first), (encode_event(first) + "\n", second)):
        path.write_text(text)
        with EventLog(path) as log:
            log.append([event])
        assert path.read_text() == text + encode_event(event) + "\n"


# ---------------------------------------------------------------------------
# The batched reader
# ---------------------------------------------------------------------------

def _read_line_by_line(path) -> list[dict]:
    """The reader the batched one must match: each line parsed alone."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise CorruptRecordError(line_no, f"invalid JSON: {exc}")
            if type(event) is not dict \
                    or not {"seq", "kind", "ts"} <= event.keys():
                raise CorruptRecordError(line_no, "missing required fields")
            if event["kind"] not in EVENT_KINDS:
                raise CorruptRecordError(
                    line_no, f"unknown kind {event['kind']!r}")
            events.append(event)
    return events


def _outcome(read, path):
    """The records `read` gets from `path`, or its error's line and text."""
    try:
        return read(path)
    except CorruptRecordError as exc:
        return exc.line_no, str(exc)


#: A record whose two wires stand side by side.
TWO_WIRES = dict(ASSIGNED, messages=[WIRE, dict(WIRE, msg_id="m000002")])
#: Record lines the soups below are made of.
SOUP_RECORDS = [encode_event(record) for record in _events(
    CREATED, TWO_WIRES, dict(TWO_WIRES, kind="Reassigned"), REMINDED,
    dict(MOVED, to="Done"), dict(CREATED, ticket="\u0000"),
    dict(DELIVERED, note="x\u0000"))]
SENTINEL = '"\\u0000"'


def _bracket_commas(text: str) -> list[int]:
    """Where `text` has a comma right after a closing bracket."""
    return [i for i, c in enumerate(text) if c == "," and text[i - 1] in "}]"]


@st.composite
def _split_record(draw) -> list[str]:
    """A record over two lines: split anywhere, or at a comma after a
    closing bracket, which the split loses."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(SOUP_RECORDS))
        i = draw(st.integers(1, len(text) - 1))
        return [text[:i], text[i:]]
    text = draw(st.sampled_from([t for t in SOUP_RECORDS
                                 if _bracket_commas(t)]))
    i = draw(st.sampled_from(_bracket_commas(text)))
    return [text[:i], text[i + 1:]]


@st.composite
def _two_records(draw, between: list[str]) -> list[str]:
    """Two records on one line, with one of `between` between them."""
    first = draw(st.sampled_from(SOUP_RECORDS))
    second = draw(st.sampled_from(SOUP_RECORDS))
    return [first + draw(st.sampled_from(between)) + second]


def _line(values: list[str]):
    """One-line fragments: one of `values`."""
    return st.sampled_from(values).map(lambda line: [line])


FRAGMENTS = st.one_of(
    _line(SOUP_RECORDS),
    _line(["", " ", "\t", " \x0c ", "\x0b"]),
    _line([SENTINEL, f" {SENTINEL},", f",{SENTINEL}"]),
    _line(["[", "]", "{", "}", ","]),
    _split_record(),
    _two_records(["", ",", " "]),
    # With a record split at a bracket comma, this forges a join.
    _two_records([f",{SENTINEL},"]),
)


@settings(max_examples=200, deadline=None)
@given(soup=st.lists(FRAGMENTS, max_size=10),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       last_newline=st.booleans(),
       batch_chars=st.integers(1, 600) | st.just(1 << 16))
def test_batched_reading_matches_reading_line_by_line(
        tmp_path_factory, soup, newline, last_newline, batch_chars):
    # The lines of any run of fragments, as one batch, read as they read
    # alone, or the batch is refused.
    for start in range(len(soup)):
        for stop in range(start + 1, len(soup) + 1):
            lines = [line.strip() for fragment in soup[start:stop]
                     for line in fragment if line.strip()]
            records = eventlog._scan_batch(lines) if lines else None
            if records is not None:
                assert records == [json.loads(line) for line in lines]
    lines = [line for fragment in soup for line in fragment]
    path = tmp_path_factory.getbasetemp() / "soup.ndjson"
    path.write_text(newline.join(lines) + newline * last_newline,
                    encoding="utf-8", newline="")
    with mock.patch.object(eventlog, "_BATCH_CHARS", batch_chars):
        assert _outcome(read_event_log, path) == \
            _outcome(_read_line_by_line, path)


def test_a_line_that_forges_a_join_is_read_alone(tmp_path):
    first, second, third = (encode_event(record) for record in _events(
        CREATED, dict(CREATED, ticket="T1-2"), TWO_WIRES))
    head, tail = third.split("},{", 1)
    lines = [f"{first},{SENTINEL},{second}", head + "}", "{" + tail]
    # As one array the three lines give three records with a sentinel
    # between each two; only the count of sentinel tokens tells.
    values = json.loads("[" + eventlog._JOIN.join(lines) + "]")
    assert values[1::2] == ["\0", "\0"] and len(values) == 5
    assert all(type(value) is dict for value in values[0::2])
    path = tmp_path / "forged.ndjson"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecordError) as err:
        read_event_log(path)
    assert str(err.value) == _outcome(_read_line_by_line, path)[1] == \
        f"line 1: invalid JSON: Extra data: line 1 column " \
        f"{len(first) + 1} (char {len(first)})"


#: Good lines mixed with blank ones, more than two batches of them.
GOOD_BATCHES = (GOOD_LINE + "\n\n \n") * (2 * eventlog._BATCH_CHARS // 100)


@pytest.mark.parametrize("text, line_no, message", CORRUPT_LOGS)
def test_corrupt_record_texts_after_whole_batches(tmp_path, text, line_no,
                                                  message):
    path = tmp_path / "bad.ndjson"
    path.write_text(GOOD_BATCHES + text, encoding="utf-8")
    line_no += GOOD_BATCHES.count("\n")
    with pytest.raises(CorruptRecordError) as err:
        read_event_log(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_records_of_a_batch_share_their_keys(tmp_path):
    path = tmp_path / "log.ndjson"
    path.write_text(GOOD_LINE + "\n\n" + GOOD_LINE + "\n")
    first, second = read_event_log(path)
    assert first == second
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("before, bad", [
    (b"", b"\xff"),
    (GOOD_LINE.encode() + b"\n\n", b"\xff"),
    (GOOD_BATCHES.encode(), b"\xff"),
    # Inside a JSON string the byte scans, so its batch must go line by line.
    (b"", GOOD_LINE.encode().replace(b'"r1"', b'"r\xff"')),
    (GOOD_BATCHES.encode(), GOOD_LINE.encode().replace(b'"r1"', b'"r\xff"')),
], ids=["first", "third", "after-batches", "in-string",
        "in-string-after-batches"])
def test_a_line_that_is_not_utf8_is_named(tmp_path, before, bad):
    path = tmp_path / "bad.ndjson"
    path.write_bytes(before + bad + b"\n" + GOOD_LINE.encode() + b"\n")
    line_no, position = before.count(b"\n") + 1, bad.index(b"\xff")
    # Every record before the line is yielded first.
    with closing(iter_event_log(path)) as records:
        for _ in range(before.count(b"{")):
            assert next(records) == json.loads(GOOD_LINE)
        with pytest.raises(CorruptRecordError) as err:
            next(records)
    assert err.value.line_no == line_no
    assert str(err.value) == (
        f"line {line_no}: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte")


def test_a_line_of_utf8_beyond_ascii_reads(tmp_path):
    path = tmp_path / "log.ndjson"
    line = GOOD_LINE.replace('"r1"', '"r\u00e9\u2028"')
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    assert read_event_log(path) == [json.loads(line)] * 2


def _long_log(path, tickets: int, rounds: int) -> int:
    """Write a log where each of `tickets` tickets starts work, is handed
    over `rounds` times and is done; return its number of records."""
    records = [dict(record, ticket=f"T1-{i}") for i in range(tickets)
               for record in (CREATED, ASSIGNED,
                              dict(MOVED, to="WorkInProgress"))]
    records += [dict(ASSIGNED, kind="Reassigned", ticket=f"T1-{i}",
                     engineer=f"e{r % 2}")
                for r in range(rounds) for i in range(tickets)]
    records += [dict(MOVED, ticket=f"T1-{i}", to="Done")
                for i in range(tickets)]
    with path.open("w", encoding="utf-8") as fh:
        for seq, record in enumerate(records, start=1):
            fh.write(encode_event(dict(
                record, seq=seq, board="T1",
                ts=f"2025-01-06T{9 + seq // 3600:02d}:{seq // 60 % 60:02d}:"
                   f"{seq % 60:02d}Z")) + "\n")
    return len(records)


def test_replay_assert_streams_the_log(tmp_path, capsys):
    path = tmp_path / "long.ndjson"
    count = _long_log(path, tickets=100, rounds=200)
    assert count >= 20_000
    tracemalloc.start()
    try:
        code = main(["replay", "--log", str(path), "--assert"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == (
        f"replayed {count} events, watermark {count}, 100 tickets\n"
        "consistency ok\n")
    assert peak < 3 * 2 ** 20
