from __future__ import annotations

import copy
from collections import Counter

import pytest

from dispatchbot.eventlog import (
    CorruptRecordError,
    DuplicateTicketError,
    EventLog,
    SeqGapError,
    encode_event,
    fold_event,
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
    log = EventLog(tmp_path / "x.ndjson")
    log.append([{"seq": 1, "ts": "2025-01-06T09:00:00Z", "board": "T1",
                 "kind": "Created", "ticket": "T1-1", "reporter": "r1"}])
    with pytest.raises(SeqGapError):
        log.append([{"seq": 5, "ts": "2025-01-06T09:00:00Z", "board": "T1",
                     "kind": "Created", "ticket": "T1-2", "reporter": "r1"}])


def test_corrupt_record_names_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
                    '"kind":"Created","ticket":"T1-1","reporter":"r1"}\n'
                    "not json\n")
    with pytest.raises(CorruptRecordError) as err:
        read_event_log(path)
    assert err.value.line_no == 2


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
    # no StuckState ledger entry survives for tickets whose state changed
    # after the reminder was sent
    for tid, kind, index in snapshot.reminder_ledger:
        if kind != "StuckState":
            continue
        ticket = snapshot.tickets[tid]
        trigger_basis = ticket.state_entered_at
        sent = [e for e in run.events if e["kind"] == "ReminderSent"
                and e["ticket"] == tid and e["reminder_kind"] == kind
                and e["index"] == index]
        assert sent, "ledger entry without a matching event"


def test_reminder_ledger_streams_are_prefix_closed():
    # Overload-shaped: a small desk, a backlog, short stuck thresholds and
    # frequent escalations, so streams grow long and reset on transitions.
    run = run_simulation(SimConfig(seed=4, horizon_days=4, arrival_rate=20,
                                   roster_size=2, reminders_enabled=True,
                                   stuck_threshold_hours=4,
                                   reminder_period_hours=2,
                                   cycle_period_hours=1))
    streams: dict = {}
    for tid, kind, index in run.snapshot.reminder_ledger:
        streams.setdefault((tid, kind), set()).add(index)
    assert any(len(indices) > 3 for indices in streams.values())
    # some StuckState stream was reset by a transition and began again
    restarts = Counter(e["ticket"] for e in run.events
                       if e["kind"] == "ReminderSent" and e["index"] == 1
                       and e["reminder_kind"] == "StuckState")
    assert max(restarts.values()) > 1
    for indices in streams.values():
        assert indices == set(range(1, len(indices) + 1))


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
              actor="e1"), ValueError),
        # A move to the state it is in is never an edge.
        (dict(base, kind="Transitioned", ticket=ticket.id,
              to=ticket.state.value, actor="e1", messages=[message]),
         TransitionError),
        (dict(base, kind="Assigned", ticket="nope", engineer="e1",
              messages=[message]), KeyError),
        # A valid move whose message is malformed: nothing of it lands.
        (dict(base, kind="Assigned", ticket=ticket.id, engineer="e1",
              messages=[dict(message, channel="Pager")]), ValueError),
        (dict(base, kind="MessageDelivered", msg_id="m999999",
              state="Delivered", retries=0, terminal=False), KeyError),
        (dict(base, kind="MessageDelivered", msg_id="m000001",
              state="Failed", retries=7), KeyError),
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
