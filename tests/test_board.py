from __future__ import annotations

import copy
import errno
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dispatchbot import board, notify, reminders, timeutil
from dispatchbot.board import (
    BoardRuntime,
    ConfigError,
    CycleReport,
    TeamConfig,
    load_team_config,
    parse_team_config,
    poll_new_unassigned,
)
from dispatchbot.eventlog import (
    DuplicateTicketError,
    EventLog,
    encode_event,
    read_event_log,
    replay,
)
from dispatchbot.notify import (
    CHANNEL_BY_VALUE,
    STATE_DELIVERED,
    Channel,
    MemorySink,
    PayloadRejected,
    SinkUnreachable,
)
from dispatchbot.reminders import (
    DEFAULT_STUCK_HOURS,
    Reminder,
    ThresholdPolicy,
    due_reminders,
)
from dispatchbot.sim import SimConfig, run_simulation
from dispatchbot.workflow import ReopenMode, TransitionError, WorkflowState

from .conftest import at, clear_codec, team_config

CONFIG_DOC = {
    "team_id": "team1",
    "board_id": "T1",
    "roster": [
        {"id": "e1"},
        {"id": "e2", "leaves": [["2025-02-01", "2025-02-05"]]},
        {"id": "e3", "joined_at": "2024-06-01"},
    ],
    "channels": {"ChatA": "out/chat_a", "Email": "out/email"},
    "review_channel": "ChatA",
    "policy": "RoundRobin",
    "thresholds": {
        "stuck_hours": {"Blocked": 48},
        "sla_warning_fraction": 0.25,
        "reminder_period_hours": 12,
    },
    "cycle_period_minutes": 30,
}


class TestTeamConfig:
    def test_valid_config_loads(self, tmp_path):
        path = tmp_path / "team.json"
        path.write_text(json.dumps(CONFIG_DOC))
        cfg = load_team_config(path)
        assert [e.engineer_id for e in cfg.roster.entries] == \
            ["e1", "e2", "e3"]
        assert cfg.binding.review_channel is Channel.CHAT_A
        assert cfg.thresholds.reminder_period_hours == 12
        assert cfg.cycle_period_minutes == 30

    def test_unknown_key_rejected(self):
        doc = dict(CONFIG_DOC, surprise=1)
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        assert any("surprise" in e for e in err.value.errors)

    def test_unknown_channel_rejected(self):
        doc = dict(CONFIG_DOC, channels={"Pager": "x"})
        with pytest.raises(ConfigError):
            parse_team_config(doc)

    def test_expertise_referential_check(self):
        doc = dict(CONFIG_DOC,
                   expertise={"skills": {"ghost": ["net"]}, "labels": {}})
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        assert any("ghost" in e for e in err.value.errors)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_team_config(tmp_path / "absent.json")
        assert "absent.json" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("joined_at", "not-a-date"),
        ("separated_at", "2025-13-01"),
        ("joined_at", 20250101),
        ("leaves", [["2025-02-01", "soon"]]),
        ("leaves", [["2025-02-01"]]),
    ])
    def test_bad_roster_date_is_field_error(self, key, value):
        roster = [dict(CONFIG_DOC["roster"][0], **{key: value})]
        with pytest.raises(ConfigError) as err:
            parse_team_config(dict(CONFIG_DOC, roster=roster))
        assert any(e.startswith(f"roster[0]: bad {key} ")
                   for e in err.value.errors)


    @pytest.mark.parametrize("doc, error", [
        (dict(CONFIG_DOC, roster=5), "roster: must be a list"),
        (dict(CONFIG_DOC, roster=[{"id": ["x"]}]),
         "roster[0]: id must be a string"),
        (dict(CONFIG_DOC, roster=["e1"]), "roster[0]: must be an object"),
        (dict(CONFIG_DOC, channels=["ChatA"]), "channels: must be an object"),
        (dict(CONFIG_DOC, cycle_period_minutes="30"),
         "cycle_period_minutes: must be an integer >= 1, got '30'"),
        (dict(CONFIG_DOC, cycle_period_minutes=10 ** 18),
         "cycle_period_minutes: must be an integer <= 52596000, "
         "got 1000000000000000000"),
        (dict(CONFIG_DOC, cycle_period_minutes=52_596_001),
         "cycle_period_minutes: must be an integer <= 52596000, "
         "got 52596001"),
    ])
    def test_malformed_shape_is_field_error(self, doc, error):
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        assert error in err.value.errors

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1e300,
                                       10 ** 400])
    @pytest.mark.parametrize("key", ["stuck_hours", "reminder_period_hours"])
    def test_unbounded_hours_are_field_errors(self, key, value):
        thresholds = dict(CONFIG_DOC["thresholds"])
        thresholds[key] = {"Blocked": value} if key == "stuck_hours" else value
        with pytest.raises(ConfigError) as err:
            parse_team_config(dict(CONFIG_DOC, thresholds=thresholds))
        assert [e for e in err.value.errors if e.startswith("thresholds: ")]

    @pytest.mark.parametrize("thresholds, error", [
        ({"reminder_period_hours": True},
         "thresholds: reminder_period_hours must be a number, got True"),
        ({"sla_warning_fraction": True},
         "thresholds: sla_warning_fraction must be a number, got True"),
        ({"stuck_hours": {"Blocked": "5"}},
         "thresholds: stuck_hours.Blocked must be a number, got '5'"),
        ({"stuck_hours": {"Blocked": False}},
         "thresholds: stuck_hours.Blocked must be a number, got False"),
        ({"reminder_period_hours": "24"},
         "thresholds: reminder_period_hours must be a number, got '24'"),
    ])
    def test_hours_must_be_json_numbers(self, thresholds, error):
        with pytest.raises(ConfigError) as err:
            parse_team_config(dict(CONFIG_DOC, thresholds=thresholds))
        assert err.value.errors == [error]

    @pytest.mark.parametrize("url, reason", [
        ("http://[::1/hook", "Invalid IPv6 URL"),
        ("https:///hook", "no host"),
        ("http://:8080/hook", "no host"),
        ("http://hooks.example:port/x", "Port could not be cast"),
    ])
    def test_bad_webhook_url_is_field_error(self, url, reason):
        doc = dict(CONFIG_DOC, channels={"ChatA": url, "Email": "out"})
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        [error] = err.value.errors
        assert error.startswith(f"channels: bad webhook URL {url!r} for "
                                f"ChatA: {reason}")

    @pytest.mark.parametrize("endpoint", [None, 5, ["out"], {"dir": "out"}])
    def test_non_string_endpoint_is_field_error(self, endpoint):
        doc = dict(CONFIG_DOC, channels={"ChatA": "out", "Email": endpoint})
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        assert err.value.errors == [
            f"channels: endpoint for Email must be a string, got {endpoint!r}"]

    def test_empty_endpoint_is_field_error(self):
        doc = dict(CONFIG_DOC, channels={"ChatA": "", "Email": "out"})
        with pytest.raises(ConfigError) as err:
            parse_team_config(doc)
        assert err.value.errors == ["channels: endpoint for ChatA is empty"]

    def test_webhook_urls_with_a_host_load(self):
        channels = {"ChatA": "https://hooks.example/a",
                    "ChatB": "http://127.0.0.1:8080/b", "Email": "out/mail"}
        cfg = parse_team_config(dict(CONFIG_DOC, channels=channels))
        assert cfg.binding.endpoints[Channel.CHAT_B] == channels["ChatB"]

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b'{"max_retries": 1' + b"0" * 5000 + b"}"])
    def test_undecodable_file_is_config_error(self, tmp_path, content):
        path = tmp_path / "team.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as err:
            load_team_config(path)
        assert "invalid JSON" in str(err.value)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)

#: Every place in a team config that holds a value of its own.
CONFIG_PATHS = [
    (), ("team_id",), ("board_id",), ("roster",), ("roster", 0),
    ("roster", 0, "id"), ("roster", 1, "leaves"), ("roster", 1, "leaves", 0),
    ("roster", 2, "joined_at"), ("roster", 2, "separated_at"),
    ("channels",), ("channels", "ChatA"), ("review_channel",), ("policy",),
    ("thresholds",), ("thresholds", "stuck_hours"),
    ("thresholds", "stuck_hours", "Blocked"),
    ("thresholds", "sla_warning_fraction"),
    ("thresholds", "reminder_period_hours"), ("expertise",),
    ("expertise", "skills"), ("expertise", "skills", "e1"),
    ("expertise", "labels"), ("expertise", "labels", "net"),
    ("cycle_period_minutes",), ("max_retries",),
]


@st.composite
def config_documents(draw):
    """A valid team config with one to three values, at any depth,
    replaced by arbitrary JSON."""
    doc = copy.deepcopy(dict(
        CONFIG_DOC, max_retries=3,
        expertise={"skills": {"e1": ["net"]}, "labels": {"net": "net"}}))
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1,
                              max_size=3)):
        value = draw(JSON)
        if not path:
            return value
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed the parent
    return doc


@given(doc=JSON | config_documents())
def test_any_json_parses_or_raises_config_error(doc):
    try:
        config = parse_team_config(doc)
    except ConfigError:
        return
    assert isinstance(config, TeamConfig)


class TestPoll:
    def test_filters_unassigned_backlog(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r2", at(0, seconds=30))
        runtime.run_cycle(at(1))
        runtime.inject_ticket("T1-3", "r3", at(2))
        pending = poll_new_unassigned(runtime.snapshot)
        assert [t.id for t in pending] == ["T1-3"]

    def test_same_second_orders_by_id(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-b", "r1", at(0))
        runtime.inject_ticket("T1-a", "r1", at(0))
        assert [t.id for t in poll_new_unassigned(runtime.snapshot)] == \
            ["T1-a", "T1-b"]

    def test_empty_board(self, memory_runtime):
        assert poll_new_unassigned(memory_runtime().snapshot) == []


class TestRunCycle:
    def test_three_tickets_three_engineers(self, memory_runtime):
        runtime = memory_runtime()
        for i in range(1, 4):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        report = runtime.run_cycle(at(1))
        assert report.assigned == 3
        assert report.assignments == [("T1-1", "e1"), ("T1-2", "e2"),
                                      ("T1-3", "e3")]
        assert runtime.snapshot.cursor_position == 0
        announced = [m for m in runtime.memory_sink.delivered
                     if m["kind"] == "Assignment"]
        assert len(announced) == 3

    def test_an_empty_backlog_polls_nothing(self, memory_runtime,
                                            monkeypatch):
        polls = []

        def counted_poll(snapshot):
            polls.append(snapshot)
            return poll_new_unassigned(snapshot)

        monkeypatch.setattr(board, "poll_new_unassigned", counted_poll)
        runtime = memory_runtime()
        assert runtime.run_cycle(at(1)) == CycleReport(now=at(1))
        runtime.inject_ticket("T1-1", "r1", at(2))
        assert runtime.run_cycle(at(3)).assigned == 1
        assert runtime.run_cycle(at(4)) == CycleReport(now=at(4))
        assert len(polls) == 1

    def test_each_record_takes_its_instant_from_its_announcement(
            self, memory_runtime, monkeypatch):
        renders = Counter()

        def counted_iso(instant):
            renders[instant] += 1
            return timeutil.iso(instant)

        monkeypatch.setattr(board, "iso", counted_iso)
        monkeypatch.setattr(notify, "iso", counted_iso)
        runtime = memory_runtime()
        for i in range(1, 4):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        renders.clear()
        assert runtime.run_cycle(at(1)).assigned == 3
        # Once per announcement and once for the delivery records.
        assert dict(renders) == {at(1): 4}
        renders.clear()
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        assert dict(renders) == {at(2): 1}
        renders.clear()
        runtime.reassign_ticket("T1-2", "e3", at(3))
        assert dict(renders) == {at(3): 1}
        announcing = [e for e in runtime.log.events
                      if e["kind"] in ("Assigned", "Reassigned",
                                       "Transitioned")]
        assert len(announcing) == 5
        assert all(e["ts"] == e["messages"][0]["ts"] for e in announcing)

    def test_blocked_ticket_past_threshold_reminds(self, memory_runtime):
        cfg = team_config(thresholds=ThresholdPolicy(team_id="team1"))
        runtime = memory_runtime(cfg)
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        runtime.apply_external_transition(
            "T1-1", WorkflowState.BLOCKED, at(3), "e1")
        report = runtime.run_cycle(at(3 + 73))
        assert report.reminders_sent >= 1
        remind_msgs = [m for m in runtime.memory_sink.delivered
                       if m["kind"] == "StuckState"]
        # fan-out to all enabled channels of the binding
        assert len(remind_msgs) == len(cfg.binding.endpoints)

    @pytest.mark.parametrize("by_hand", [False, True],
                             ids=["cycle", "command"])
    def test_ticket_assigned_this_cycle_not_reminded(self, memory_runtime,
                                                     by_hand):
        # Assigned by the cycle, or by a command at the cycle's instant.
        cfg = team_config(
            policy="Manual" if by_hand else "RoundRobin",
            thresholds=ThresholdPolicy(
                team_id="team1",
                stuck_hours={WorkflowState.BACKLOG: 1,
                             WorkflowState.BLOCKED: 1,
                             WorkflowState.READY_TO_START: 1,
                             WorkflowState.WORK_IN_PROGRESS: 1,
                             WorkflowState.READY_FOR_REVIEW: 1}))
        runtime = memory_runtime(cfg)
        runtime.inject_ticket("T1-1", "r1", at(0))
        if by_hand:
            runtime.reassign_ticket("T1-1", "e2", at(5))
        report = runtime.run_cycle(at(5))
        assert report.assigned == (0 if by_hand else 1)
        assert report.reminders_sent == 0
        # Skipped once, not dropped: the next cycle reminds it.
        assert runtime.run_cycle(at(6)).reminders_sent == 1

    def test_empty_pool_reports_pending(self, memory_runtime):
        from dispatchbot.roster import EngineerRoster
        cfg = team_config()
        cfg.roster = EngineerRoster("team1", [])
        runtime = memory_runtime(cfg)
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r1", at(0, seconds=1))
        report = runtime.run_cycle(at(1))
        assert report.assigned == 0
        assert report.unassigned_pending == 2
        assert report.empty_pool

    def test_manual_cycle_leaves_the_backlog_pending(self, memory_runtime):
        runtime = memory_runtime(team_config(policy="Manual"))
        for i in (1, 2, 3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        report = runtime.run_cycle(at(2))
        assert (report.assigned, report.unassigned_pending) == (0, 3)
        assert report.assignments == [] and not report.empty_pool
        runtime.reassign_ticket("T1-2", "e1", at(3))
        report = runtime.run_cycle(at(3))
        assert (report.assigned, report.unassigned_pending) == (0, 2)
        assert [e["kind"] for e in runtime.log.events] == \
            ["Created"] * 3 + ["Assigned", "MessageDelivered"]

    def test_cycle_idempotence(self, memory_runtime):
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1")))
        runtime.inject_ticket("T1-1", "r1", at(0))
        # first cycle assigns (reminders deferred for just-assigned tickets),
        # second catches up the reminder ledger; from then on the same `now`
        # produces no new work
        runtime.run_cycle(at(200))
        runtime.run_cycle(at(200))
        before = len(runtime.log.events)
        report = runtime.run_cycle(at(200))
        new = runtime.log.events[before:]
        assert report.assigned == 0
        assert report.reminders_sent == 0
        assert all(e["kind"] == "MessageDelivered" for e in new) or not new

    def test_crash_safety_no_double_assign(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        # crash after the Assigned event: rebuild from a truncated log and
        # rerun the same cycle
        events = runtime.log.events
        cut = max(i for i, e in enumerate(events)
                  if e["kind"] == "Assigned") + 1
        log = EventLog()
        log.append(events[:cut])
        sink = MemorySink()
        cfg = team_config()
        revived = BoardRuntime(cfg, log=log,
                               sinks={c: sink for c in cfg.binding.endpoints})
        report = revived.run_cycle(at(1))
        assert report.assigned == 0
        assigned_events = [e for e in revived.log.events
                           if e["kind"] == "Assigned"]
        assert len(assigned_events) == 1

    def test_reassign_emits_event_and_announcement(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        decision = runtime.reassign_ticket("T1-1", "e3", at(2))
        assert decision.policy == "Manual"
        assert runtime.snapshot.tickets["T1-1"].assignee == "e3"
        runtime.run_cycle(at(3))
        texts = [m["text"] for m in runtime.memory_sink.delivered]
        assert any("[Manual]" in t for t in texts)

    def test_live_equals_replay(self, memory_runtime):
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1")))
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        runtime.run_cycle(at(130))
        assert replay(runtime.log.events) == runtime.snapshot


class FlakySink(MemorySink):
    """Fails every third message once (retried later) and rejects every
    fifth message for good."""

    def __init__(self):
        super().__init__()
        self.attempts: dict[str, int] = {}

    def deliver(self, wire, line):
        msg_id = wire["msg_id"]
        tries = self.attempts[msg_id] = self.attempts.get(msg_id, 0) + 1
        if int(msg_id[1:]) % 5 == 0:
            raise PayloadRejected("schema mismatch")
        if int(msg_id[1:]) % 3 == 0 and tries == 1:
            raise SinkUnreachable("connection reset")
        super().deliver(wire, line)


def delivery_records(runtime):
    return [e for e in runtime.log.events if e["kind"] == "MessageDelivered"]


def settles(record):
    return record["state"] == STATE_DELIVERED or record["terminal"]


def test_each_sink_closed_once_per_flush(memory_runtime):
    """Sinks assigned after construction are the ones closed, each once
    at the end of a flush, however many channels share it."""
    closed = []

    class ClosingSink(MemorySink):
        def close(self):
            closed.append(self)

    runtime = memory_runtime()
    shared = ClosingSink()
    runtime.sinks = {c: shared for c in runtime.sinks}
    runtime.sinks[Channel.EMAIL] = MemorySink()
    runtime.inject_ticket("T1-1", "r1", at(0))
    runtime.run_cycle(at(1))
    assert closed == [shared] and len(shared.delivered) == 1
    runtime.run_cycle(at(2))  # nothing pending: no flush, no close
    assert closed == [shared]


class NamedClose(MemorySink):
    """Notes its name in `closed` when closed; raises if `broken`."""

    def __init__(self, name, closed, broken=False):
        super().__init__()
        self.name, self.closed, self.broken = name, closed, broken

    def close(self):
        self.closed.append(self.name)
        if self.broken:
            raise RuntimeError(f"close bug in {self.name}")


@pytest.mark.parametrize("broken", [None, 0, 17, 63])
def test_sinks_closed_in_first_appearance_order(memory_runtime, broken):
    """Many sinks, some under several keys, are each closed once per
    flush in the order they first appear among the board's sinks, so a
    close that raises always leaves the same sinks closed before it."""
    closed = []
    sinks = [NamedClose(n, closed) for n in range(64)]
    # The channels share sink 40; the other keys hold sinks that no
    # message reaches, each under several keys.
    keys = {Channel.CHAT_A: 40, Channel.CHAT_B: 3, Channel.EMAIL: 40}
    keys.update((f"spare{i}", i * 37 % 64) for i in range(128))
    order = list(dict.fromkeys([40, 3] + [i * 37 % 64 for i in range(128)]))
    assert len(order) == 64
    if broken is not None:
        sinks[order[broken]].broken = True
    runtime = memory_runtime()
    runtime.sinks = {key: sinks[n] for key, n in keys.items()}
    runtime.inject_ticket("T1-1", "r1", at(0))
    if broken is None:
        assert runtime.run_cycle(at(1)).messages_delivered == 1
        assert closed == order
    else:
        with pytest.raises(RuntimeError, match=f"in {order[broken]}$"):
            runtime.run_cycle(at(1))
        assert closed == order[:broken + 1]
        assert delivery_records(runtime) == []
    assert replay(runtime.log.events) == runtime.snapshot


def test_ids_a_close_returns_are_failed_attempts(memory_runtime):
    """Each msg id a sink's `close` returns counts as a transient failure
    of that message, under the one retry rule; `None` means none."""

    class UnwrittenSink(MemorySink):
        def __init__(self, unwritten):
            super().__init__()
            self.unwritten = unwritten

        def close(self):
            return self.unwritten.pop(0) if self.unwritten else None

    runtime = memory_runtime()  # max_retries 3
    sink = UnwrittenSink([["m000001"], ["m000001", "m000002"]])
    runtime.sinks = {c: sink for c in runtime.sinks}
    runtime.inject_ticket("T1-1", "r1", at(0))
    outcomes = []
    for hour in (1, 2, 3):
        report = runtime.run_cycle(at(hour))
        outcomes.append((report.messages_delivered, report.messages_failed))
        assert replay(runtime.log.events) == runtime.snapshot
    # m000002 was never attempted: a sink cannot fail a message it was
    # not handed this flush.
    assert outcomes == [(0, 1), (0, 1), (1, 0)]
    assert [(e["state"], e["retries"], e["terminal"])
            for e in delivery_records(runtime)] == [
        ("Failed", 1, False), ("Failed", 2, False), ("Delivered", 2, False)]


def test_a_raising_close_settles_nothing(memory_runtime):
    """When a sink's `close` raises, whether it wrote its messages is
    unknown: the flush logs no delivery and every message stays pending,
    to be attempted again."""

    class BrokenClose(MemorySink):
        def close(self):
            raise RuntimeError("close bug")

    runtime = memory_runtime()
    runtime.sinks = {c: BrokenClose() for c in runtime.sinks}
    runtime.inject_ticket("T1-1", "r1", at(0))
    with pytest.raises(RuntimeError):
        runtime.run_cycle(at(1))
    assert delivery_records(runtime) == []
    assert list(runtime.snapshot.outbox) == ["m000001"]
    assert replay(runtime.log.events) == runtime.snapshot
    sink = MemorySink()
    runtime.sinks = {c: sink for c in runtime.sinks}
    assert runtime.run_cycle(at(2)).messages_delivered == 1
    assert [w["msg_id"] for w in sink.delivered] == ["m000001"]


class TestPendingOutbox:
    def test_tracks_undelivered_messages_in_outbox_order(self,
                                                         memory_runtime):
        """The outbox holds exactly the messages that no delivery record
        has settled, in commit order, and `settled` counts the settling
        records per (channel, state), live and on replay."""
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1",
                                       reminder_period_hours=2)))
        sink = FlakySink()
        runtime.sinks = {c: sink for c in runtime.sinks}
        pending_seen = 0
        for hour in range(0, 240, 6):
            runtime.inject_ticket(f"T1-{hour}", "r1", at(hour))
            if hour % 24 == 6:
                runtime.apply_external_transition(
                    f"T1-{hour - 6}", WorkflowState.WORK_IN_PROGRESS,
                    at(hour), "e1")
            runtime.run_cycle(at(hour + 1))
            channels = {wire["msg_id"]: CHANNEL_BY_VALUE[wire["channel"]]
                        for event in runtime.log.events
                        for wire in event.get("messages", ())}
            last = {r["msg_id"]: r for r in delivery_records(runtime)}
            expected = [m for m in channels
                        if m not in last or not settles(last[m])]
            settled = Counter((channels[r["msg_id"]], r["state"])
                              for r in delivery_records(runtime)
                              if settles(r))
            snapshot = runtime.snapshot
            rebuilt = replay(runtime.log.events)
            assert list(snapshot.outbox) == list(rebuilt.outbox) == expected
            assert snapshot.settled == rebuilt.settled == settled
            # A pending message is Failed exactly when it has retries.
            assert snapshot.retries == rebuilt.retries == {
                m: last[m]["retries"] for m in expected if m in last}
            pending_seen += len(expected)
        assert pending_seen
        records = delivery_records(runtime)
        assert any(r["terminal"] for r in records)
        assert any(r["retries"] and r["state"] == STATE_DELIVERED
                   for r in records)


def assert_nothing_due(runtime, report):
    """A full scan finds nothing the cycle's scheduled visits left due."""
    snapshot = runtime.snapshot
    assigned_now = {tid for tid, _ in report.assignments}
    tickets = [snapshot.tickets[tid]
               for tid in sorted(snapshot.open_tickets - assigned_now)]
    assert due_reminders(tickets, report.now, runtime.config.thresholds,
                         snapshot.reminder_ledger) == []


#: The scripted board's next move for a ticket in each state.
NEXT_STATE = {WorkflowState.BACKLOG: WorkflowState.WORK_IN_PROGRESS,
              WorkflowState.WORK_IN_PROGRESS: WorkflowState.BLOCKED,
              WorkflowState.BLOCKED: WorkflowState.DONE}


def scripted_commands(runtime, hour):
    """The board's commands in `hour`: a ticket arrives (every fourth
    High priority, deadlines 6-10 h out) and, by a fixed rule on ticket
    number and hour, tickets move on, finish or are reopened."""
    runtime.inject_ticket(
        f"T1-{hour:03d}", "r1", at(hour),
        priority="High" if hour % 4 == 0 else "Medium",
        sla_deadline=at(hour + 6 + hour % 5))
    for tid, ticket in sorted(runtime.snapshot.tickets.items()):
        if (int(tid[3:]) + hour) % 7:
            continue
        if ticket.state is WorkflowState.DONE:
            runtime.reopen_ticket(tid, ReopenMode.TO_BACKLOG,
                                  at(hour, seconds=1))
        elif ticket.assignee and ticket.state in NEXT_STATE:
            runtime.apply_external_transition(
                tid, NEXT_STATE[ticket.state], at(hour, seconds=1),
                ticket.assignee)


def derived_indexes(snapshot):
    """The snapshot's derived indexes, which snapshot equality ignores."""
    return (snapshot.open_tickets, snapshot.unassigned_backlog,
            snapshot.fresh_assignments)


def scripted_hours(runtime, hours):
    """Drive a board hour by hour through `scripted_commands`, with a
    cycle at the end of each hour. Checks the schedule, and the derived
    indexes against replay, after every cycle."""
    for hour in hours:
        scripted_commands(runtime, hour)
        assert_nothing_due(runtime, runtime.run_cycle(at(hour, seconds=2)))
        assert derived_indexes(runtime.snapshot) == \
            derived_indexes(replay(runtime.log.events))


def scripted_config():
    return team_config(thresholds=ThresholdPolicy(
        team_id="team1",
        stuck_hours={state: 3.0 for state in DEFAULT_STUCK_HOURS},
        reminder_period_hours=2))


class TestReminderSchedule:
    def test_nothing_due_after_any_cycle_of_an_overload_run(self,
                                                            monkeypatch):
        # Each cycle also evaluates each ticket it hands to
        # `due_reminders` exactly once: its due reminders and its next
        # boundary come from one pass.
        inner = BoardRuntime.run_cycle
        sent = []
        scanned = self.spy(monkeypatch)
        evaluate = reminders._evaluate
        evaluated = Counter()

        def counting(ticket, now, policy, entry=None):
            evaluated[ticket.id] += 1
            return evaluate(ticket, now, policy, entry)

        def run_cycle(runtime, now):
            scanned.clear()
            evaluated.clear()
            report = inner(runtime, now)
            assert evaluated == Counter(tid for ids in scanned for tid in ids)
            assert_nothing_due(runtime, report)
            sent.append(report.reminders_sent)
            return report

        monkeypatch.setattr(reminders, "_evaluate", counting)
        monkeypatch.setattr(BoardRuntime, "run_cycle", run_cycle)
        run_simulation(SimConfig(
            seed=5, horizon_days=3, arrival_rate=16, roster_size=2,
            service_median_hours=(5.0, 5.0), service_sigma=0.0,
            reassign_prob=0.2, reminders_enabled=True,
            stuck_threshold_hours=8, reminder_period_hours=2,
            cycle_period_hours=1))
        assert sum(sent) > 100

    def test_nothing_due_after_any_cycle_of_a_flaky_sink_run(
            self, memory_runtime):
        runtime = memory_runtime(scripted_config())
        runtime.sinks = {c: FlakySink() for c in runtime.sinks}
        scripted_hours(runtime, range(60))
        kinds = {e["reminder_kind"] for e in runtime.log.events
                 if e["kind"] == "ReminderSent"}
        assert kinds == {"StuckState", "SlaImminent", "SlaBreached"}
        assert any(r["terminal"] for r in delivery_records(runtime))

    def test_restart_mid_run_writes_the_same_log(self, memory_runtime):
        straight = memory_runtime(scripted_config())
        scripted_hours(straight, range(60))

        first = memory_runtime(scripted_config())
        scripted_hours(first, range(30))
        log = EventLog()
        log.append(list(first.log.events))
        revived = BoardRuntime(first.config, log=log, sinks=first.sinks)
        scripted_hours(revived, range(30, 60))

        assert [encode_event(e) for e in revived.log.events] == \
            [encode_event(e) for e in straight.log.events]

    def spy(self, monkeypatch):
        """Record the ticket ids each cycle hands to `due_reminders`."""
        scanned = []

        def due(tickets, now, policy, ledger, *, triggers=None):
            scanned.append([t.id for t in tickets])
            return due_reminders(tickets, now, policy, ledger,
                                 triggers=triggers)

        monkeypatch.setattr(board, "due_reminders", due)
        return scanned

    def test_due_reminders_gets_the_visited_tickets_and_returns_the_sent(
            self, memory_runtime, monkeypatch):
        # The benchmark's tracer counts `len(args[0])` of each call as the
        # tickets scanned and `len(result)` as the reminders emitted.
        calls = []

        def due(*args, **kwargs):
            result = due_reminders(*args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(board, "due_reminders", due)
        runtime = memory_runtime(scripted_config())
        scanned = emitted = 0
        for hour in range(30):
            scripted_commands(runtime, hour)
            report = runtime.run_cycle(at(hour, seconds=2))
            [(args, result)] = calls
            calls.clear()
            tickets = args[0]
            assert [runtime.snapshot.tickets[t.id] for t in tickets] == \
                list(tickets)
            assert type(result) is list and all(
                isinstance(r, Reminder) for r in result)
            assert len(result) == report.reminders_sent
            scanned += len(tickets)
            emitted += len(result)
        assert scanned and emitted

    def test_visited_after_the_boundary_not_at_it(self, memory_runtime,
                                                   monkeypatch):
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1")))
        scanned = self.spy(monkeypatch)
        tids = ["T1-1", "T1-2", "T1-3", "T1-4"]
        for tid in tids:
            runtime.inject_ticket(tid, "r1", at(0), sla_deadline=at(1000))
        runtime.run_cycle(at(1))  # assigned: skipped, visited next cycle
        for tid in tids:
            runtime.apply_external_transition(
                tid, WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
            runtime.apply_external_transition(
                tid, WorkflowState.BLOCKED, at(3), "e1")
        runtime.run_cycle(at(4))
        # Between cycles T1-2 changes hands, which leaves its boundary
        # where it was, T1-3 closes before its boundary passes, and T1-4
        # goes back to work, which moves its boundary past the old one.
        runtime.reassign_ticket("T1-2", "e3", at(5))
        runtime.apply_external_transition(
            "T1-3", WorkflowState.DONE, at(5), "e1")
        runtime.apply_external_transition(
            "T1-4", WorkflowState.WORK_IN_PROGRESS, at(5), "e1")
        runtime.run_cycle(at(6))
        # Blocked for 72 h: the stuck stream's boundary is at(3 + 72).
        assert runtime.run_cycle(at(3 + 72)).reminders_sent == 0
        assert runtime.run_cycle(at(3 + 72, seconds=1)).reminders_sent == 2
        runtime.run_cycle(at(3 + 72, seconds=2))
        assert scanned == [[], tids, ["T1-2", "T1-4"], [], ["T1-1", "T1-2"],
                           []]

    def test_reopen_from_done_restarts_the_stuck_stream(self,
                                                        memory_runtime,
                                                        monkeypatch):
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1")))
        scanned = self.spy(monkeypatch)
        runtime.inject_ticket("T1-1", "r1", at(0), sla_deadline=at(1000))
        runtime.run_cycle(at(1))
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        runtime.apply_external_transition(
            "T1-1", WorkflowState.DONE, at(3), "e1")
        runtime.run_cycle(at(4))
        assert runtime.run_cycle(at(500)).reminders_sent == 0
        runtime.reopen_ticket("T1-1", ReopenMode.TO_SAME_ENGINEER, at(600))
        runtime.run_cycle(at(601))
        # Back in progress at(600): stuck past 120 h, SLA warning at(800).
        assert runtime.run_cycle(at(720)).reminders_sent == 0
        assert runtime.run_cycle(at(720, seconds=1)).reminders_sent == 1
        assert scanned == [[], [], [], ["T1-1"], [], ["T1-1"]]
        [sent] = [e for e in runtime.log.events
                  if e["kind"] == "ReminderSent"]
        assert (sent["reminder_kind"], sent["index"]) == ("StuckState", 1)


def file_log_runtime(path):
    """A board whose log is the file at `path`, with a memory sink."""
    sink = MemorySink()
    config = team_config()
    return BoardRuntime(config, log=EventLog(path),
                        sinks={c: sink for c in config.binding.endpoints})


def assert_lines_pending(runtime) -> None:
    """The log keeps a line only for a message that is still pending."""
    assert set(runtime.log.lines) <= set(runtime.snapshot.outbox)


def log_bytes(runtime) -> bytes:
    runtime.log.close()  # the next append reopens the file
    return runtime.log.path.read_bytes()


def test_a_cycle_hands_the_log_to_a_second_reader(tmp_path):
    path = tmp_path / "T1.events.ndjson"
    runtime = file_log_runtime(path)
    with runtime.log:
        for i in range(1, 4):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0, seconds=i))
        runtime.run_cycle(at(1))
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        runtime.run_cycle(at(3))
        assert len(runtime.log.events) == 11
        assert read_event_log(path) == runtime.log.events


def test_a_live_board_parses_none_of_the_instants_it_renders(
        tmp_path, monkeypatch):
    """The fold reads every timestamp the runtime has just rendered back
    from the codec's memo: no command or cycle calls the parser."""
    parse, parsed = timeutil._parse_ts, []

    def counted_parse(raw):
        parsed.append(raw)
        return parse(raw)

    monkeypatch.setattr(timeutil, "_parse_ts", counted_parse)
    clear_codec()  # every instant below is new to the codec
    path = tmp_path / "T1.events.ndjson"
    runtime = file_log_runtime(path)
    with runtime.log:
        runtime.inject_ticket("T1-1", "r1", at(0), sla_deadline=at(50))
        runtime.run_cycle(at(1))
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
    assert parsed == []
    assert [e["kind"] for e in runtime.log.events] == [
        "Created", "Assigned", "MessageDelivered", "Transitioned"]
    assert read_event_log(path) == runtime.log.events


class TestAtomicCommit:
    """A rejected command leaves the log, its file and the snapshot as
    they were, and the board keeps running."""

    @pytest.mark.parametrize("command, error", [
        (lambda runtime: runtime.apply_external_transition(
            "T1-1", WorkflowState.BLOCKED, at(2), "e1"), TransitionError),
        (lambda runtime: runtime.inject_ticket("T1-1", "r2", at(2)),
         DuplicateTicketError),
    ])
    def test_rejected_command_touches_nothing(self, tmp_path, command,
                                              error):
        runtime = file_log_runtime(tmp_path / "T1.events.ndjson")
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r1", at(0, seconds=1))
        runtime.run_cycle(at(1))
        runtime.reassign_ticket("T1-2", "e3", at(1, seconds=1))
        before, watermark = log_bytes(runtime), runtime.log.watermark
        ticket = runtime.snapshot.tickets["T1-1"]
        with pytest.raises(error):
            command(runtime)
        assert log_bytes(runtime) == before
        assert runtime.log.watermark == watermark
        assert runtime.snapshot.tickets["T1-1"] == ticket
        assert (ticket.assignee, ticket.reporter) == ("e1", "r1")
        assert replay(runtime.log.events) == runtime.snapshot

        runtime.inject_ticket("T1-3", "r1", at(3))
        report = runtime.run_cycle(at(4))
        assert report.assignments == [("T1-3", "e3")]
        # The rejected command's announcement took no message id.
        assert [r["msg_id"] for r in delivery_records(runtime)] == [
            f"m{i:06d}" for i in range(1, 5)]
        runtime.log.close()
        assert replay(read_event_log(runtime.log.path)) == runtime.snapshot
        assert replay(runtime.log.events) == runtime.snapshot

    def test_failed_append_leaves_live_state_with_the_log(self):
        class FailingLog(EventLog):
            fail = False

            def append(self, events):
                if self.fail:
                    self.fail = False
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().append(events)

        sink, config, log = MemorySink(), team_config(), FailingLog()
        runtime = BoardRuntime(
            config, log=log, sinks={c: sink for c in config.binding.endpoints})
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))
        log.fail = True
        with pytest.raises(OSError):
            runtime.inject_ticket("T1-2", "r1", at(2))
        assert "T1-2" not in runtime.snapshot.tickets
        assert replay(log.events) == runtime.snapshot
        assert not runtime.snapshot.unassigned_backlog

        log.fail = True
        with pytest.raises(OSError):
            runtime.apply_external_transition(
                "T1-1", WorkflowState.WORK_IN_PROGRESS, at(3), "e1")
        assert runtime.snapshot.tickets["T1-1"].state is WorkflowState.BACKLOG
        assert replay(log.events) == runtime.snapshot

        runtime.inject_ticket("T1-2", "r1", at(4))
        assert runtime.run_cycle(at(5)).assignments == [("T1-2", "e2")]
        assert replay(log.events) == runtime.snapshot


class CountingLog(EventLog):
    """An in-memory log that counts `append` calls; call number `fail_at`,
    counted from 1, raises OSError and writes nothing."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.fail_at = 0

    def append(self, events):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().append(events)


def rebuilt(runtime):
    """A board rebuilt from a copy of `runtime`'s log, as a restart would
    build it, with sinks of its own."""
    log, sink = EventLog(), MemorySink()
    log.append(list(runtime.log.events))
    return BoardRuntime(runtime.config, log=log,
                        sinks={c: sink for c in runtime.sinks})


@pytest.mark.parametrize("failing", ["assign", "later"])
def test_a_failed_append_keeps_the_hand_assignment_skip(failing):
    # The hand assignment's own append fails, or a later command's does:
    # either way the board rebuilds from the log, and its cycles send what
    # a board rebuilt from that log sends. After a later failure the 14:00
    # cycle still skips the ticket handed over at 14:00 and the next one
    # reminds; after the hand assignment's own failure the log holds no
    # assignment to skip.
    sink, log = MemorySink(), CountingLog()
    config = team_config(policy="Manual", thresholds=ThresholdPolicy(
        team_id="team1", stuck_hours={s: 1 for s in DEFAULT_STUCK_HOURS}))
    runtime = BoardRuntime(
        config, log=log, sinks={c: sink for c in config.binding.endpoints})
    runtime.inject_ticket("T1-1", "r1", at(0))
    if failing == "later":
        runtime.reassign_ticket("T1-1", "e2", at(5))
    log.fail_at = log.calls + 1
    with pytest.raises(OSError):
        if failing == "assign":
            runtime.reassign_ticket("T1-1", "e2", at(5))
        else:
            runtime.inject_ticket("T1-2", "r1", at(5))
    assert replay(log.events) == runtime.snapshot
    assert runtime.snapshot.tickets["T1-1"].assignee == (
        None if failing == "assign" else "e2")
    restarted = rebuilt(runtime)
    sent = [runtime.run_cycle(at(hour)).reminders_sent for hour in (5, 6)]
    assert sent == [restarted.run_cycle(at(hour)).reminders_sent
                    for hour in (5, 6)]
    if failing == "later":
        assert sent == [0, 1]


class BrokenSink(MemorySink):
    """Raises RuntimeError, a bug rather than a delivery failure, on its
    `fail_at`-th delivery attempt, counted from 1."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.attempts = 0

    def deliver(self, wire, line):
        self.attempts += 1
        if self.attempts == self.fail_at:
            raise RuntimeError("sink bug")
        super().deliver(wire, line)


class TestTornAppend:
    """A log write that fails partway, raising or short, is cut back: the
    file holds whole records only, replays to the live snapshot, and the
    next commit starts a line of its own."""

    @pytest.mark.parametrize("short", [False, True], ids=["raise", "short"])
    def test_a_write_failing_at_every_byte_offset(self, tmp_path, file_spy,
                                                  short):
        # Commit T1-1, its hand assignment (whose announcement stays
        # pending) and T1-2; tear T1-2's hand assignment after each of its
        # bytes in turn; commit T1-3. Each file replays to the rest, and
        # the log keeps a line only for the pending announcement.
        def commit_head(runtime):
            for command, args in (
                    (runtime.inject_ticket, ("T1-1", "r1", at(0))),
                    (runtime.reassign_ticket, ("T1-1", "e1", at(1))),
                    (runtime.inject_ticket, ("T1-2", "r1", at(2)))):
                command(*args)
                assert_lines_pending(runtime)

        clean = file_log_runtime(tmp_path / "clean.ndjson")
        with clean.log:
            commit_head(clean)
            clean.reassign_ticket("T1-2", "e2", at(3))
        *head, torn = (tmp_path / "clean.ndjson").read_bytes().splitlines(
            keepends=True)
        head = b"".join(head)
        for keep in range(len(torn)):
            path = tmp_path / f"torn-{keep}.ndjson"
            runtime = file_log_runtime(path)
            with runtime.log:
                commit_head(runtime)
                lines = dict(runtime.log.lines)
                assert list(lines) == ["m000001"]
                file_spy.fail(path.name, keep, short)
                with pytest.raises(OSError):
                    runtime.reassign_ticket("T1-2", "e2", at(3))
                file_spy.heal()
                assert runtime.log.lines == lines
                assert_lines_pending(runtime)
                assert path.read_bytes() == head
                assert replay(read_event_log(path)) == runtime.snapshot
                runtime.inject_ticket("T1-3", "r1", at(4))
                assert runtime.log.lines == lines
                assert_lines_pending(runtime)
            data = path.read_bytes()
            assert data.startswith(head) and data.count(b"\n") == 4
            records = read_event_log(path)
            assert [r["ticket"] for r in records] == ["T1-1", "T1-1", "T1-2",
                                                      "T1-3"]
            assert replay(records) == runtime.snapshot
        assert file_spy.leaked() == []

    def test_a_failed_cut_refuses_every_later_append(self, tmp_path,
                                                     file_spy):
        path = tmp_path / "T1.events.ndjson"
        runtime = file_log_runtime(path)
        with runtime.log:
            runtime.inject_ticket("T1-1", "r1", at(0))
            file_spy.fail(path.name, keep=0.5)
            file_spy.cut_fails.add(path.name)
            with pytest.raises(OSError):
                runtime.inject_ticket("T1-2", "r1", at(1))
            torn = path.read_bytes()
            file_spy.heal()
            for hour in (2, 3):
                with pytest.raises(OSError, match="could not be cut back"):
                    runtime.inject_ticket(f"T1-{hour}", "r1", at(hour))
            assert path.read_bytes() == torn
            assert replay(runtime.log.events) == runtime.snapshot
            assert set(runtime.snapshot.tickets) == {"T1-1"}
        assert file_spy.leaked() == []


def announced(events):
    """Every announced message's wire dict, in log order."""
    return [wire for event in events for wire in event.get("messages", ())]


class TestCycleAppend:
    """A cycle folds each record as it is made. It appends its assignment
    and reminder records in one call before any sink sees a message, and
    their delivery records in a second; each also when its phase raises."""

    @pytest.fixture
    def board(self):
        sink = MemorySink()
        config = scripted_config()
        return BoardRuntime(config, log=CountingLog(),
                            sinks={c: sink for c in config.binding.endpoints})

    def test_idle_cycle_appends_nothing_and_busy_cycle_twice(self, board):
        log = board.log
        board.run_cycle(at(0))
        assert log.calls == 0
        board.inject_ticket("T1-1", "r1", at(0))
        board.inject_ticket("T1-2", "r1", at(0, seconds=1))
        assert log.calls == 2
        report = board.run_cycle(at(1))
        # Two assignments in one call, then their two deliveries in one.
        assert report.assigned == report.messages_delivered == 2
        assert (log.calls, len(log.events)) == (4, 6)
        assert [e["kind"] for e in log.events[2:]] == \
            ["Assigned"] * 2 + ["MessageDelivered"] * 2
        board.run_cycle(at(2))
        assert log.calls == 4
        # Stuck after 3 h: one reminder per ticket to all three channels.
        report = board.run_cycle(at(4, seconds=1))
        assert report.reminders_sent == 2
        assert (log.calls, len(log.events)) == (6, 6 + 2 + 6)
        assert [e["seq"] for e in log.events] == list(range(1, 15))
        assert replay(log.events) == board.snapshot

    def test_a_sink_raising_mid_flush_logs_the_attempts_before_it(self):
        # The flush's second attempt raises: the first message's delivery
        # is still folded and logged, and the second stays pending.
        sink, config = BrokenSink(fail_at=2), team_config()
        runtime = BoardRuntime(
            config, log=CountingLog(),
            sinks={c: sink for c in config.binding.endpoints})
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r1", at(0, seconds=1))
        with pytest.raises(RuntimeError):
            runtime.run_cycle(at(1))
        assert [(e["msg_id"], e["state"]) for e in
                delivery_records(runtime)] == [("m000001", "Delivered")]
        assert list(runtime.snapshot.outbox) == ["m000002"]
        assert replay(runtime.log.events) == runtime.snapshot

    def test_an_assignment_a_raising_sink_never_offered_stays_skipped(self):
        # The 12:00 cycle assigns three tickets, and the sink raises on
        # the second announcement, so the third is never attempted. Both
        # tickets stay skipped at 13:00, while the first is reminded, and
        # a board rebuilt from the log before 13:00 writes the same records.
        config = team_config(thresholds=ThresholdPolicy(
            team_id="team1", stuck_hours={s: 1 for s in DEFAULT_STUCK_HOURS}))
        sink = BrokenSink(fail_at=2)
        runtime = BoardRuntime(
            config, log=CountingLog(),
            sinks={c: sink for c in config.binding.endpoints})
        for n in (1, 2, 3):
            runtime.inject_ticket(f"T1-{n}", "r1", at(0, seconds=n))
        with pytest.raises(RuntimeError):
            runtime.run_cycle(at(3))
        assert runtime.snapshot.fresh_assignments == {
            "m000002": "T1-2", "m000003": "T1-3"}
        restarted, start = rebuilt(runtime), len(runtime.log.events)

        def reminded():
            return [e["ticket"] for e in runtime.log.events[start:]
                    if e["kind"] == "ReminderSent"]

        for each in (runtime, restarted):
            each.run_cycle(at(4))
        assert reminded() == ["T1-1"]
        assert runtime.snapshot.fresh_assignments == {}
        for each in (runtime, restarted):
            each.run_cycle(at(5))
        assert reminded() == ["T1-1", "T1-2", "T1-3"]
        assert [encode_event(e) for e in restarted.log.events] == \
            [encode_event(e) for e in runtime.log.events]

    def test_a_rejected_delivery_fold_logs_only_the_folds_before_it(
            self, monkeypatch):
        # The flush's second delivery record is rejected where the flush
        # applies it: the first is applied and logged, the second is
        # neither.
        apply, folds = board.apply_event, []

        def second_delivery_rejected(snapshot, event, ts, msg_counter):
            if event["kind"] == "MessageDelivered":
                folds.append(event["msg_id"])
                if len(folds) == 2:
                    raise ValueError("rejected")
            apply(snapshot, event, ts, msg_counter)

        monkeypatch.setattr(board, "apply_event", second_delivery_rejected)
        sink, config = MemorySink(), team_config()
        runtime = BoardRuntime(
            config, log=CountingLog(),
            sinks={c: sink for c in config.binding.endpoints})
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.inject_ticket("T1-2", "r1", at(0, seconds=1))
        with pytest.raises(ValueError):
            runtime.run_cycle(at(1))
        assert [e["msg_id"] for e in delivery_records(runtime)] == \
            ["m000001"]
        assert list(runtime.snapshot.outbox) == ["m000002"]
        assert replay(runtime.log.events) == runtime.snapshot

    def test_a_failed_announcement_append_delivers_nothing(self):
        # The 10:00 cycle cannot log its assignment, so no sink may see
        # m000001 before the 11:00 cycle gives it its text.
        sink, config, log = MemorySink(), team_config(), CountingLog()
        runtime = BoardRuntime(
            config, log=log, sinks={c: sink for c in config.binding.endpoints})
        runtime.inject_ticket("T1-1", "r1", at(0))
        log.fail_at = log.calls + 1
        with pytest.raises(OSError):
            runtime.run_cycle(at(1))
        assert (sink.delivered, log.watermark) == ([], 1)
        assert replay(log.events) == runtime.snapshot
        runtime.run_cycle(at(2))
        assert [(w["msg_id"], w["text"]) for w in sink.delivered] == [
            ("m000001",
             "ASSIGNED T1-1 -> e1 [RoundRobin] at 2025-01-06T11:00:00Z")]

    def test_a_file_log_holds_each_announcement_before_its_delivery(
            self, tmp_path):
        path = tmp_path / "T1.events.ndjson"
        seen = []

        class Reader(MemorySink):
            """Reads the log file, as a second reader would, on delivery."""

            def deliver(self, wire, line):
                seen.append(wire["msg_id"] in {
                    w["msg_id"] for w in announced(read_event_log(path))})
                super().deliver(wire, line)

        sink, config = Reader(), scripted_config()
        runtime = BoardRuntime(
            config, log=EventLog(path),
            sinks={c: sink for c in config.binding.endpoints})
        with runtime.log:
            scripted_hours(runtime, range(8))
        kinds = {e["kind"] for e in runtime.log.events}
        assert {"Assigned", "ReminderSent"} <= kinds
        assert seen and all(seen)

    @given(fault=st.sampled_from(["sink", "announce", "deliver"]),
           fail_at=st.integers(1, 40), hours=st.integers(8, 14))
    def test_a_failed_cycle_leaves_live_state_with_the_log(
            self, fault, fail_at, hours):
        sink = BrokenSink(fail_at if fault == "sink" else 0)
        config = scripted_config()
        log = CountingLog()
        runtime = BoardRuntime(
            config, log=log, sinks={c: sink for c in config.binding.endpoints})
        failed = None
        for hour in range(hours):
            scripted_commands(runtime, hour)
            calls, start, taken = log.calls, len(log.events), len(sink.delivered)
            if fault != "sink" and hour == fail_at % hours:
                # Every scripted cycle assigns a ticket, so its first
                # append holds announcements and its second deliveries.
                log.fail_at = calls + (1 if fault == "announce" else 2)
            try:
                report = runtime.run_cycle(at(hour, seconds=2))
            except (RuntimeError, OSError) as exc:
                assert failed is None
                failed = exc
            else:
                assert_nothing_due(runtime, report)
            # Announcements first, then deliveries, one append each, and
            # every record folded before an error is in the log.
            delivery = [e["kind"] == "MessageDelivered"
                        for e in log.events[start:]]
            assert delivery == sorted(delivery)
            assert log.calls == calls + (False in delivery) + \
                (True in delivery) + (log.fail_at == log.calls > calls)
            assert replay(log.events) == runtime.snapshot
            if log.fail_at == log.calls > calls and fault == "announce":
                assert not delivery and len(sink.delivered) == taken
        if fault != "sink" or fail_at <= sink.attempts:
            assert isinstance(failed,
                              RuntimeError if fault == "sink" else OSError)
        # A last cycle with no new commands redelivers what is pending.
        sink.fail_at = 0
        assert_nothing_due(runtime, runtime.run_cycle(at(hours)))
        # The cycles after the failed one continued seq and message ids
        # without a gap and settled every message the log announces.
        assert [e["seq"] for e in log.events] == \
            list(range(1, len(log.events) + 1))
        wires = announced(log.events)
        assert [w["msg_id"] for w in wires] == \
            [f"m{n:06d}" for n in range(1, len(wires) + 1)]
        assert not runtime.snapshot.outbox
        # At least once, and every copy of a message the sink took is the
        # one the log announced: no id ever carried two texts.
        by_id = {w["msg_id"]: w for w in wires}
        assert sink.delivered and all(w == by_id[w["msg_id"]]
                                      for w in sink.delivered)
        assert {w["msg_id"]: w for w in sink.delivered} == by_id
        assert replay(log.events) == runtime.snapshot
