from __future__ import annotations

import copy
import errno
import json

import pytest
from hypothesis import given, strategies as st

from dispatchbot import board
from dispatchbot.board import (
    BoardRuntime,
    ConfigError,
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
    STATE_DELIVERED,
    Channel,
    MemorySink,
    PayloadRejected,
    SinkUnreachable,
)
from dispatchbot.reminders import (
    DEFAULT_STUCK_HOURS,
    ThresholdPolicy,
    due_reminders,
)
from dispatchbot.sim import SimConfig, run_simulation
from dispatchbot.workflow import ReopenMode, TransitionError, WorkflowState

from .conftest import at, team_config

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
        assert cfg.roster.order == ["e1", "e2", "e3"]
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

    def test_ticket_assigned_this_cycle_not_reminded(self, memory_runtime):
        cfg = team_config(thresholds=ThresholdPolicy(
            team_id="team1",
            stuck_hours={WorkflowState.BACKLOG: 1,
                         WorkflowState.BLOCKED: 1,
                         WorkflowState.READY_TO_START: 1,
                         WorkflowState.WORK_IN_PROGRESS: 1,
                         WorkflowState.READY_FOR_REVIEW: 1}))
        runtime = memory_runtime(cfg)
        runtime.inject_ticket("T1-1", "r1", at(0))
        report = runtime.run_cycle(at(5))
        assert report.assigned == 1
        assert report.reminders_sent == 0

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

    def deliver(self, message):
        number = int(message.msg_id.lstrip("m"))
        tries = self.attempts[message.msg_id] = \
            self.attempts.get(message.msg_id, 0) + 1
        if number % 5 == 0:
            raise PayloadRejected("schema mismatch")
        if number % 3 == 0 and tries == 1:
            raise SinkUnreachable("connection reset")
        super().deliver(message)


class TestPendingOutbox:
    def test_tracks_undelivered_messages_in_outbox_order(self,
                                                         memory_runtime):
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
            snapshot = runtime.snapshot
            expected = [m.msg_id for m in snapshot.outbox.values()
                        if m.delivery_state != STATE_DELIVERED
                        and not m.terminal]
            assert list(snapshot.pending_outbox) == expected
            assert list(replay(runtime.log.events).pending_outbox) == expected
            pending_seen += len(expected)
        assert pending_seen
        outbox = runtime.snapshot.outbox.values()
        assert any(m.terminal for m in outbox)
        assert any(m.retries and m.delivery_state == STATE_DELIVERED
                   for m in outbox)


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


def scripted_hours(runtime, hours):
    """Drive a board hour by hour: a ticket arrives each hour (every
    fourth High priority, deadlines 6-10 h out) and, by a fixed rule on
    ticket number and hour, tickets move on, finish or are reopened.
    Checks the schedule after every cycle."""
    for hour in hours:
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
        assert_nothing_due(runtime, runtime.run_cycle(at(hour, seconds=2)))


def scripted_config():
    return team_config(thresholds=ThresholdPolicy(
        team_id="team1",
        stuck_hours={state: 3.0 for state in DEFAULT_STUCK_HOURS},
        reminder_period_hours=2))


class TestReminderSchedule:
    def test_nothing_due_after_any_cycle_of_an_overload_run(self,
                                                            monkeypatch):
        inner = BoardRuntime.run_cycle
        sent = []

        def run_cycle(runtime, now):
            report = inner(runtime, now)
            assert_nothing_due(runtime, report)
            sent.append(report.reminders_sent)
            return report

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
        assert any(m.terminal for m in runtime.snapshot.outbox.values())

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

        def due(tickets, now, policy, ledger):
            scanned.append([t.id for t in tickets])
            return due_reminders(tickets, now, policy, ledger)

        monkeypatch.setattr(board, "due_reminders", due)
        return scanned

    def test_visited_after_the_boundary_not_at_it(self, memory_runtime,
                                                   monkeypatch):
        runtime = memory_runtime(team_config(
            thresholds=ThresholdPolicy(team_id="team1")))
        scanned = self.spy(monkeypatch)
        runtime.inject_ticket("T1-1", "r1", at(0), sla_deadline=at(1000))
        runtime.run_cycle(at(1))  # assigned: skipped, visited next cycle
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        runtime.apply_external_transition(
            "T1-1", WorkflowState.BLOCKED, at(3), "e1")
        runtime.run_cycle(at(4))
        # Blocked for 72 h: the stuck stream's boundary is at(3 + 72).
        assert runtime.run_cycle(at(3 + 72)).reminders_sent == 0
        assert runtime.run_cycle(at(3 + 72, seconds=1)).reminders_sent == 1
        assert scanned == [[], ["T1-1"], [], ["T1-1"]]

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


def log_bytes(runtime) -> bytes:
    runtime.log.close()  # flush; the next append reopens the file
    return runtime.log.path.read_bytes()


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
        assert list(runtime.snapshot.outbox) == [
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
