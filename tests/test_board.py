from __future__ import annotations

import json

import pytest

from dispatchbot.board import (
    BoardRuntime,
    ConfigError,
    load_team_config,
    parse_team_config,
    poll_new_unassigned,
)
from dispatchbot.eventlog import EventLog, replay
from dispatchbot.notify import (
    STATE_DELIVERED,
    Channel,
    MemorySink,
    PayloadRejected,
    SinkUnreachable,
)
from dispatchbot.reminders import ThresholdPolicy
from dispatchbot.workflow import WorkflowState

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
