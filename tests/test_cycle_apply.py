"""The records a cycle builds from its own state skip `fold_event`'s
shared checks and go straight to `apply_event`. What those checks guard
must then hold by construction: every record a cycle applies is one the
full fold accepts, and folding the log gives the live snapshot."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dispatchbot.assignment import (
    POLICY_EXPERTISE,
    POLICY_LEAST_OPEN,
    POLICY_MANUAL,
    POLICY_ROUND_ROBIN,
    ExpertiseProfile,
)
from dispatchbot.board import BoardRuntime, TeamConfig
from dispatchbot.eventlog import (
    BoardSnapshot,
    EventLog,
    fold_event,
    replay,
)
from dispatchbot.notify import Channel, PayloadRejected, SinkUnreachable
from dispatchbot.reminders import DEFAULT_STUCK_HOURS, ThresholdPolicy
from dispatchbot.timeutil import iso
from dispatchbot.workflow import (TRANSITIONS, ReopenMode, TransitionError,
                                  WorkflowState)

from .conftest import at, binding, roster, team_config

ENGINEERS = ("e1", "e2", "e3")
LABELS = ("db", "ui", "net")


class CyclingSink:
    """Takes, refuses (`SinkUnreachable`) or rejects (`PayloadRejected`)
    each message it is handed by a drawn script, in turn. Its `close`
    fails every `close_fails`-th message it took since the last close,
    when that is not 0."""

    def __init__(self, script: list, close_fails: int):
        self.script, self.close_fails = script, close_fails
        self.calls, self.taken = 0, []

    def deliver(self, wire: dict, line) -> None:
        outcome = self.script[self.calls % len(self.script)]
        self.calls += 1
        if outcome is not None:
            raise outcome("scripted")
        self.taken.append(wire["msg_id"])

    def close(self):
        taken, self.taken = self.taken, []
        return taken[::self.close_fails] if self.close_fails else None


@st.composite
def desks(draw) -> tuple[TeamConfig, dict]:
    """A team under any policy, with short reminder periods, and its sinks:
    a channel may have none, and each may fail messages."""
    policy = draw(st.sampled_from((POLICY_ROUND_ROBIN, POLICY_LEAST_OPEN,
                                   POLICY_EXPERTISE, POLICY_MANUAL)))
    engineers = ENGINEERS[:draw(st.integers(1, len(ENGINEERS)))]
    review = draw(st.sampled_from((Channel.CHAT_A, Channel.CHAT_B)))
    channels = {review} | draw(st.sets(st.sampled_from(list(Channel))))
    stuck = draw(st.floats(0.5, 4))
    thresholds = ThresholdPolicy(
        team_id="team1",
        stuck_hours={state: stuck for state in DEFAULT_STUCK_HOURS},
        sla_warning_fraction=draw(st.sampled_from((0.2, 0.5, 1.0))),
        reminder_period_hours=draw(st.floats(0.25, 3)))
    expertise = ExpertiseProfile(
        skills={eng: frozenset(draw(st.sets(st.sampled_from(LABELS))))
                for eng in engineers},
        label_tags={label: label for label in LABELS})
    config = TeamConfig(
        team_id="team1", board_id="T1", roster=roster(*engineers),
        binding=binding(channels=tuple(channels), review=review),
        policy=policy, thresholds=thresholds, expertise=expertise,
        max_retries=draw(st.integers(0, 3)))
    outcomes = st.sampled_from((None, None, SinkUnreachable, PayloadRejected))
    sinks = {}
    for channel in sorted(channels):
        if draw(st.integers(0, 5)):  # one channel in six has no sink
            sinks[channel] = CyclingSink(
                draw(st.lists(outcomes, min_size=1, max_size=4)),
                draw(st.integers(0, 3)))
    return config, sinks


def board_commands(data, runtime: BoardRuntime, hour: int) -> None:
    """Drawn commands at `hour`: new tickets, moves on the board, reopens
    and hand assignments and reassignments."""
    tickets = runtime.snapshot.tickets
    for _ in range(data.draw(st.integers(0, 3))):
        sla = data.draw(st.none() | st.integers(1, 8))
        runtime.inject_ticket(
            f"T1-{len(tickets) + 1}", "r1", at(hour),
            priority=data.draw(st.sampled_from(("Low", "Medium", "High"))),
            sla_deadline=None if sla is None else at(hour + sla),
            labels=tuple(data.draw(st.sets(st.sampled_from(LABELS)))))
    for second in range(1, 1 + data.draw(st.integers(0, 4))):
        if not tickets:
            break
        tid = data.draw(st.sampled_from(sorted(tickets)))
        ticket, when = tickets[tid], at(hour, seconds=second)
        try:
            if ticket.state is WorkflowState.DONE:
                runtime.reopen_ticket(
                    tid, data.draw(st.sampled_from(list(ReopenMode))), when)
            elif data.draw(st.booleans()):
                engineers = ENGINEERS[:len(runtime.config.roster)]
                runtime.reassign_ticket(
                    tid, data.draw(st.sampled_from(engineers)), when)
            else:
                runtime.apply_external_transition(
                    tid, data.draw(st.sampled_from(
                        sorted(TRANSITIONS[ticket.state]))), when, "someone")
        except TransitionError:
            pass  # a state that needs an assignee: nothing changed


def indexes(snapshot: BoardSnapshot):
    return (snapshot.open_tickets, snapshot.unassigned_backlog,
            snapshot.fresh_assignments)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(desk=desks(), data=st.data())
def test_the_full_fold_accepts_every_record_a_cycle_applies(desk, data):
    config, sinks = desk
    runtime = BoardRuntime(config, log=EventLog(), sinks=sinks)
    twin, hour = BoardSnapshot(config.board_id), 0
    for _ in range(data.draw(st.integers(1, 8))):
        hour += data.draw(st.integers(1, 3))
        board_commands(data, runtime, hour)
        runtime.run_cycle(at(hour, seconds=30))
        # Every record, the cycle's own included, through the full fold.
        for event in runtime.log.events[twin.watermark:]:
            fold_event(twin, event)
        assert twin == runtime.snapshot
        assert indexes(twin) == indexes(runtime.snapshot)


class TestMessageIdBound:
    """An id past the 18 digits the fold accepts raises where it is
    drawn, before any record holds it: a logged record never carries an
    id that replay would refuse."""

    @staticmethod
    def board(last_id: str) -> BoardRuntime:
        """A RoundRobin board with reminders whose last message id is
        `last_id`: T1-1 is assigned and stuck, T1-2 is unassigned."""
        ts = iso(at(0))
        wire = {"msg_id": last_id, "team": "team1", "channel": "ChatA",
                "kind": "Assignment", "ticket": "T1-1", "text": "by hand",
                "ts": ts}
        log = EventLog()
        log.append([
            {"seq": 1, "ts": ts, "board": "T1", "kind": "Created",
             "ticket": "T1-1", "reporter": "r1"},
            {"seq": 2, "ts": ts, "board": "T1", "kind": "Created",
             "ticket": "T1-2", "reporter": "r1"},
            {"seq": 3, "ts": ts, "board": "T1", "kind": "Reassigned",
             "ticket": "T1-1", "engineer": "e1", "from_engineer": None,
             "messages": [wire]},
            {"seq": 4, "ts": ts, "board": "T1", "kind": "MessageDelivered",
             "msg_id": last_id, "state": "Delivered", "retries": 0,
             "terminal": False},
        ])
        config = team_config(thresholds=ThresholdPolicy(
            team_id="team1",
            stuck_hours={state: 1 for state in DEFAULT_STUCK_HOURS}))
        return BoardRuntime(config, log=log, sinks={})

    @pytest.fixture
    def runtime(self):
        runtime = self.board("m" + "9" * 18)
        assert runtime.snapshot.msg_counter == 10 ** 18 - 1
        return runtime

    def assert_unchanged(self, runtime):
        assert runtime.log.watermark == 4
        assert runtime.snapshot.msg_counter == 10 ** 18 - 1
        assert replay(runtime.log.events) == runtime.snapshot

    def test_a_cycle_assigning_raises_before_any_record(self, runtime):
        with pytest.raises(OverflowError, match="m999999999999999999"):
            runtime.run_cycle(at(2))
        self.assert_unchanged(runtime)

    def test_a_cycle_reminding_raises_before_any_record(self, runtime):
        runtime.config.policy = POLICY_MANUAL  # no assignment draws first
        with pytest.raises(OverflowError):
            runtime.run_cycle(at(2))
        self.assert_unchanged(runtime)

    def test_a_command_raises_before_its_record(self, runtime):
        with pytest.raises(OverflowError):
            runtime.reassign_ticket("T1-2", "e2", at(2))
        with pytest.raises(OverflowError):
            runtime.apply_external_transition(
                "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        self.assert_unchanged(runtime)

    def test_the_last_id_the_fold_accepts_is_drawn(self):
        runtime = self.board("m" + "9" * 17 + "8")
        runtime.reassign_ticket("T1-2", "e2", at(2))
        [wire] = runtime.log.events[-1]["messages"]
        assert wire["msg_id"] == "m" + "9" * 18
        assert replay(runtime.log.events) == runtime.snapshot
        with pytest.raises(OverflowError):
            runtime.run_cycle(at(3))
        assert runtime.log.watermark == 5
