"""The outbox flush settles each message once, after the sinks close, under
one rule (`notify.settle`). These properties check it against a reference
copy of the earlier two-step flush, which built a provisional record per
attempt and then demoted each `Delivered` one whose id a `close` returned.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchbot.board import BoardRuntime
from dispatchbot.eventlog import (KIND_MESSAGE_DELIVERED, EventLog,
                                  fold_event, replay)
from dispatchbot.notify import (STATE_DELIVERED, STATE_FAILED, Channel,
                                PayloadRejected, SinkUnreachable)
from dispatchbot.reminders import ThresholdPolicy
from dispatchbot.timeutil import iso
from dispatchbot.workflow import WorkflowState

from .conftest import at, team_config


# -- the reference: the two-step flush as it stood ---------------------------

def reference_failed_attempt(retries, max_retries):
    retries += 1
    return STATE_FAILED, retries, retries >= max_retries


def reference_attempt_delivery(wire, retries, sink, max_retries):
    try:
        if sink is None:
            raise SinkUnreachable(f"no sink for {wire['channel']}")
        sink.deliver(wire, None)
    except PayloadRejected:
        return STATE_FAILED, retries + 1, True
    except SinkUnreachable:
        return reference_failed_attempt(retries, max_retries)
    return STATE_DELIVERED, retries, False


class ReferenceRuntime(BoardRuntime):
    """A board whose flush is the two-step one: pass 1 attempts each
    message and builds its record, pass 2 demotes the deliveries a `close`
    returned, corrects the report and folds what it can."""

    def _flush_outbox(self, now, report):
        snapshot = self.snapshot
        outbox = snapshot.outbox
        if not outbox:
            return
        ts, board = iso(now), self.config.board_id
        sinks, max_retries = self.sinks, self.config.max_retries
        retries_of = snapshot.retries
        seq = start = snapshot.watermark
        records = []
        try:
            for msg_id, wire in outbox.items():
                state, retries, terminal = reference_attempt_delivery(
                    wire, retries_of.get(msg_id, 0),
                    sinks.get(wire["channel"]), max_retries)
                seq += 1
                records.append({"seq": seq, "ts": ts, "board": board,
                                "kind": KIND_MESSAGE_DELIVERED,
                                "msg_id": msg_id, "state": state,
                                "retries": retries, "terminal": terminal})
                if state == STATE_DELIVERED:
                    report.messages_delivered += 1
                else:
                    report.messages_failed += 1
        finally:
            unwritten = set()
            for sink in set(sinks.values()):
                if hasattr(sink, "close"):
                    unwritten.update(sink.close() or ())
            if unwritten:
                for event in records:
                    if (event["msg_id"] in unwritten
                            and event["state"] == STATE_DELIVERED):
                        (event["state"], event["retries"],
                         event["terminal"]) = reference_failed_attempt(
                            event["retries"], max_retries)
                        report.messages_delivered -= 1
                        report.messages_failed += 1
            try:
                for event in records:
                    fold_event(snapshot, event)
            except BaseException:
                del records[snapshot.watermark - start:]
                raise
            finally:
                if records:
                    self._append(records)


# -- a scripted sink ---------------------------------------------------------

class PlannedSink:
    """Does what its `action` says with each wire it is handed, and
    returns `unwritten` from `close`, or raises if that is "raise"."""

    def __init__(self):
        self.action = None
        self.unwritten = None
        self.handed: list[str] = []

    def deliver(self, wire, line):
        self.handed.append(wire["msg_id"])
        if self.action == "unreachable":
            raise SinkUnreachable("down")
        if self.action == "rejected":
            raise PayloadRejected("bad payload")
        if self.action == "crash":
            raise RuntimeError("sink bug")

    def close(self):
        if self.unwritten == "raise":
            raise RuntimeError("close bug")
        return self.unwritten


class PlannedSinks(dict):
    """Every channel's sink is one `PlannedSink`, but each lookup, one per
    hand-over, takes the next action of the cycle's plan: "none" finds no
    sink, anything else sets what the sink does with that message."""

    def __init__(self, sink: PlannedSink):
        super().__init__({channel: sink for channel in Channel})
        self.sink = sink
        self.actions = iter(())

    def get(self, channel, default=None):
        self.sink.action = next(self.actions)
        return None if self.sink.action == "none" else self.sink


ACTIONS = st.sampled_from(["deliver", "deliver", "unreachable", "rejected",
                           "none", "crash"])
#: What `close` returns: nothing, any ids (also ones never handed over or
#: never announced), or it raises.
CLOSES = st.one_of(st.none(), st.just("raise"), st.lists(
    st.integers(1, 60).map("m{:06d}".format), unique=True, max_size=12))


def stuck_config(max_retries: int):
    """Three engineers and a stuck reminder every hour after 1 h in a
    state, on all three channels."""
    return replace(team_config(thresholds=ThresholdPolicy(
        team_id="team1", reminder_period_hours=1,
        stuck_hours={state: 1.0 for state in WorkflowState
                     if state is not WorkflowState.DONE})),
        max_retries=max_retries)


@settings(max_examples=150, deadline=None)
@given(max_retries=st.integers(0, 3),
       plans=st.lists(st.tuples(st.lists(ACTIONS, min_size=1, max_size=12),
                                CLOSES), min_size=1, max_size=6))
def test_flush_settles_as_the_two_step_rule_did(max_retries, plans):
    """Over several cycles of drawn sink behaviour, the one rule writes
    the records and counts the two-step flush wrote, and live state
    equals replay after every cycle."""
    config = stuck_config(max_retries)
    boards = []
    for runtime_class in (BoardRuntime, ReferenceRuntime):
        runtime = runtime_class(config, log=EventLog(),
                                sinks=PlannedSinks(PlannedSink()))
        for i in range(3):
            runtime.inject_ticket(f"T1-{i}", "r1", at(0))
        boards.append(runtime)
    for hour, (actions, unwritten) in enumerate(plans, 1):
        outcomes = []
        for runtime in boards:
            runtime.sinks.actions = itertools.cycle(actions)
            runtime.sinks.sink.unwritten = unwritten
            try:
                outcomes.append(runtime.run_cycle(at(hour)))
            except RuntimeError as exc:
                outcomes.append(str(exc))
            assert replay(runtime.log.events) == runtime.snapshot
        board, reference = boards
        assert outcomes[0] == outcomes[1]
        assert board.log.events == reference.log.events
        assert board.sinks.sink.handed == reference.sinks.sink.handed
