from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from dispatchbot.workflow import (
    ILLEGAL_EDGE,
    Ticket,
    MISSING_ASSIGNEE,
    STALE_TIMESTAMP,
    TRANSITIONS,
    Priority,
    ReopenMode,
    TransitionError,
    WorkflowState,
    apply_transition,
    evolve,
    new_ticket,
    reopen,
)

from .conftest import T0, at, ticket

S = WorkflowState


class TestValidTransitions:
    def test_work_in_progress_neighbors(self):
        assert TRANSITIONS[S.WORK_IN_PROGRESS] == {
            S.BLOCKED, S.READY_FOR_REVIEW, S.DONE}

    def test_done_neighbors(self):
        assert TRANSITIONS[S.DONE] == {S.BACKLOG, S.WORK_IN_PROGRESS}

    def test_blocked_neighbors(self):
        assert TRANSITIONS[S.BLOCKED] == {S.WORK_IN_PROGRESS, S.DONE}

    def test_exactly_six_states(self):
        assert len(list(WorkflowState)) == 6
        assert set(TRANSITIONS) == set(WorkflowState)


class TestApplyTransition:
    def test_informal_closure_from_backlog(self):
        t = apply_transition(ticket(), S.DONE, at(1))
        assert t.state is S.DONE
        assert t.resolved_at == at(1)

    def test_backlog_to_blocked_is_illegal(self):
        with pytest.raises(TransitionError) as err:
            apply_transition(ticket(), S.BLOCKED, at(1))
        assert err.value.reason == ILLEGAL_EDGE

    def test_full_path(self):
        t = ticket()
        t = replace(t, assignee="e3")
        path = [S.READY_TO_START, S.WORK_IN_PROGRESS, S.BLOCKED,
                S.WORK_IN_PROGRESS, S.READY_FOR_REVIEW, S.DONE]
        for i, state in enumerate(path, start=1):
            t = apply_transition(t, state, at(i))
        assert t.state is S.DONE
        assert t.resolved_at == at(6)
        assert t.state_entered_at == at(6)

    def test_stale_timestamp_rejected(self):
        t = apply_transition(ticket(), S.READY_TO_START, at(2))
        with pytest.raises(TransitionError) as err:
            apply_transition(t, S.WORK_IN_PROGRESS, at(2))
        assert err.value.reason == STALE_TIMESTAMP

    def test_work_states_need_assignee(self):
        with pytest.raises(TransitionError) as err:
            apply_transition(ticket(), S.WORK_IN_PROGRESS, at(1))
        assert err.value.reason == MISSING_ASSIGNEE

    def test_pure(self):
        t = ticket()
        a = apply_transition(t, S.DONE, at(1))
        b = apply_transition(t, S.DONE, at(1))
        assert a == b
        assert t.state is S.BACKLOG  # input untouched

    def test_leaving_done_clears_resolved_at(self):
        t = apply_transition(ticket(), S.DONE, at(1))
        t = apply_transition(t, S.BACKLOG, at(2))
        assert t.resolved_at is None


class TestReopen:
    def _done_ticket(self, assignee="e3"):
        t = ticket()
        t = replace(t, assignee=assignee)
        t = apply_transition(t, S.WORK_IN_PROGRESS, at(1))
        return apply_transition(t, S.DONE, at(2))

    def test_to_same_engineer(self):
        t = reopen(self._done_ticket("e3"), ReopenMode.TO_SAME_ENGINEER, at(3))
        assert t.state is S.WORK_IN_PROGRESS
        assert t.assignee == "e3"
        assert t.resolved_at is None

    def test_to_backlog_clears_assignee(self):
        t = reopen(self._done_ticket(), ReopenMode.TO_BACKLOG, at(3))
        assert t.state is S.BACKLOG
        assert t.assignee is None
        assert t.resolved_at is None

    def test_requires_done(self):
        with pytest.raises(TransitionError) as err:
            reopen(ticket(), ReopenMode.TO_BACKLOG, at(1))
        assert err.value.reason == ILLEGAL_EDGE
        # The error names the state the mode leads to.
        started = apply_transition(replace(ticket(), assignee="e3"),
                                   S.WORK_IN_PROGRESS, at(1))
        for mode, to in [(ReopenMode.TO_BACKLOG, S.BACKLOG),
                         (ReopenMode.TO_SAME_ENGINEER, S.WORK_IN_PROGRESS)]:
            with pytest.raises(TransitionError) as err:
                reopen(started, mode, at(2))
            assert err.value.reason == ILLEGAL_EDGE
            assert err.value.to_state is to
            assert str(err.value) == \
                f"IllegalEdge: T1-1 WorkInProgress -> {to.value}"


class TestDefaults:
    def test_sla_defaults_by_priority(self):
        high = new_ticket("T1-9", "r1", T0, Priority.HIGH)
        low = new_ticket("T1-10", "r1", T0, Priority.LOW)
        assert (high.sla_deadline - T0).days == 3
        assert (low.sla_deadline - T0).days == 28  # 20 business days


@given(st.lists(st.integers(min_value=0, max_value=5),
                min_size=0, max_size=12))
def test_random_walks_stay_in_reachable_states(choices):
    """Replaying any accepted transition sequence reproduces the final
    state, never escapes the six-state set, and keeps resolved_at
    synchronized with Done."""
    t = ticket()
    t = replace(t, assignee="e1")
    moves = []
    for hour, c in enumerate(choices, start=1):
        targets = sorted(TRANSITIONS[t.state], key=lambda s: s.value)
        moves.append((targets[c % len(targets)], at(hour)))
        t = apply_transition(t, *moves[-1])
        assert t.state in set(WorkflowState)
        assert (t.resolved_at is not None) == (t.state is S.DONE)

    # event-sourcing round trip over the accepted moves
    rebuilt = ticket()
    rebuilt = replace(rebuilt, assignee="e1")
    for to, ts in moves:
        rebuilt = apply_transition(rebuilt, to, ts)
    assert rebuilt == t


TICKET_CHANGES = st.fixed_dictionaries({}, optional={
    "assignee": st.none() | st.sampled_from(["e1", "e2"]),
    "state": st.sampled_from(list(WorkflowState)),
    "state_entered_at": st.none() | st.just(at(5)),
    "resolved_at": st.none() | st.just(at(7)),
    "labels": st.lists(st.sampled_from(["net", "db"])).map(tuple),
    "priority": st.sampled_from(list(Priority)),
})


@given(changes=TICKET_CHANGES, moves=st.integers(min_value=0, max_value=3))
def test_evolve_equals_dataclasses_replace(changes, moves):
    t = replace(ticket(labels=("net",)), assignee="e1")
    for hour in range(1, moves + 1):
        t = apply_transition(t, S.DONE if t.state is not S.DONE
                             else S.WORK_IN_PROGRESS, at(hour))
    before = dict(vars(t))
    copied = evolve(t, **changes)
    expected = replace(t, **changes)
    same_instance(copied, expected)
    assert vars(t) == before  # the source is untouched


def same_instance(built, expected):
    """Equal, with an equal hash, the same fields in the same order and a
    key-sharing instance dict, as `__init__` makes: a fresh dict assigned
    to `__dict__` would be larger."""
    assert type(built) is type(expected)
    assert built == expected
    assert hash(built) == hash(expected)
    assert list(vars(built).items()) == list(vars(expected).items())
    assert sys.getsizeof(vars(built)) == sys.getsizeof(vars(expected))


@given(priority=st.sampled_from(list(Priority)),
       labels=st.lists(st.sampled_from(["net", "db"])).map(tuple),
       explicit_sla=st.booleans())
def test_new_ticket_equals_the_dataclass_init(priority, labels,
                                              explicit_sla):
    sla = at(50) if explicit_sla else None
    built = new_ticket("T1-5", "r1", at(1), priority, sla, labels)
    same_instance(built, Ticket(
        id="T1-5", reporter="r1", created_at=at(1),
        sla_deadline=built.sla_deadline, priority=priority,
        state_entered_at=at(1), labels=labels))

