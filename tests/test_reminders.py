from __future__ import annotations

import copy
import pickle
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from dispatchbot import reminders
from dispatchbot.reminders import (
    DEFAULT_STUCK_HOURS,
    MAX_HOURS,
    MIN_PERIOD_HOURS,
    Reminder,
    ReminderKind,
    ThresholdPolicy,
    due_reminders,
)
from dispatchbot.workflow import (
    TRANSITIONS,
    Priority,
    ReopenMode,
    WorkflowState,
    apply_transition,
    reopen,
)

from .conftest import at, ticket

POLICY = ThresholdPolicy(team_id="team1")


def blocked_ticket(tid="T1-1"):
    t = replace(ticket(tid), assignee="e1")
    t = apply_transition(t, WorkflowState.WORK_IN_PROGRESS, at(1))
    return apply_transition(t, WorkflowState.BLOCKED, at(2))


def reminder_key(r):
    """(ticket id, kind value, escalation index) of `r`."""
    return (r.ticket_id, r.kind.value, r.escalation_index)


def due_kinds(t, now, policy=POLICY):
    """The kinds of reminder due for `t` at `now`, from an empty ledger."""
    return [r.kind for r in due_reminders([t], now, policy, {})]


class TestStuckTickets:
    def test_blocked_past_threshold(self):
        t = blocked_ticket()  # blocked since at(2), threshold 72h
        stuck = [r for r in due_reminders([t], at(2 + 80), POLICY, {})
                 if r.kind is ReminderKind.STUCK_STATE]
        assert [(r.ticket_id, r.escalation_index) for r in stuck] == \
            [(t.id, 1)]

    def test_done_never_returned(self):
        t = apply_transition(ticket(), WorkflowState.DONE, at(1))
        assert due_reminders([t], at(10_000), POLICY, {}) == []

    def test_boundary_is_strict(self):
        t = blocked_ticket()
        assert ReminderKind.STUCK_STATE not in due_kinds(t, at(2 + 72))
        assert ReminderKind.STUCK_STATE in due_kinds(t, at(2 + 72, seconds=1))

    def test_high_priority_halves_threshold(self):
        t = replace(blocked_ticket(), priority=Priority.HIGH)
        assert ReminderKind.STUCK_STATE in due_kinds(t, at(2 + 40))


class TestSlaStatus:
    """The imminent and breached streams of `due_reminders`."""

    def test_breached_past_deadline(self):
        t = ticket()
        assert ReminderKind.SLA_BREACHED in due_kinds(
            t, t.sla_deadline + timedelta(seconds=1))

    def test_imminent_by_remaining_fraction(self):
        # 10% of the window remaining, warning fraction 0.2
        t = ticket(sla_deadline=at(100))
        remaining = timedelta(hours=10)
        assert (t.sla_deadline - (t.sla_deadline - remaining)) / \
            (t.sla_deadline - t.created_at) == 0.1
        assert due_kinds(t, t.sla_deadline - remaining) == \
            [ReminderKind.SLA_IMMINENT]

    def test_fresh_ticket_ok(self):
        t = ticket()
        assert due_kinds(t, t.created_at) == []


class TestDueReminders:
    def test_escalation_indices_catch_up(self):
        # Stuck 2.5 reminder periods past threshold, empty ledger: the
        # indices 1..3 all come due at once, each exactly once.
        t = blocked_ticket()
        now = at(2 + 72 + 2.5 * 24)
        reminders = due_reminders([t], now, POLICY, {})
        stuck = [r for r in reminders if r.kind is ReminderKind.STUCK_STATE]
        assert [r.escalation_index for r in stuck] == [1, 2, 3]

    def test_idempotent_with_updated_ledger(self):
        t = blocked_ticket()
        now = at(2 + 72 + 60)
        first = due_reminders([t], now, POLICY, {})
        ledger = {(r.ticket_id, r.kind.value): r.escalation_index
                  for r in first}
        assert due_reminders([t], now, POLICY, ledger) == []

    def test_recipients_are_assignee_and_reporter(self):
        t = blocked_ticket()
        [r] = [x for x in due_reminders([t], at(2 + 73), POLICY, {})
               if x.kind is ReminderKind.STUCK_STATE]
        assert set(r.recipients) == {"e1", "r1"}

    def test_unassigned_ticket_notifies_reporter_only(self):
        t = ticket()  # Backlog, unassigned, default threshold 120h
        [r] = [x for x in due_reminders([t], at(121), POLICY, {})
               if x.kind is ReminderKind.STUCK_STATE]
        assert r.recipients == ("r1",)

    def test_breach_adds_team_channel(self):
        t = replace(ticket(), assignee="e1")
        now = t.sla_deadline + timedelta(hours=1)
        breached = [x for x in due_reminders([t], now, POLICY, {})
                    if x.kind is ReminderKind.SLA_BREACHED]
        assert breached
        assert "team:team1" in breached[0].recipients

    def test_exactly_n_at_whole_period_multiples(self):
        t = blocked_ticket()
        for n in (1, 2, 5):
            now = at(2 + 72 + n * 24)
            stuck = [r for r in due_reminders([t], now, POLICY, {})
                     if r.kind is ReminderKind.STUCK_STATE]
            assert len(stuck) == n

    @pytest.mark.parametrize("sent", [0, 1, 3, 6, 9])
    def test_resumes_after_sent_prefix(self, sent):
        # Stuck 6 periods past threshold with index k last sent: exactly
        # k+1..6 come due, in ascending order.
        t = blocked_ticket()
        ledger = {(t.id, "StuckState"): sent}
        stuck = [r.escalation_index
                 for r in due_reminders([t], at(2 + 72 + 6 * 24), POLICY,
                                        ledger)
                 if r.kind is ReminderKind.STUCK_STATE]
        assert stuck == list(range(sent + 1, 7))

    def test_monotone_in_now(self):
        t = blocked_ticket()
        seen: set = set()
        for h in range(60, 400, 7):
            due = {reminder_key(r)
                   for r in due_reminders([t], at(h), POLICY, {})}
            assert seen <= due
            seen = due


def due_keys(t, now, policy):
    return {reminder_key(r) for r in due_reminders([t], now, policy, {})}


class TestNextReminderAt:
    def test_high_priority_halves_stuck_threshold(self):
        t = replace(blocked_ticket(), sla_deadline=at(1000))
        assert reminders._evaluate(t, at(2), POLICY)[1] == at(2 + 72)
        high = replace(t, priority=Priority.HIGH)
        assert reminders._evaluate(high, at(2), POLICY)[1] == at(2 + 36)
        assert due_keys(high, at(2 + 36), POLICY) == set()
        assert due_keys(high, at(2 + 36, seconds=1), POLICY) == \
            {(t.id, "StuckState", 1)}

    def test_imminent_stream_capped_at_deadline(self):
        # Warning from at(80), one period of 24 h: the imminent stream's
        # next boundary, at(104), lies past the deadline at(100), so only
        # the breached stream (at(100 + 24)) is due next.
        policy = ThresholdPolicy(
            team_id="team1",
            stuck_hours={s: 1000.0 for s in DEFAULT_STUCK_HOURS})
        t = ticket(sla_deadline=at(100))
        assert reminders._evaluate(t, at(81), policy)[1] == at(100)
        assert reminders._evaluate(t, at(101), policy)[1] == at(124)

    @given(state=st.sampled_from(sorted(DEFAULT_STUCK_HOURS)),
           priority=st.sampled_from(Priority),
           entered=st.integers(0, 200), deadline=st.integers(1, 300),
           now=st.integers(0, 500 * 3600),
           stuck=st.floats(0.5, 150), period=st.floats(0.25, 48),
           fraction=st.floats(0.01, 1))
    def test_boundary_is_exact(self, state, priority, entered, deadline,
                               now, stuck, period, fraction):
        # Nothing new is due from `now` up to the boundary, and something
        # is due just after it.
        policy = ThresholdPolicy(
            team_id="team1",
            stuck_hours={s: stuck for s in DEFAULT_STUCK_HOURS},
            sla_warning_fraction=fraction, reminder_period_hours=period)
        t = replace(ticket(sla_deadline=at(deadline)), state=state,
                    priority=priority, state_entered_at=at(entered))
        start = at(seconds=now)
        boundary = reminders._evaluate(t, start, policy)[1]
        assert boundary >= start
        assert due_keys(t, boundary, policy) == due_keys(t, start, policy)
        assert due_keys(t, boundary, policy) < \
            due_keys(t, boundary + timedelta(microseconds=1), policy)


class TestHourLimits:
    @pytest.mark.parametrize("hours", [float("inf"), float("nan"), 1e300,
                                       MAX_HOURS * 1.001, 0.0, -1.0])
    def test_out_of_range_hours_rejected(self, hours):
        with pytest.raises(ValueError):
            ThresholdPolicy(reminder_period_hours=hours)
        with pytest.raises(ValueError):
            ThresholdPolicy(stuck_hours={WorkflowState.BLOCKED: hours})

    @pytest.mark.parametrize("hours", [1e-12, 1e-7, MIN_PERIOD_HOURS * 0.999])
    def test_period_under_one_second_rejected(self, hours):
        # `timedelta` rounds the shortest of these to zero, which the
        # stream arithmetic would divide by.
        with pytest.raises(ValueError, match=r"^reminder_period_hours must "
                                             r"be in \[1/3600, 876600\]"):
            ThresholdPolicy(reminder_period_hours=hours)

    def test_one_second_period_evaluates(self):
        policy = ThresholdPolicy(team_id="team1",
                                 reminder_period_hours=MIN_PERIOD_HOURS)
        assert policy.reminder_period == timedelta(seconds=1)
        t = blocked_ticket()  # blocked since at(2), threshold 72h
        assert due_kinds(t, at(2 + 72, seconds=3), policy).count(
            ReminderKind.STUCK_STATE) == 3

    def test_largest_hours_evaluate(self):
        # A hundred-year threshold and period still fit `datetime`.
        policy = ThresholdPolicy(
            team_id="team1", reminder_period_hours=MAX_HOURS,
            stuck_hours={s: MAX_HOURS for s in DEFAULT_STUCK_HOURS})
        t = blocked_ticket()  # blocked since at(2)
        late = at(2 + MAX_HOURS, seconds=1)
        assert due_kinds(t, late, policy).count(ReminderKind.STUCK_STATE) == 1
        assert late < reminders._evaluate(t, late, policy)[1] <= \
            at(2 + 2 * MAX_HOURS)


class TestThresholdTable:
    @given(stuck=st.dictionaries(st.sampled_from(sorted(DEFAULT_STUCK_HOURS)),
                                 st.floats(0.01, MAX_HOURS)),
           period=st.floats(0.01, MAX_HOURS))
    def test_equals_the_threshold_built_per_call(self, stuck, period):
        policy = ThresholdPolicy(stuck_hours=stuck,
                                 reminder_period_hours=period)
        for state, default in DEFAULT_STUCK_HOURS.items():
            for priority in Priority:
                hours = stuck.get(state, default)
                if priority is Priority.HIGH:
                    hours /= 2.0
                assert policy.stuck_threshold(state, priority) == \
                    timedelta(hours=hours)
        assert policy.reminder_period == timedelta(hours=period)

    def test_changing_the_mapping_passed_in_changes_nothing(self):
        stuck = {WorkflowState.BLOCKED: 10.0}
        policy = ThresholdPolicy(team_id="team1", stuck_hours=stuck)
        before = repr(policy)
        stuck[WorkflowState.BLOCKED] = 1.0
        stuck[WorkflowState.BACKLOG] = 2.0
        assert policy == ThresholdPolicy(
            team_id="team1", stuck_hours={WorkflowState.BLOCKED: 10.0})
        assert repr(policy) == before
        assert policy.stuck_threshold(WorkflowState.BLOCKED,
                                      Priority.MEDIUM) == timedelta(hours=10)
        assert policy.stuck_threshold(WorkflowState.BACKLOG,
                                      Priority.MEDIUM) == timedelta(hours=120)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"])
    def test_a_clone_keeps_the_derived_values(self, clone):
        policy = ThresholdPolicy(team_id="team1", reminder_period_hours=4.0,
                                 stuck_hours={WorkflowState.BLOCKED: 10.0})
        twin = clone(policy)
        assert twin == policy
        assert twin.reminder_period == timedelta(hours=4)
        assert twin.stuck_threshold(WorkflowState.BLOCKED, Priority.HIGH) \
            == timedelta(hours=5)

    def test_repr_and_equality_show_only_the_configuration(self):
        policy = ThresholdPolicy(team_id="team1", reminder_period_hours=4.0)
        assert repr(policy) == (
            "ThresholdPolicy(team_id='team1', stuck_hours="
            f"{DEFAULT_STUCK_HOURS!r}, sla_warning_fraction=0.2, "
            "reminder_period_hours=4.0)")
        assert replace(policy, reminder_period_hours=2.0).reminder_period \
            == timedelta(hours=2)
        assert policy != replace(policy, reminder_period_hours=2.0)


# The stream evaluation as it was written before it became one pass:
# each stream's trigger built anew, with its threshold, per call.

def reference_streams(t, policy):
    hours = policy.stuck_hours.get(t.state, DEFAULT_STUCK_HOURS[t.state])
    if t.priority is Priority.HIGH:
        hours /= 2.0
    deadline = t.sla_deadline
    window = deadline - t.created_at
    return (
        (ReminderKind.STUCK_STATE,
         (t.state_entered_at or t.created_at) + timedelta(hours=hours),
         None),
        (ReminderKind.SLA_IMMINENT,
         deadline - policy.sla_warning_fraction * window, deadline),
        (ReminderKind.SLA_BREACHED, deadline, None),
    )


def reference_count(trigger, now, period):
    return 0 if now <= trigger else -((trigger - now) // period)


def reference_next_reminder_at(t, now, policy):
    period = timedelta(hours=policy.reminder_period_hours)
    boundaries = []
    for _, trigger, cap in reference_streams(t, policy):
        boundary = trigger + reference_count(trigger, now, period) * period
        if cap is None or boundary < cap:
            boundaries.append(boundary)
    return min(boundaries)


def reference_due_reminders(tickets, now, policy, already_sent):
    period = timedelta(hours=policy.reminder_period_hours)
    out = []
    for t in tickets:
        for kind, trigger, cap in reference_streams(t, policy):
            count = reference_count(
                trigger, now if cap is None else min(now, cap), period)
            sent = already_sent.get((t.id, kind.value), 0) if count else 0
            names = {t.reporter} | ({t.assignee} if t.assignee else set())
            if kind is ReminderKind.SLA_BREACHED:
                names.add(f"team:{policy.team_id}")
            out.extend(Reminder(t.id, kind, tuple(sorted(names)), index, now)
                       for index in range(sent + 1, count + 1))
    return out


HOUR = 3600


@st.composite
def open_tickets(draw, tid, now):
    """A ticket open at `now`: walked through the workflow, perhaps done
    and reopened, with its SLA deadline past, at, near or far from `now`."""
    created = now - timedelta(seconds=draw(st.integers(0, 300 * HOUR)))
    deadline = now + timedelta(seconds=draw(
        st.sampled_from([-1, 0, 1]) | st.integers(-200 * HOUR, 200 * HOUR)))
    t = replace(ticket(tid, created=created, sla_deadline=deadline,
                       priority=draw(st.sampled_from(Priority))),
                assignee="e1")
    clock = created
    for _ in range(draw(st.integers(0, 4))):
        clock += timedelta(seconds=draw(st.integers(1, 40 * HOUR)))
        if clock > now:
            break
        t = apply_transition(
            t, draw(st.sampled_from(sorted(TRANSITIONS[t.state]))), clock)
    if t.state is WorkflowState.DONE:
        t = reopen(t, draw(st.sampled_from(ReopenMode)),
                   t.state_entered_at + timedelta(seconds=1))
    if draw(st.booleans()) and t.state is WorkflowState.BACKLOG:
        t = replace(t, assignee=None)
    return t


class TestSinglePass:
    @given(data=st.data(),
           period=st.sampled_from([1.0, 2.0, 24.0]) | st.floats(0.25, 48),
           fraction=st.floats(0.01, 1),
           stuck=st.dictionaries(st.sampled_from(sorted(DEFAULT_STUCK_HOURS)),
                                 st.floats(0.5, 150)),
           now=st.integers(0, 400 * HOUR))
    def test_matches_the_per_stream_reference(self, data, period, fraction,
                                               stuck, now):
        policy = ThresholdPolicy(team_id="team1", stuck_hours=stuck,
                                 sla_warning_fraction=fraction,
                                 reminder_period_hours=period)
        now = at(seconds=now)
        tickets = [data.draw(open_tickets(f"T1-{n}", now))
                   for n in range(data.draw(st.integers(1, 3)))]
        ledger = data.draw(st.dictionaries(
            st.tuples(st.sampled_from([t.id for t in tickets]),
                      st.sampled_from([k.value for k in ReminderKind])),
            st.integers(0, 6)))
        next_due = {}
        assert due_reminders(tickets, now, policy, ledger, next_due) == \
            reference_due_reminders(tickets, now, policy, ledger)
        assert next_due == {t.id: reference_next_reminder_at(t, now, policy)
                            for t in tickets}
        for t in tickets:
            assert reminders._evaluate(t, now, policy)[1] == next_due[t.id]


# The stream arithmetic as it was written before its three streams were
# worked out inline: each count through `escalations_due`.

def escalations_due(trigger, now, period):
    if now <= trigger:
        return 0
    return -((trigger - now) // period)


def reference_evaluate(ticket, now, policy):
    period = policy.reminder_period
    deadline = ticket.sla_deadline
    stuck_at = ((ticket.state_entered_at or ticket.created_at)
                + policy._thresholds[ticket.state][ticket.priority])
    stuck = escalations_due(stuck_at, now, period)
    breached = escalations_due(deadline, now, period)
    boundary = min(stuck_at + stuck * period, deadline + breached * period)
    warning_at = (deadline
                  - policy.sla_warning_fraction * (deadline - ticket.created_at))
    if now < deadline:
        imminent = escalations_due(warning_at, now, period)
        boundary = min(boundary, warning_at + imminent * period)
    else:
        imminent = escalations_due(warning_at, deadline, period)
    return (stuck, imminent, breached), boundary


def triggers(t, policy):
    """The stuck, imminent and breached triggers of `t` under `policy`."""
    deadline = t.sla_deadline
    return ((t.state_entered_at or t.created_at)
            + policy.stuck_threshold(t.state, t.priority),
            deadline - policy.sla_warning_fraction * (deadline - t.created_at),
            deadline)


@st.composite
def evaluations(draw):
    """A policy, a ticket whose deadline may lie before its creation, and
    an instant."""
    policy = ThresholdPolicy(
        team_id="team1",
        stuck_hours=draw(st.dictionaries(
            st.sampled_from(sorted(DEFAULT_STUCK_HOURS)),
            st.sampled_from([1.0, 3.0, 72.0]) | st.floats(0.5, 150))),
        sla_warning_fraction=draw(st.sampled_from([0.2, 1.0])
                                  | st.floats(0.01, 1)),
        reminder_period_hours=draw(st.sampled_from([1.0, 2.0, 24.0])
                                   | st.floats(0.25, 48)))
    created = at(seconds=draw(st.integers(0, 100 * HOUR)))
    deadline = created + timedelta(seconds=draw(
        st.sampled_from([-HOUR, -1, 0, 1]) | st.integers(-100 * HOUR,
                                                         300 * HOUR)))
    entered = draw(st.none() | st.integers(0, 100 * HOUR))
    t = replace(ticket(created=created, sla_deadline=deadline,
                       priority=draw(st.sampled_from(Priority))),
                state=draw(st.sampled_from(sorted(DEFAULT_STUCK_HOURS))),
                state_entered_at=None if entered is None
                else created + timedelta(seconds=entered))
    return t, at(seconds=draw(st.integers(0, 500 * HOUR))), policy


TICK = timedelta(microseconds=1)


class TestInlineArithmetic:
    @given(evaluations())
    def test_matches_the_per_stream_helper(self, case):
        # At the drawn instant, and at each trigger, a whole number of
        # periods past one, and a tick either side of those.
        t, now, policy = case
        period = policy.reminder_period
        instants = [now] + [trigger + k * period + nudge
                            for trigger in triggers(t, policy)
                            for k in range(3) for nudge in (-TICK, 0 * TICK,
                                                            TICK)]
        for instant in instants:
            expected = reference_evaluate(t, instant, policy)
            assert reminders._evaluate(t, instant, policy) == expected
            assert reminders._evaluate(t, instant, policy)[1] == expected[1]
            # At the boundary itself the counts have not grown yet.
            boundary = expected[1]
            assert reminders._evaluate(t, boundary, policy) == \
                reference_evaluate(t, boundary, policy)
            assert reference_evaluate(t, boundary, policy)[0] == expected[0]


@st.composite
def policies(draw):
    return ThresholdPolicy(
        team_id=draw(st.sampled_from(["team1", "team2"])),
        stuck_hours=draw(st.dictionaries(
            st.sampled_from(sorted(DEFAULT_STUCK_HOURS)), st.floats(0.5, 150))),
        sla_warning_fraction=draw(st.floats(0.01, 1)),
        reminder_period_hours=draw(st.floats(0.25, 48)))


@st.composite
def earlier_versions(draw, t):
    """`t` as it may have been before a change: another state, clock,
    priority or assignee, or the same values in another object."""
    entered = draw(st.none() | st.integers(0, 100 * HOUR))
    return replace(
        t, state=draw(st.sampled_from(sorted(DEFAULT_STUCK_HOURS))),
        priority=draw(st.sampled_from(Priority)),
        assignee=draw(st.sampled_from([None, "e1", "e9"])),
        state_entered_at=None if entered is None
        else t.created_at + timedelta(seconds=entered))


class TestTriggerCache:
    @given(evaluations(), st.data())
    def test_a_filled_cache_changes_no_outcome(self, case, data):
        t, now, policy = case
        # Entries made before: for earlier versions of the ticket, under
        # another policy or an equal copy of this one, and for this very
        # ticket and policy at another instant, recipients filled in
        # wherever a reminder fell due.
        cache = {}
        for _ in range(data.draw(st.integers(0, 4))):
            other = data.draw(st.sampled_from([t, replace(t)])
                              | earlier_versions(t))
            under = data.draw(st.sampled_from([policy, copy.copy(policy)])
                              | policies())
            due_reminders([other], at(seconds=data.draw(
                st.integers(0, 500 * HOUR))), under, {}, None, cache)
        ledger = data.draw(st.dictionaries(
            st.sampled_from([(t.id, k.value) for k in ReminderKind]),
            st.integers(0, 6)))
        next_due, expected_due = {}, {}
        assert due_reminders([t], now, policy, ledger, next_due, cache) == \
            due_reminders([t], now, policy, ledger, expected_due)
        assert next_due == expected_due
        entry = cache[t.id]
        assert entry[0] is t and entry[1] is policy
