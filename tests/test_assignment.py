from __future__ import annotations

import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from dispatchbot.assignment import (
    EmptyPoolError,
    ExpertiseProfile,
    TicketAlreadyDoneError,
    UnknownEngineerError,
    expertise_assign,
    least_open_assign,
    round_robin_assign,
)
from dispatchbot.eventlog import replay
from dispatchbot.roster import EngineerRoster, RosterEntry, available_pool
from dispatchbot.workflow import WorkflowState

from .conftest import at, roster, ticket

ON = date(2025, 1, 6)


def leave_roster(ids, on_leave=(), separated=None):
    entries = []
    for e in ids:
        leaves = ((ON, ON),) if e in on_leave else ()
        sep = separated.get(e) if separated else None
        entries.append(RosterEntry(e, separated_at=sep, leaves=leaves))
    return EngineerRoster("team1", entries)


def rr_oracle(order, available, position, n_tickets):
    """Brute-force cyclic scan: from the cursor, take the first available
    engineer; advance one past the pick."""
    chosen = []
    pos = position % len(order)
    for _ in range(n_tickets):
        for k in range(len(order)):
            i = (pos + k) % len(order)
            if order[i] in available:
                chosen.append(order[i])
                pos = (i + 1) % len(order)
                break
        else:
            raise EmptyPoolError
    return chosen


class TestAvailablePool:
    def test_filters_leave(self):
        r = leave_roster(["e1", "e2", "e3"], on_leave={"e2"})
        assert available_pool(r, ON) == ["e1", "e3"]

    def test_separated_yesterday_excluded(self):
        r = leave_roster(["e1", "e2"],
                         separated={"e1": date(2025, 1, 5)})
        assert available_pool(r, ON) == ["e2"]

    def test_all_on_leave_is_empty(self):
        r = leave_roster(["e1", "e2"], on_leave={"e1", "e2"})
        assert available_pool(r, ON) == []

    def test_not_yet_joined_excluded(self):
        r = EngineerRoster("team1", [
            RosterEntry("e1"), RosterEntry("e2", joined_at=date(2025, 2, 1))])
        assert available_pool(r, ON) == ["e1"]


class TestRoundRobin:
    def test_full_cycle_returns_cursor_to_start(self):
        r = roster("e1", "e2", "e3")
        cursor = 0
        seen = []
        for i in range(3):
            decision = round_robin_assign(r, cursor, ticket(f"T1-{i}"), at(i))
            cursor = decision.cursor_after
            seen.append(decision.engineer_id)
        assert seen == ["e1", "e2", "e3"]
        assert cursor == 0

    def test_skips_unavailable_and_wraps(self):
        r = leave_roster(["e1", "e2", "e3"], on_leave={"e2"})
        decision = round_robin_assign(r, 1, ticket(), at(0))
        assert decision.engineer_id == "e3"
        assert decision.cursor_after == 0

    def test_empty_pool_raises(self):
        r = leave_roster(["e1"], on_leave={"e1"})
        with pytest.raises(EmptyPoolError):
            round_robin_assign(r, 0, ticket(), at(0))

    def test_table_fairness_466_over_12(self):
        # 466 tickets over 12 always-available engineers: every engineer
        # receives 38 or 39 and the mean is 38.83.
        ids = [f"e{i:02d}" for i in range(12)]
        r = roster(*ids)
        cursor = 0
        counts = dict.fromkeys(ids, 0)
        for i in range(466):
            decision = round_robin_assign(r, cursor, ticket(f"T1-{i}"), at(0))
            cursor = decision.cursor_after
            counts[decision.engineer_id] += 1
        assert max(counts.values()) - min(counts.values()) <= 1
        assert set(counts.values()) <= {38, 39}
        assert round(sum(counts.values()) / 12, 2) == 38.83

    def test_matches_oracle_exhaustively_small(self):
        # All rosters up to 5, all availability masks, all cursors.
        for size in range(1, 6):
            ids = [f"e{i}" for i in range(size)]
            for mask in range(1, 2 ** size):
                available = {ids[i] for i in range(size) if mask >> i & 1}
                r = leave_roster(ids, on_leave=set(ids) - available)
                for start in range(size):
                    expected = rr_oracle(ids, available, start, 2 * size)
                    cursor = start
                    got = []
                    for i in range(2 * size):
                        d = round_robin_assign(r, cursor, ticket(f"T-{i}"),
                                               at(0))
                        cursor = d.cursor_after
                        got.append(d.engineer_id)
                    assert got == expected

    def test_skip_stability(self):
        # Making one engineer unavailable never changes the relative order
        # of the remaining engineers.
        ids = ["e1", "e2", "e3", "e4", "e5"]
        for start in range(5):
            for removed in ids:
                remaining = set(ids) - {removed}
                full_round = rr_oracle(ids, set(ids), start, 5)
                reduced = rr_oracle(ids, remaining, start, 4)
                assert reduced == [e for e in full_round if e != removed]
                # and the implementation agrees with the oracle
                r = leave_roster(ids, on_leave={removed})
                cursor = start
                got = []
                for i in range(4):
                    d = round_robin_assign(r, cursor, ticket(f"T-{i}"), at(0))
                    cursor = d.cursor_after
                    got.append(d.engineer_id)
                assert got == reduced


DAY0 = date(2025, 1, 1)
days = st.integers(0, 30).map(lambda d: DAY0 + timedelta(days=d))


@st.composite
def roster_entries(draw):
    size = draw(st.integers(0, 8))
    entries = []
    for i in range(size):
        joined = draw(st.none() | days)
        separated = draw(st.none() | days)
        if joined and separated and separated < joined:
            joined, separated = separated, joined
        leaves = tuple(tuple(sorted(pair)) for pair in
                       draw(st.lists(st.tuples(days, days), max_size=3)))
        entries.append(RosterEntry(f"e{i}", joined, separated, leaves))
    return entries


class TestRoundRobinProperty:
    @given(entries=roster_entries(), position=st.integers(-3, 20),
           day=days)
    def test_matches_pool_reference(self, entries, position, day):
        # The reference is the brute-force scan over `available_pool`.
        r = EngineerRoster("team1", entries)
        order = [e.engineer_id for e in r.entries]
        now = datetime(day.year, day.month, day.day, 9, tzinfo=timezone.utc)
        pool = available_pool(r, day)
        if not pool:
            with pytest.raises(EmptyPoolError):
                round_robin_assign(r, position, ticket(), now)
            return
        [expected] = rr_oracle(order, set(pool), position, 1)
        decision = round_robin_assign(r, position, ticket(), now)
        assert decision.engineer_id == expected
        assert decision.cursor_after == (order.index(expected) + 1) % len(r)


class TestTieBreakProperty:
    @given(data=st.data())
    def test_matches_roster_index_key(self, data):
        # The reference breaks ties on each engineer's roster index.
        entries = data.draw(st.permutations(data.draw(roster_entries())))
        r = EngineerRoster("team1", list(entries))
        order = [e.engineer_id for e in r.entries]
        day = data.draw(days)
        now = datetime(day.year, day.month, day.day, 9, tzinfo=timezone.utc)
        counts = {e: c for e in order
                  if (c := data.draw(st.none() | st.integers(0, 2)))
                  is not None}
        experts = {e for e in order if data.draw(st.booleans())}
        pool = available_pool(r, day)

        def reference(candidates):
            return min(candidates,
                       key=lambda e: (counts.get(e, 0), order.index(e)))

        if not pool:
            with pytest.raises(EmptyPoolError):
                least_open_assign(counts, r, ticket(), now)
            return
        assert least_open_assign(counts, r, ticket(), now).engineer_id == \
            reference(pool)
        available_experts = [e for e in pool if e in experts]
        if available_experts:
            profile = ExpertiseProfile(
                skills={e: frozenset({"x"}) for e in experts},
                label_tags={"lx": "x"})
            d = expertise_assign(profile, r, ticket(labels=["lx"]), now,
                                 counts, 0)
            assert d.engineer_id == reference(available_experts)


class TestExpertise:
    profile = ExpertiseProfile(
        skills={"e1": frozenset({"network"}), "e3": frozenset({"network"})},
        label_tags={"net": "network"},
    )

    def test_unique_expert_wins(self):
        profile = ExpertiseProfile(skills={"e2": frozenset({"network"})},
                                   label_tags={"net": "network"})
        d = expertise_assign(profile, roster(), ticket(labels=["net"]),
                             at(0), {}, 0)
        assert d.engineer_id == "e2"

    def test_least_loaded_expert_wins(self):
        d = expertise_assign(self.profile, roster(), ticket(labels=["net"]),
                             at(0), {"e1": 5, "e3": 3}, 0)
        assert d.engineer_id == "e3"

    def test_falls_back_to_round_robin(self):
        profile = ExpertiseProfile(skills={}, label_tags={"net": "network"})
        d = expertise_assign(profile, roster(), ticket(labels=["net"]),
                             at(0), {}, 1)
        assert d.engineer_id == "e2"
        assert d.cursor_after == 2

    def test_exhaustive_argmin_oracle(self):
        rng = random.Random(11)
        r = roster("e1", "e2", "e3", "e4")
        order = [e.engineer_id for e in r.entries]
        profile = ExpertiseProfile(
            skills={e: frozenset({"x"}) for e in ("e1", "e2", "e4")},
            label_tags={"lx": "x"})
        for _ in range(200):
            counts = {e: rng.randrange(10) for e in order}
            d = expertise_assign(profile, r, ticket(labels=["lx"]), at(0),
                                 counts, 0)
            experts = ["e1", "e2", "e4"]
            best = min(experts,
                       key=lambda e: (counts[e], order.index(e)))
            assert d.engineer_id == best


class TestLeastOpen:
    def test_unique_minimum(self):
        d = least_open_assign({"e1": 2, "e2": 0, "e3": 1}, roster(),
                              ticket(), at(0))
        assert d.engineer_id == "e2"

    def test_roster_order_tie_break(self):
        d = least_open_assign({"e1": 1, "e2": 1}, roster("e1", "e2"),
                              ticket(), at(0))
        assert d.engineer_id == "e1"

    def test_gamer_starved_while_hoarding(self):
        # An engineer sitting on 10 open tickets is never picked while
        # everyone else holds fewer.
        r = roster("gamer", "e2", "e3")
        counts = {"gamer": 10, "e2": 0, "e3": 0}
        # holds only while the teammates stay below the hoard
        for i in range(18):
            d = least_open_assign(counts, r, ticket(f"T1-{i}"), at(0))
            assert d.engineer_id != "gamer"
            counts[d.engineer_id] += 1

    def test_oracle_equivalence(self):
        rng = random.Random(3)
        r = roster("e1", "e2", "e3", "e4", "e5")
        order = [e.engineer_id for e in r.entries]
        for _ in range(300):
            counts = {e: rng.randrange(6) for e in order
                      if rng.random() < 0.8}  # missing keys read as 0
            d = least_open_assign(counts, r, ticket(), at(0))
            best = min(order,
                       key=lambda e: (counts.get(e, 0), order.index(e)))
            assert d.engineer_id == best


class TestReassign:
    """Manual transfer through `BoardRuntime.reassign_ticket`, the one
    reassignment path."""

    def assigned(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.run_cycle(at(1))  # round-robin: e1
        runtime.apply_external_transition(
            "T1-1", WorkflowState.WORK_IN_PROGRESS, at(2), "e1")
        return runtime

    def test_manual_transfer(self, memory_runtime):
        runtime = self.assigned(memory_runtime)
        decision = runtime.reassign_ticket("T1-1", "e2", at(3))
        assert runtime.snapshot.tickets["T1-1"].assignee == "e2"
        assert decision.policy == "Manual"
        assert decision.cursor_after is None

    def test_unassigned_ticket_gets_an_assigned_record(self, memory_runtime):
        runtime = memory_runtime()
        runtime.inject_ticket("T1-1", "r1", at(0))
        runtime.reassign_ticket("T1-1", "e2", at(1))
        record = runtime.log.events[-1]
        assert list(record)[4:] == ["ticket", "engineer", "policy",
                                    "cursor_after", "messages"]
        assert (record["kind"], record["engineer"], record["policy"],
                record["cursor_after"]) == ("Assigned", "e2", "Manual", None)
        assert runtime.snapshot.assign_counts == {"e2": 1}
        assert runtime.snapshot.cursor_position == 0
        assert replay(runtime.log.events) == runtime.snapshot
        assert runtime.run_cycle(at(2)).assigned == 0
        # Once assigned, a transfer is a reassignment, and not counted.
        runtime.reassign_ticket("T1-1", "e3", at(3))
        record = runtime.log.events[-1]
        assert (record["kind"], record["from_engineer"]) == \
            ("Reassigned", "e2")
        assert runtime.snapshot.assign_counts == {"e2": 1}

    def test_done_ticket_immutable(self, memory_runtime):
        runtime = self.assigned(memory_runtime)
        runtime.apply_external_transition("T1-1", WorkflowState.DONE, at(3),
                                          "e1")
        watermark = runtime.log.watermark
        with pytest.raises(TicketAlreadyDoneError):
            runtime.reassign_ticket("T1-1", "e2", at(4))
        assert runtime.log.watermark == watermark

    def test_unknown_engineer(self, memory_runtime):
        runtime = self.assigned(memory_runtime)
        watermark = runtime.log.watermark
        with pytest.raises(UnknownEngineerError):
            runtime.reassign_ticket("T1-1", "nobody", at(3))
        assert runtime.log.watermark == watermark
        assert runtime.snapshot.tickets["T1-1"].assignee == "e1"
