"""Acceptance suite: one test per shipping criterion.

Each test prints a single `[criterion NN] name: PASS|FAIL (t)` line on the
real terminal (bypassing capture) so a `pytest -v` run shows a compact
per-criterion scoreboard, and also enforces the criterion's runtime budget.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from datetime import timedelta

from dispatchbot.assignment import (
    POLICY_LEAST_OPEN,
    POLICY_MANUAL,
    round_robin_assign,
)
from dispatchbot.cli import EXIT_OK, main
from dispatchbot.eventlog import replay
from dispatchbot.metrics import (
    distribution_stats,
    format_duration,
    parse_duration,
    round2,
)
from dispatchbot.reminders import ReminderKind, due_reminders
from dispatchbot.roster import EngineerRoster, RosterEntry
from dispatchbot.sim import (
    SimConfig,
    _sim_thresholds,
    default_experiment_configs,
    run_experiment,
    run_simulation,
)
from dispatchbot.timeutil import parse_ts
from dispatchbot.workflow import (
    TransitionError,
    WorkflowState,
    apply_transition,
)

from .conftest import at, ticket

import json

import pytest


@contextmanager
def criterion(capsys, num: int, name: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {name}: {verdict} "
                  f"({elapsed:.2f}s, budget {budget_s:.0f}s)")
        if ok:
            assert elapsed < budget_s, f"over runtime budget: {elapsed:.2f}s"


def test_01_published_average_reproduction(capsys):
    with criterion(capsys, 1, "published per-team averages", 1.0):
        rows = [(931, 14, "66.50"), (672, 18, "37.33"), (673, 14, "48.07"),
                (89, 14, "6.36"), (192, 9, "21.33"), (262, 4, "65.50"),
                (466, 12, "38.83"), (377, 18, "20.94"), (549, 10, "54.90"),
                (62, 9, "6.89"), (68, 9, "7.56"), (250, 6, "41.67")]
        for total, engineers, want in rows:
            got = f"{round2(total / engineers):.2f}"
            assert got == want, f"{total}/{engineers}: {got} != {want}"


def test_02_duration_formatting(capsys):
    with criterion(capsys, 2, "resolution-time formatting", 1.0):
        assert format_duration(timedelta(hours=285)) == "11d:21h"
        assert format_duration(timedelta(hours=170)) == "7d:02h"
        published = ["11d:21h", "51d:23h", "8d:23h", "53d:02h", "58d:23h",
                     "61d:15h", "7d:02h", "13d:06h", "7d:19h", "45d:20h",
                     "25d:13h", "21d:19h"]
        for raw in published:
            assert format_duration(parse_duration(raw)) == raw


def test_03_distribution_stats_oracle(capsys):
    with criterion(capsys, 3, "distribution-stats oracle", 5.0):
        rng = random.Random(1234)
        for _ in range(10_000):
            counts = [rng.randint(0, 500)
                      for _ in range(rng.randint(1, 20))]
            median, mx, avg, std = distribution_stats(counts)
            ordered = sorted(counts)
            n = len(ordered)
            want_median = (ordered[n // 2] if n % 2 else
                           (ordered[n // 2 - 1] + ordered[n // 2]) / 2)
            mu = sum(counts) / n
            want_std = math.sqrt(sum((x - mu) ** 2 for x in counts) / n)
            assert abs(median - want_median) <= 1e-9
            assert mx == max(counts)
            assert abs(avg - mu) <= 1e-9
            assert abs(std - want_std) <= 1e-9


def test_04_round_robin_fairness(capsys):
    with criterion(capsys, 4, "round-robin fairness oracle", 5.0):
        rng = random.Random(99)
        for _ in range(1_000):
            size = rng.randint(1, 8)
            ids = [f"e{i}" for i in range(size)]
            mask = rng.randint(1, 2 ** size - 1)
            available = {ids[i] for i in range(size) if mask >> i & 1}
            n_tickets = rng.randint(1, 500)
            start = rng.randrange(size)

            # brute-force cyclic-scan oracle
            expected, pos = [], start
            for _ in range(n_tickets):
                for k in range(size):
                    i = (pos + k) % size
                    if ids[i] in available:
                        expected.append(ids[i])
                        pos = (i + 1) % size
                        break

            roster = EngineerRoster("team1", [
                RosterEntry(e, leaves=(() if e in available else
                                       ((at(0).date(), at(0).date()),)))
                for e in ids])
            cursor = start
            got = []
            t = ticket("T1-x")
            for _ in range(n_tickets):
                d = round_robin_assign(roster, cursor, t, at(0))
                cursor = d.cursor_after
                got.append(d.engineer_id)
            assert got == expected
            counts = Counter(got)
            assert max(counts.values()) - min(counts.values()) <= 1


def test_05_experiment_direction(capsys):
    with criterion(capsys, 5, "pre/post experiment direction", 60.0):
        std_wins = resolution_wins = 0
        for seed in range(1, 21):
            pre, post = default_experiment_configs(seed)
            _, _, cmp = run_experiment(pre, post)
            std_wins += cmp.std_reduced
            resolution_wins += cmp.resolution_reduced
        assert std_wins >= 19, f"std reduced in only {std_wins}/20 seeds"
        assert resolution_wins >= 18, \
            f"resolution reduced in only {resolution_wins}/20 seeds"


def test_06_open_count_gaming_pathology(capsys):
    with criterion(capsys, 6, "open-count gaming pathology", 30.0):
        k = 6
        base = SimConfig(seed=17, horizon_days=20, arrival_rate=12,
                         roster_size=k, service_median_hours=(1.0, 3.0),
                         gamer_fraction=1 / k)

        def last_half_shares(cfg):
            run = run_simulation(cfg)
            assigns = [(parse_ts(e["ts"]), e["engineer"])
                       for e in run.events if e["kind"] == "Assigned"]
            stamps = [ts for ts, _ in assigns]
            midpoint = stamps[0] + (stamps[-1] - stamps[0]) / 2
            late = [e for ts, e in assigns if ts >= midpoint]
            counts = Counter(late)
            return {e: counts.get(e, 0) / len(late)
                    for e in (f"e{i:02d}" for i in range(1, k + 1))}, run

        shares, _ = last_half_shares(replace(base, policy=POLICY_LEAST_OPEN))
        assert shares["e01"] < 1 / (2 * k), \
            f"gamer share {shares['e01']:.3f} not starved"
        for e, share in shares.items():
            if e != "e01":
                assert share > 1 / (2 * k), f"honest {e} at {share:.3f}"

        _, rr_run = last_half_shares(base)
        rr_counts = Counter(e["engineer"] for e in rr_run.events
                            if e["kind"] == "Assigned")
        assert max(rr_counts.values()) - min(rr_counts.values()) <= 1


def test_07_reminder_exactly_once(capsys):
    with criterion(capsys, 7, "reminder exactly-once", 30.0):
        # direct boundary check: stuck exactly n periods past threshold
        # yields exactly n StuckState reminders
        from .test_reminders import POLICY, blocked_ticket
        t = blocked_ticket()
        for n in (1, 3, 7):
            due = [r for r in due_reminders([t], at(2 + 72 + n * 24),
                                            POLICY, {})
                   if r.kind is ReminderKind.STUCK_STATE]
            assert len(due) == n
            assert [r.escalation_index for r in due] == list(range(1, n + 1))

        rng = random.Random(4242)
        for _ in range(200):
            cfg = SimConfig(
                seed=rng.randrange(10 ** 6),
                horizon_days=rng.randint(2, 4),
                arrival_rate=rng.uniform(3, 8),
                roster_size=rng.randint(2, 4),
                cycle_period_hours=2.0,
                reminders_enabled=True,
                stuck_threshold_hours=rng.choice([4.0, 6.0, 8.0]),
                reminder_period_hours=rng.choice([2.0, 4.0, 6.0]),
            )
            run = run_simulation(cfg)

            # no duplicate (ticket, kind, index) within a stuck spell, nor
            # ever for the SLA streams
            spell: dict[str, set] = {}
            sla: dict[str, set] = {}
            for e in run.events:
                if e["kind"] == "Transitioned":
                    spell.pop(e["ticket"], None)
                elif e["kind"] == "ReminderSent":
                    key = (e["reminder_kind"], e["index"])
                    book = (spell if e["reminder_kind"] == "StuckState"
                            else sla)
                    seen = book.setdefault(e["ticket"], set())
                    assert key not in seen, (e["ticket"], key)
                    seen.add(key)

            # the last index sent in the current spell matches the closed
            # form
            policy = _sim_thresholds(cfg)
            period = timedelta(hours=cfg.reminder_period_hours)
            skipped = {tid for tid, _ in run.cycle_reports[-1].assignments}
            for t in run.snapshot.tickets.values():
                if t.state is WorkflowState.DONE or t.id in skipped:
                    continue
                trigger = (t.state_entered_at
                           + policy.stuck_threshold(t.state, t.priority))
                elapsed = run.last_cycle_at - trigger
                want = (math.ceil(elapsed / period)
                        if elapsed > timedelta(0) else 0)
                got = run.snapshot.reminder_ledger.get((t.id, "StuckState"),
                                                       0)
                assert got == want, (t.id, got, want)


def test_08_event_sourcing_consistency(capsys):
    with criterion(capsys, 8, "event-sourcing consistency", 30.0):
        configs = [
            SimConfig(seed=21, horizon_days=4, arrival_rate=8, roster_size=3,
                      reassign_prob=0.1),
            SimConfig(seed=22, horizon_days=4, arrival_rate=8, roster_size=3,
                      policy=POLICY_MANUAL),
            SimConfig(seed=23, horizon_days=4, arrival_rate=8, roster_size=3,
                      policy=POLICY_LEAST_OPEN, gamer_fraction=0.34),
            SimConfig(seed=24, horizon_days=3, arrival_rate=6, roster_size=2,
                      reminders_enabled=True, stuck_threshold_hours=6,
                      reminder_period_hours=4, cycle_period_hours=3),
        ]
        for cfg in configs:
            run = run_simulation(cfg)
            assert replay(run.events) == run.snapshot, cfg

        # truncation at any record boundary replays without error
        run = run_simulation(SimConfig(seed=25, horizon_days=2,
                                       arrival_rate=4, roster_size=2))
        for cut in range(len(run.events) + 1):
            assert replay(run.events[:cut]).watermark == cut


def test_09_workflow_legality(capsys):
    with criterion(capsys, 9, "workflow edge legality", 1.0):
        S = WorkflowState
        adjacency = {
            S.BACKLOG: {S.READY_TO_START, S.WORK_IN_PROGRESS, S.DONE},
            S.READY_TO_START: {S.WORK_IN_PROGRESS, S.DONE},
            S.WORK_IN_PROGRESS: {S.BLOCKED, S.READY_FOR_REVIEW, S.DONE},
            S.BLOCKED: {S.WORK_IN_PROGRESS, S.DONE},
            S.READY_FOR_REVIEW: {S.WORK_IN_PROGRESS, S.DONE},
            S.DONE: {S.BACKLOG, S.WORK_IN_PROGRESS},
        }
        checked = 0
        for frm in S:
            base = replace(ticket(), state=frm, assignee="e1",
                           state_entered_at=at(1),
                           resolved_at=at(1) if frm is S.DONE else None)
            for to in S:
                checked += 1
                if to in adjacency[frm]:
                    out = apply_transition(base, to, at(2))
                    assert out.state is to
                else:
                    with pytest.raises(TransitionError) as err:
                        apply_transition(base, to, at(2))
                    assert err.value.reason == "IllegalEdge", (frm, to)
        assert checked == 36


def test_10_simulation_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "byte-identical reruns", 30.0):
        experiment = tmp_path / "experiment.json"
        experiment.write_text(json.dumps({
            "pre": {"seed": 6, "horizon_days": 5, "arrival_rate": 10,
                    "roster_size": 5, "policy": "Manual"},
            "post": {"seed": 6, "horizon_days": 5, "arrival_rate": 10,
                     "roster_size": 5, "reminders_enabled": True,
                     "stuck_threshold_hours": 24},
        }))
        for name in ("first", "second"):
            assert main(["simulate", "--experiment", str(experiment),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        first = sorted(p.relative_to(tmp_path / "first")
                       for p in (tmp_path / "first").rglob("*")
                       if p.is_file())
        second = sorted(p.relative_to(tmp_path / "second")
                        for p in (tmp_path / "second").rglob("*")
                        if p.is_file())
        assert first == second and first
        for rel in first:
            assert (tmp_path / "first" / rel).read_bytes() == \
                (tmp_path / "second" / rel).read_bytes(), rel
