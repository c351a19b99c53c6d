from __future__ import annotations

import errno
import gc
import hashlib
import json
import statistics
import sys
import warnings
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from dispatchbot.assignment import POLICY_LEAST_OPEN, POLICY_MANUAL
from dispatchbot.board import BoardRuntime
from dispatchbot.eventlog import EventLog, encode_event, replay
from dispatchbot.reminders import MAX_HOURS, MIN_PERIOD_HOURS
from dispatchbot.sim import (
    MAX_ARRIVAL_RATE,
    MAX_HORIZON_DAYS,
    MAX_ROSTER_SIZE,
    MAX_SIGMA,
    MAX_SKEW,
    SIM_EPOCH,
    SimConfig,
    default_experiment_configs,
    engineer_ids,
    generate_ticket_stream,
    horizon_end,
    manual_assignment_model,
    run_experiment,
    run_simulation,
)
from dispatchbot.timeutil import parse_ts
from dispatchbot.workflow import WorkflowState

from .desks import MANUAL_DESK, REMINDER_DESK

SMALL = SimConfig(seed=11, horizon_days=4, arrival_rate=6, roster_size=3)

#: Five days of an overloaded four-engineer desk whose backlog, and with
#: it every open ticket's reminders, grows all run.
OVERLOAD_DESK = SimConfig(
    seed=1, horizon_days=5, arrival_rate=40, roster_size=4,
    service_median_hours=(5.0, 5.0), service_sigma=0.0,
    reminders_enabled=True, stuck_threshold_hours=8.0,
    reminder_period_hours=2.0, cycle_period_hours=1.0)


class TestTicketStream:
    def test_arrivals_only_on_business_days_in_window(self):
        stream = generate_ticket_stream(SimConfig(seed=3, horizon_days=30))
        assert stream
        for item in stream:
            ts = item["ts"]
            assert ts.weekday() < 5
            assert 9 <= ts.hour < 18

    def test_timestamps_sorted_and_ids_sequential(self):
        stream = generate_ticket_stream(SMALL)
        assert [i["ts"] for i in stream] == sorted(i["ts"] for i in stream)
        assert [i["ticket"] for i in stream] == \
            [f"SIM-{n:05d}" for n in range(1, len(stream) + 1)]

    def test_rate_matches_configuration(self):
        # law of large numbers: 200 business days at rate 20
        stream = generate_ticket_stream(
            SimConfig(seed=5, horizon_days=200, arrival_rate=20))
        per_day = len(stream) / 200
        assert per_day == pytest.approx(20, rel=0.1)

    def test_deterministic_per_seed(self):
        assert generate_ticket_stream(SMALL) == generate_ticket_stream(SMALL)
        assert generate_ticket_stream(SMALL) != \
            generate_ticket_stream(replace(SMALL, seed=12))


class TestManualModel:
    def test_zero_skew_is_roughly_uniform(self):
        cfg = SimConfig(seed=7, horizon_days=100, arrival_rate=20,
                        roster_size=5, policy=POLICY_MANUAL, manual_skew=0.0)
        plan = manual_assignment_model(generate_ticket_stream(cfg), cfg)
        counts = Counter(e for e, _ in plan.values())
        expect = len(plan) / 5
        for e in engineer_ids(cfg):
            assert counts[e] == pytest.approx(expect, rel=0.15)

    def test_high_skew_concentrates_on_one_engineer(self):
        cfg = SimConfig(seed=7, horizon_days=50, arrival_rate=20,
                        roster_size=5, policy=POLICY_MANUAL, manual_skew=8.0)
        plan = manual_assignment_model(generate_ticket_stream(cfg), cfg)
        counts = Counter(e for e, _ in plan.values())
        assert max(counts.values()) / len(plan) > 0.9

    def test_delay_bounded(self):
        cfg = SimConfig(seed=2, horizon_days=10, policy=POLICY_MANUAL,
                        manual_delay_days=2.0)
        stream = generate_ticket_stream(cfg)
        arrival = {i["ticket"]: i["ts"] for i in stream}
        plan = manual_assignment_model(stream, cfg)
        for tid, (_, assign_at) in plan.items():
            assert timedelta(0) <= assign_at - arrival[tid] < timedelta(days=2)


class TestRunSimulation:
    def test_deterministic_byte_identical_logs(self, tmp_path):
        run_simulation(SMALL, tmp_path / "a")
        run_simulation(SMALL, tmp_path / "b")
        a = (tmp_path / "a" / "SIM.events.ndjson").read_bytes()
        b = (tmp_path / "b" / "SIM.events.ndjson").read_bytes()
        assert a == b and a

    def test_conservation_audit(self):
        run = run_simulation(SMALL)
        stream = generate_ticket_stream(SMALL)
        tickets = run.snapshot.tickets
        assert set(tickets) == {i["ticket"] for i in stream}
        states = Counter(t.state for t in tickets.values())
        assert sum(states.values()) == len(stream)
        # most tickets resolve well inside a 4-day horizon plus drain cycles
        assert states[WorkflowState.DONE] >= 0.8 * len(stream)

    def test_event_timestamps_non_decreasing(self):
        run = run_simulation(SMALL)
        stamps = [parse_ts(e["ts"]) for e in run.events]
        assert stamps == sorted(stamps)

    def test_round_robin_balances_assignments(self):
        run = run_simulation(SimConfig(seed=4, horizon_days=10,
                                       arrival_rate=12, roster_size=4))
        counts = Counter(e["engineer"] for e in run.events
                         if e["kind"] == "Assigned")
        assert len(counts) == 4
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_fifo_single_engineer_hand_example(self):
        # one engineer, two tickets assigned in the same cycle: the second
        # waits for the first, so WIP starts stack back to back
        cfg = SimConfig(seed=1, horizon_days=1, arrival_rate=2,
                        roster_size=1, service_median_hours=(2.0, 2.0),
                        service_sigma=0.0)
        run = run_simulation(cfg)
        starts = sorted(parse_ts(e["ts"]) for e in run.events
                        if e["kind"] == "Transitioned"
                        and e["to"] == "WorkInProgress")
        dones = sorted(parse_ts(e["ts"]) for e in run.events
                       if e["kind"] == "Transitioned" and e["to"] == "Done")
        assert len(starts) == len(dones) == len(run.snapshot.tickets)
        for start, done in zip(starts, dones):
            assert done - start == timedelta(hours=2)
        for prev_done, next_start in zip(dones, starts[1:]):
            assert next_start >= prev_done

    def test_doubling_load_slows_resolution(self):
        base = SimConfig(seed=9, horizon_days=15, arrival_rate=10,
                         roster_size=4)
        heavy = replace(base, arrival_rate=28)

        def avg_hours(cfg):
            run = run_simulation(cfg)
            times = [(t.resolved_at - t.created_at).total_seconds() / 3600
                     for t in run.snapshot.tickets.values()
                     if t.state is WorkflowState.DONE]
            return statistics.mean(times)

        assert avg_hours(heavy) > avg_hours(base)

    def test_gamer_holds_tickets_open(self):
        cfg = SimConfig(seed=6, horizon_days=8, arrival_rate=8,
                        roster_size=4, policy=POLICY_LEAST_OPEN,
                        gamer_fraction=0.25)
        run = run_simulation(cfg)
        held = [t for t in run.snapshot.tickets.values()
                if t.assignee == "e01" and t.state
                is WorkflowState.WORK_IN_PROGRESS]
        done_by_gamer = [t for t in run.snapshot.tickets.values()
                         if t.assignee == "e01"
                         and t.state is WorkflowState.DONE]
        assert held and not done_by_gamer

    def test_replay_matches_snapshot(self):
        run = run_simulation(replace(SMALL, reassign_prob=0.2))
        assert replay(run.events) == run.snapshot

    def test_last_cycle_covers_horizon(self):
        run = run_simulation(SMALL)
        assert run.last_cycle_at >= horizon_end(SMALL)
        assert run.cycle_reports[0].now == SIM_EPOCH

    def test_reminder_log_is_pinned(self):
        # The sha256 of the bytes a file-backed log of the reminder desk's
        # events would hold.
        run = run_simulation(REMINDER_DESK)
        kinds = Counter(e["reminder_kind"] for e in run.events
                        if e["kind"] == "ReminderSent")
        assert set(kinds) == {"StuckState", "SlaImminent", "SlaBreached"}
        assert len(run.events) == 5676
        lines = "".join(encode_event(e) + "\n" for e in run.events)
        assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == \
            "88db418e26bd9ee2be65403a4c322c4d767e66685740c3c95e0fd7d122f86752"

    def test_reminder_channel_files_are_pinned(self, tmp_path):
        # The reminder desk run file-backed: the sha256 of `sha256sum`
        # over the sorted output files, as `find . -type f | sort | xargs
        # sha256sum | sha256sum` prints it from inside the directory. Its
        # reminders fan out to a second channel file, which the stock
        # listing does not cover.
        run_simulation(REMINDER_DESK, tmp_path)
        files = sorted((p for p in tmp_path.rglob("*") if p.is_file()),
                       key=lambda p: p.as_posix())
        assert {p.relative_to(tmp_path).as_posix():
                p.read_bytes().count(b"\n") for p in files} == {
            "SIM.events.ndjson": 5676, "channels/ChatA.ndjson": 1983,
            "channels/Email.ndjson": 1553}
        listing = "".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"./{p.relative_to(tmp_path).as_posix()}\n" for p in files)
        assert hashlib.sha256(listing.encode()).hexdigest() == \
            "fd6a9904f5749fa83bcbd00ab8926eca5acb1e7ccb5d906bfaf1ad0fd909c232"

    def test_manual_assignments_land_at_the_first_cycle_due(self):
        # The pre-bot manager commits each planned assignment at the first
        # cycle instant at or after its planned instant, oldest ticket
        # first, through the board's one hand-assignment command.
        cfg = SimConfig(seed=11, horizon_days=6, arrival_rate=10,
                        roster_size=3, policy=POLICY_MANUAL,
                        cycle_period_hours=4)
        run = run_simulation(cfg)
        plan = manual_assignment_model(generate_ticket_stream(cfg), cfg)
        period = timedelta(hours=cfg.cycle_period_hours)
        assigned = [e for e in run.events if e["kind"] == "Assigned"]
        assert {e["ticket"] for e in assigned} == {
            tid for tid, (_, due) in plan.items()
            if due <= run.last_cycle_at}
        order = []
        for e in assigned:
            engineer, due = plan[e["ticket"]]
            ts = parse_ts(e["ts"])
            assert (e["engineer"], e["policy"], e["cursor_after"]) == \
                (engineer, POLICY_MANUAL, None)
            assert due <= ts < due + period
            assert (ts - SIM_EPOCH) % period == timedelta(0)
            created = run.snapshot.tickets[e["ticket"]].created_at
            order.append((ts, created, e["ticket"], due))
        assert order == sorted(order)
        # Some instant commits tickets out of their planned order.
        assert [due for *_, due in order] != sorted(due for *_, due in order)

    def test_manual_reminder_log_is_pinned(self):
        # The sha256 of the bytes a file-backed log of the Manual desk's
        # events would hold.
        run = run_simulation(MANUAL_DESK)
        kinds = Counter(e["kind"] for e in run.events)
        assert kinds["Assigned"] == 129 and kinds["Reassigned"] == 31
        assert kinds["ReminderSent"] == 586
        assert len(run.events) == 2728
        lines = "".join(encode_event(e) + "\n" for e in run.events)
        assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == \
            "39a804e2c707ff2debd5b670947a9093ac7daf173bb36887980d9671911cbe61"

    @pytest.mark.parametrize("config", [REMINDER_DESK, MANUAL_DESK,
                                        OVERLOAD_DESK],
                             ids=["reminder", "manual", "overload"])
    def test_a_restart_at_every_step_writes_the_same_files(
            self, config, tmp_path, monkeypatch):
        # A board restarted from its log file before every cycle and after
        # every hand assignment writes the bytes a board that never
        # restarts writes: the runtime keeps nothing the log does not.
        # On both boards, after every command and every cycle, the log
        # keeps a line only for a message that is still pending.
        def checked(command):
            def run(runtime, *args):
                try:
                    return command(runtime, *args)
                finally:
                    assert set(runtime.log.lines) <= \
                        set(runtime.snapshot.outbox)
            return run

        for name in ("inject_ticket", "apply_external_transition",
                     "reassign_ticket", "run_cycle"):
            monkeypatch.setattr(BoardRuntime, name,
                                checked(getattr(BoardRuntime, name)))
        run_simulation(config, tmp_path / "straight")
        cycle, hand = BoardRuntime.run_cycle, BoardRuntime.reassign_ticket
        # The log's watermark at each restart, and None after each cycle.
        # A board that has neither run a cycle nor logged a record since
        # its restart is the board a second restart would build, so that
        # restart is saved.
        restarts = [None]

        def restart(runtime):
            if runtime.log.watermark != restarts[-1]:
                runtime.log.close()
                BoardRuntime.__init__(runtime, runtime.config,
                                      EventLog(runtime.log.path),
                                      runtime.sinks)
                restarts.append(runtime.log.watermark)

        def run_cycle(runtime, now):
            restart(runtime)
            report = cycle(runtime, now)
            restarts.append(None)
            return report

        def reassign_ticket(runtime, *args):
            decision = hand(runtime, *args)
            restart(runtime)
            return decision

        monkeypatch.setattr(BoardRuntime, "run_cycle", run_cycle)
        monkeypatch.setattr(BoardRuntime, "reassign_ticket", reassign_ticket)
        run = run_simulation(config, tmp_path / "restarted")
        run.runtime.log.close()

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        straight = files(tmp_path / "straight")
        assert len(restarts) - restarts.count(None) >= len(run.cycle_reports)
        assert set(straight) == {"SIM.events.ndjson", "channels/ChatA.ndjson",
                                 "channels/Email.ndjson"}
        assert files(tmp_path / "restarted") == straight


    def test_a_failed_append_closes_the_log(self, tmp_path, file_spy,
                                            monkeypatch):
        """An append that fails mid-run (a full disk) raises out of the
        run, and the log's file is closed on the way out."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        appends = []
        append = EventLog.append

        def failing_fifth(log, events):
            appends.append(len(events))
            if len(appends) == 5:
                file_spy.fail(log.path.name)
            return append(log, events)

        monkeypatch.setattr(EventLog, "append", failing_fifth)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(OSError) as err:
                run_simulation(replace(SMALL, horizon_days=2), tmp_path)
            assert err.value.errno == errno.ENOSPC and len(appends) == 5
            assert file_spy.leaked() == []
            del err
            gc.collect()
        assert unraisable == []


class TestExperiment:
    def test_default_experiment_improves_both_metrics(self, tmp_path):
        pre_cfg, post_cfg = default_experiment_configs(seed=3)
        # shrink for test speed; direction is unaffected
        pre_cfg = replace(pre_cfg, horizon_days=15)
        post_cfg = replace(post_cfg, horizon_days=15)
        _, _, cmp = run_experiment(pre_cfg, post_cfg, tmp_path)
        assert cmp.std_reduced and cmp.resolution_reduced
        assert cmp.pre.std > cmp.post.std
        assert (tmp_path / "pre" / "SIM.events.ndjson").exists()
        assert (tmp_path / "post" / "SIM.events.ndjson").exists()

    def test_null_experiment_flags_false(self):
        cfg = SimConfig(seed=8, horizon_days=5, arrival_rate=8, roster_size=3)
        _, _, cmp = run_experiment(cfg, cfg)
        assert not cmp.std_reduced
        assert not cmp.resolution_reduced
        assert cmp.post.std == cmp.pre.std

    def test_file_channels_receive_wire_messages(self, tmp_path):
        run_simulation(SMALL, tmp_path)
        lines = (tmp_path / "channels" / "ChatA.ndjson").read_text()
        first = json.loads(lines.splitlines()[0])
        assert set(first) == {"msg_id", "team", "channel", "kind", "ticket",
                              "text", "ts"}


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = SimConfig.from_dict({"seed": 3, "horizon_days": 5,
                                   "service_median_hours": [1.0, 2.0]})
        assert cfg.service_median_hours == (1.0, 2.0)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            SimConfig.from_dict({"sneed": 3})

    @pytest.mark.parametrize("hours", [0, -1, 1e-12, 0.0166, float("nan"),
                                       float("inf"), MAX_HOURS * 1.001])
    def test_cycle_period_must_advance_the_clock(self, hours):
        # Each of these once ran `run_simulation` forever, or would sleep
        # `run --loop` past what `time.sleep` takes.
        with pytest.raises(ValueError, match="cycle_period_hours must be in"):
            SimConfig(cycle_period_hours=hours)
        with pytest.raises(ValueError, match="cycle_period_hours must be in"):
            SimConfig.from_dict({"cycle_period_hours": hours})

    def test_cycle_period_bounds_are_accepted(self):
        assert SimConfig(cycle_period_hours=1 / 60).cycle_period_hours == 1 / 60
        assert SimConfig(cycle_period_hours=MAX_HOURS).cycle_period_hours \
            == MAX_HOURS

    def test_every_bound_is_accepted(self):
        SimConfig(horizon_days=MAX_HORIZON_DAYS, arrival_rate=MAX_ARRIVAL_RATE,
                  roster_size=MAX_ROSTER_SIZE,
                  service_median_hours=(MAX_HOURS, MAX_HOURS),
                  service_sigma=MAX_SIGMA, reassign_prob=1, gamer_fraction=1,
                  gamer_hold_fraction=1, manual_skew=MAX_SKEW,
                  manual_delay_days=MAX_HOURS / 24,
                  stuck_threshold_hours=MAX_HOURS,
                  reminder_period_hours=MAX_HOURS, sla_warning_fraction=1)
        SimConfig(horizon_days=1, roster_size=1, service_sigma=0,
                  reassign_prob=0, gamer_fraction=0, gamer_hold_fraction=0,
                  manual_skew=0, manual_delay_days=0, seed=-3,
                  reminder_period_hours=MIN_PERIOD_HOURS)

    @pytest.mark.parametrize("field, value", [
        ("horizon_days", MAX_HORIZON_DAYS + 1), ("horizon_days", 20.0),
        ("horizon_days", True), ("arrival_rate", MAX_ARRIVAL_RATE * 1.01),
        ("arrival_rate", 10 ** 400), ("roster_size", MAX_ROSTER_SIZE + 1),
        ("service_median_hours", (2.0,)),
        ("service_median_hours", (3.0, 2.0)),
        ("service_median_hours", [1.0, 2.0]),
        ("service_median_hours", (0, 2.0)),
        ("service_sigma", MAX_SIGMA * 1.01), ("manual_skew", MAX_SKEW + 1),
        ("manual_delay_days", float("inf")), ("seed", True),
        ("reassign_prob", "0.5"), ("stuck_threshold_hours", -1.0),
        ("reminder_period_hours", 1e-12),
        ("reminder_period_hours", MIN_PERIOD_HOURS * 0.999)])
    def test_out_of_range_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SimConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(arrival_rate=0)
        with pytest.raises(ValueError):
            SimConfig(policy="Astrology")
        with pytest.raises(ValueError):
            SimConfig(reassign_prob=1.5)
