"""The benchmark workloads: inputs made from a seed, one timed sample,
and the correctness gate.

Every workload is a closed loop on the simulator's virtual clock: the
next cycle starts as soon as the previous one returns. One sample is one
operation the benchmark repeats for the length of a run:

- stock: `dispatchbot simulate --seed S` through `cli.main`, the paper's
  60-business-day pre/post experiment with file-backed logs and sinks.
- overload: a backlogged 4-engineer desk whose reminders escalate, run in
  memory. Loads `reminders`, the reminder-ledger fold and the outbox walk.
- big_team: 300 engineers on the production 15-minute cadence, in memory.
  Loads `roster.available_pool` and the per-cycle fixed cost.

After its simulation, each sample restarts from the log it made, as after
a crash: it opens a copy, rebuilds the board and runs the next cycle.
On overload that log holds about 40k events, so `restart_s` there
measures the parser and the fold at scale.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from dispatchbot import cli, sim
from dispatchbot.board import (
    DEFAULT_CYCLE_PERIOD_MINUTES,
    BoardRuntime,
    TeamConfig,
)
from dispatchbot.eventlog import (
    KIND_ASSIGNED,
    EventLog,
    encode_event,
    read_event_log,
    replay,
)
from dispatchbot.notify import Channel, ChannelBinding, MemorySink
from dispatchbot.reminders import DEFAULT_STUCK_HOURS, ThresholdPolicy
from dispatchbot.sim import (
    ARRIVAL_WINDOW_END_H,
    ARRIVAL_WINDOW_START_H,
    SIM_EPOCH,
    SimConfig,
    default_experiment_configs,
    engineer_ids,
    generate_ticket_stream,
    horizon_end,
    sim_roster,
)
from dispatchbot.timeutil import UTC, business_days, parse_ts

from tracing import Patches

#: Speed probes taken on each side of a restart.
RESTART_PROBES = 5
#: How far an overload arrival stream's ticket-hours may stray from their
#: mean (see `overload_seed`).
LOAD_TOLERANCE = 0.01


def overload_config(sim_seed: int) -> SimConfig:
    """Four engineers who each take exactly 5 h per ticket, against 40
    arrivals a day: the backlog, and with it every open ticket's stuck
    and SLA reminders, grows all run."""
    return SimConfig(seed=sim_seed, horizon_days=10, arrival_rate=40.0,
                     roster_size=4, service_median_hours=(5.0, 5.0),
                     service_sigma=0.0, reminders_enabled=True,
                     stuck_threshold_hours=8.0, reminder_period_hours=2.0,
                     cycle_period_hours=1.0)


def big_team_config(seed: int) -> SimConfig:
    return SimConfig(seed=seed, horizon_days=10, arrival_rate=100.0,
                     roster_size=300, reminders_enabled=True,
                     reassign_prob=0.05,
                     cycle_period_hours=DEFAULT_CYCLE_PERIOD_MINUTES / 60)


def _ticket_hours(config: SimConfig) -> tuple[float, float]:
    """Open ticket-hours the arrival stream brings before the horizon
    ends, if nothing were served: (this stream's, the mean over
    streams)."""
    end = horizon_end(config)
    hours = sum((end - t["ts"]).total_seconds()
                for t in generate_ticket_stream(config)) / 3600
    mid = (ARRIVAL_WINDOW_START_H + ARRIVAL_WINDOW_END_H) / 2
    mean = sum(
        config.arrival_rate
        * ((end - datetime(d.year, d.month, d.day, tzinfo=UTC))
           .total_seconds() / 3600 - mid)
        for d in business_days(SIM_EPOCH.date(), config.horizon_days))
    return hours, mean


def overload_seed(seed: int) -> int:
    """The simulator seed for benchmark seed `seed`: the first of
    seed*100000, seed*100000+1, ... whose arrival stream brings ticket-
    hours within LOAD_TOLERANCE of their mean.

    An overloaded desk's work grows with the square of its backlog, so
    unconditioned seeds differ by 2x in events; this keeps every seed's
    load equal while the seed still picks the stream.
    """
    for k in range(100000):
        candidate = seed * 100000 + k
        hours, mean = _ticket_hours(overload_config(candidate))
        if abs(hours / mean - 1) <= LOAD_TOLERANCE:
            return candidate
    raise ValueError(f"no arrival stream near the mean load for {seed}")


def parameters(workload: str, seed: int, inputs: dict) -> dict:
    """The generated inputs of a workload, as plain data."""
    if workload == "stock":
        pre, post = default_experiment_configs(seed)
        return {"pre": _config_dict(pre), "post": _config_dict(post)}
    if workload == "big_team":
        return _config_dict(big_team_config(seed))
    return _config_dict(overload_config(inputs["sim_seed"]))


def _config_dict(config: SimConfig) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(config).items()}


def sim_team_config(config: SimConfig) -> TeamConfig:
    """The team configuration `run_simulation` builds for an in-memory
    run, rebuilt from public names so a log can be restarted."""
    binding = ChannelBinding(
        team_id=config.team_id,
        endpoints={Channel.CHAT_A: "memory", Channel.EMAIL: "memory"},
        review_channel=Channel.CHAT_A,
    )
    thresholds = None
    if config.reminders_enabled:
        stuck = dict(DEFAULT_STUCK_HOURS)
        if config.stuck_threshold_hours is not None:
            stuck = {s: config.stuck_threshold_hours for s in stuck}
        thresholds = ThresholdPolicy(
            team_id=config.team_id, stuck_hours=stuck,
            sla_warning_fraction=config.sla_warning_fraction,
            reminder_period_hours=config.reminder_period_hours)
    return TeamConfig(
        team_id=config.team_id, board_id=config.board_id,
        roster=sim_roster(config), binding=binding, policy=config.policy,
        thresholds=thresholds,
        cycle_period_minutes=int(config.cycle_period_hours * 60))


def sha256_files(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sha256_events(events: list[dict]) -> str:
    """Digest of the bytes a file-backed log of `events` would hold."""
    digest = hashlib.sha256()
    for event in events:
        digest.update((encode_event(event) + "\n").encode("utf-8"))
    return digest.hexdigest()


def dump_log(events: list[dict], path: Path) -> None:
    """Write the bytes `EventLog.append` would write, without calling it,
    so a traced sample counts only the appends the program made."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(encode_event(e) + "\n" for e in events)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check_events(events: list[dict], snapshot) -> list[str]:
    """Seq numbers are contiguous and live state equals replay."""
    problems = []
    if [e["seq"] for e in events] != list(range(1, len(events) + 1)):
        problems.append("seq numbers not contiguous")
    if replay(events) != snapshot:
        problems.append("live snapshot differs from replay")
    return problems


def check_log(events: list[dict], snapshot, path: Path) -> list[str]:
    """`check_events`, and the file reads back as the in-memory events
    and passes `dispatchbot replay --assert`."""
    problems = [f"{path.name}: {p}" for p in check_events(events, snapshot)]
    if read_event_log(path) != events:
        problems.append(f"{path.name}: file differs from in-memory events")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["replay", "--log", str(path), "--assert"])
    if code != 0 or "consistency ok" not in out.getvalue():
        problems.append(f"{path.name}: replay --assert failed: "
                        f"{out.getvalue().strip()}")
    return problems


def check_fairness(events: list[dict], config: SimConfig) -> list[str]:
    counts = Counter(e["engineer"] for e in events
                     if e["kind"] == KIND_ASSIGNED)
    per_engineer = [counts.get(e, 0) for e in engineer_ids(config)]
    if max(per_engineer) - min(per_engineer) > 1:
        return [f"Assigned counts differ by more than 1: "
                f"{min(per_engineer)}..{max(per_engineer)}"]
    return []


# ---------------------------------------------------------------------------
# Restart
# ---------------------------------------------------------------------------

@dataclass
class Restarted:
    path: Path
    restart_s: float           # EventLog(path) + BoardRuntime + one cycle
    runtime: BoardRuntime


def next_cycle_after(ts: datetime, period: timedelta) -> datetime:
    """The simulator's first cycle instant strictly after `ts`."""
    return SIM_EPOCH + ((ts - SIM_EPOCH) // period + 1) * period


def restart(path: Path, config: SimConfig) -> Restarted:
    """Open an existing log, rebuild the board and run the cycle due
    after its last event."""
    team = sim_team_config(config)
    period = timedelta(minutes=team.cycle_period_minutes)
    t0 = time.perf_counter()
    log = EventLog(path)
    shared = MemorySink()
    runtime = BoardRuntime(team, log=log,
                           sinks={c: shared for c in team.binding.endpoints})
    runtime.run_cycle(next_cycle_after(parse_ts(log.events[-1]["ts"]),
                                       period))
    restart_s = time.perf_counter() - t0
    log.close()
    return Restarted(path, restart_s, runtime)


def check_restart(restarted: Restarted, before: list[dict]) -> list[str]:
    """The restarted log begins with the events it was restarted from,
    and passes `check_log`."""
    runtime = restarted.runtime
    problems = []
    if runtime.log.events[:len(before)] != before:
        problems.append(f"{restarted.path.name}: restart read back other "
                        f"events than were written")
    return problems + check_log(runtime.log.events, runtime.snapshot,
                                restarted.path)


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One timed operation and what the gate needs to check it."""
    events: int = 0            # events committed
    busy_s: float = 0.0        # time `events` took
    cycles_ms: list = field(default_factory=list)
    slowdown: float = 1.0      # machine's, over busy_s (see speed.py)
    restart_s: float = 0.0
    restart_slowdown: float = 1.0
    operations: int = 0        # cycles and restarts
    outbox_size: int = 0
    ledger_size: int = 0
    log_bytes: int = 0         # size of its event log on disk
    problems: list = field(default_factory=list)


class Workload:
    """`sample()` runs one timed operation in `work`; `check()` runs the
    full gate on what the last sample kept and sets `log_sha256`."""

    def __init__(self, seed: int, work: Path, timer, inputs: dict):
        self.seed = seed
        self.work = work
        self.timer = timer          # CycleTimer over simulated cycles
        self.inputs = inputs
        self.kept = None
        self.log_sha256 = ""
        self.count = 0

    def fresh_dir(self) -> Path:
        self.count += 1
        path = self.work / f"sample-{self.count}"
        path.mkdir(parents=True)
        return path

    def discard(self) -> None:
        self.kept = None
        shutil.rmtree(self.work / f"sample-{self.count}")

    @contextlib.contextmanager
    def timed(self, s: Sample):
        """Time the block as `s.busy_s`, with its cycles and the machine's
        slowdown over them; time spent probing the speed is left out."""
        speed = self.timer.speed
        first_cycle, first_probe = len(self.timer.durations), len(speed.times)
        probing_s = speed.spent_s
        t0 = time.perf_counter()
        with self.timer.running():
            yield
        s.busy_s = time.perf_counter() - t0 - (speed.spent_s - probing_s)
        s.cycles_ms = [d * 1e3 for d in self.timer.durations[first_cycle:]]
        s.slowdown = speed.slowdown(first_probe)

    def restart(self, s: Sample, path: Path, config: SimConfig) -> Restarted:
        """`restart`, between speed probes."""
        speed = self.timer.speed
        first_probe = len(speed.times)
        speed.probe(RESTART_PROBES)
        restarted = restart(path, config)
        speed.probe(RESTART_PROBES)
        s.restart_s = restarted.restart_s
        s.restart_slowdown = speed.slowdown(first_probe)
        s.operations = len(s.cycles_ms) + 1
        return restarted


class Stock(Workload):
    def sample(self) -> Sample:
        out_dir = self.fresh_dir()
        runs = []
        inner = sim.run_simulation

        def capture(*args, **kwargs):
            run = inner(*args, **kwargs)
            runs.append(run)
            return run

        patches = Patches()
        patches.set(sim, "run_simulation", capture)
        s = Sample()
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), self.timed(s):
                code = cli.main(["simulate", "--seed", str(self.seed),
                                 "--out", str(out_dir)])
        finally:
            patches.undo()
        logs = [out_dir / part / "SIM.events.ndjson"
                for part in ("pre", "post")]
        s.events = sum(len(run.events) for run in runs)
        s.log_bytes = sum(path.stat().st_size for path in logs)
        s.outbox_size = sum(len(run.snapshot.outbox) for run in runs)
        s.ledger_size = sum(len(run.snapshot.reminder_ledger) for run in runs)
        if code != 0:
            s.problems.append(f"simulate exited {code}")
        elif stdout.getvalue() != \
                (out_dir / "comparison.txt").read_text(encoding="utf-8"):
            s.problems.append("simulate printed a different table")

        copy = out_dir / "restart.events.ndjson"
        shutil.copyfile(logs[1], copy)
        restarted = self.restart(s, copy, runs[1].config)
        self.kept = (runs, logs, restarted)
        return s

    def check(self) -> list[str]:
        runs, logs, restarted = self.kept
        self.log_sha256 = sha256_files(*logs)
        problems = []
        for run, path in zip(runs, logs):
            problems += check_log(run.events, run.snapshot, path)
        problems += check_fairness(runs[1].events, runs[1].config)
        return problems + check_restart(restarted, runs[1].events)


class InMemory(Workload):
    """overload and big_team: `run_simulation` without an output dir."""

    def __init__(self, config: SimConfig, fair: bool, *args):
        super().__init__(*args)
        self.config = config
        self.fair = fair

    def sample(self) -> Sample:
        s = Sample()
        with self.timed(s):
            run = sim.run_simulation(self.config)
        s.events = len(run.events)
        s.outbox_size = len(run.snapshot.outbox)
        s.ledger_size = len(run.snapshot.reminder_ledger)

        path = self.fresh_dir() / "restart.events.ndjson"
        dump_log(run.events, path)
        s.log_bytes = path.stat().st_size
        restarted = self.restart(s, path, self.config)
        self.kept = (run, restarted)
        return s

    def check(self) -> list[str]:
        run, restarted = self.kept
        self.log_sha256 = sha256_events(run.events)
        problems = check_events(run.events, run.snapshot)
        if self.fair:
            problems += check_fairness(run.events, self.config)
        return problems + check_restart(restarted, run.events)


def build_inputs(workload: str, seed: int) -> dict:
    """Set-up beyond the import: overload picks its simulator seed."""
    if workload == "overload":
        return {"sim_seed": overload_seed(seed)}
    return {}


def make(workload: str, seed: int, work: Path, timer, inputs: dict):
    args = (seed, work, timer, inputs)
    if workload == "stock":
        return Stock(*args)
    if workload == "overload":
        return InMemory(overload_config(inputs["sim_seed"]), False, *args)
    return InMemory(big_team_config(seed), True, *args)
