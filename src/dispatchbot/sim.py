"""Discrete-event simulation of reporters, engineers and assignment
policies on a virtual clock.

The simulator drives the production BoardRuntime cycle rather than a
shortcut path, so every run doubles as an integration test of the bot:
tickets arrive Poisson on business days, engineers serve FIFO queues with
lognormal service times, and the pre-bot period is modeled as delayed
manual assignment with a Zipf-skewed engineer preference.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta
from pathlib import Path

from .assignment import POLICIES, POLICY_MANUAL, POLICY_ROUND_ROBIN
from .board import BoardRuntime, CycleReport, TeamConfig
from .eventlog import BoardSnapshot, EventLog
from .metrics import (
    ComparisonReport,
    PeriodReport,
    compare_periods,
    period_report,
)
from .notify import Channel, ChannelBinding, FileSink, MemorySink
from .reminders import (DEFAULT_STUCK_HOURS, MAX_HOURS, MIN_PERIOD_HOURS,
                        ThresholdPolicy)
from .roster import EngineerRoster, RosterEntry
from .timeutil import UTC, SECOND, business_days
from .workflow import WorkflowState

#: Virtual epoch; a Monday, so business-day arithmetic starts cleanly.
SIM_EPOCH = datetime(2025, 1, 6, tzinfo=UTC)

ARRIVAL_WINDOW_START_H = 9
ARRIVAL_WINDOW_END_H = 18

# Upper bounds of the numeric `SimConfig` fields whose arithmetic has
# none of its own. They keep one field from breaking a run; an extreme
# mix of fields can still push the virtual clock past the year 9999,
# which `simulate` reports as a failed run (exit 2).
#: About 100 years of business days, as for the longest reminder period.
MAX_HORIZON_DAYS = 26_000
#: `_poisson` needs `exp(-rate)` to be a normal float: it is subnormal
#: past 708 and 0 past 745.
MAX_ARRIVAL_RATE = 700.0
MAX_ROSTER_SIZE = 10_000
MAX_SIGMA = 10.0
#: Here the second-ranked engineer already weighs 2^-100 of the first.
MAX_SKEW = 100.0


def _check_range(name: str, value, least: float, most: float, *,
                 integer: bool = False, above: bool = False) -> None:
    """Raise ValueError unless `value` is an int (when `integer`) or a
    finite number in [least, most], or in (least, most] when `above`. A
    bool is neither; NaN fails every comparison."""
    number = type(value) is int or (not integer and type(value) is float)
    if not (number and (least < value if above else least <= value)
            and value <= most):
        low = "(" if above else "["
        raise ValueError(f"{name} must be {'an integer ' * integer}in "
                         f"{low}{least:g}, {most:g}], got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 1
    horizon_days: int = 20            # business days
    arrival_rate: float = 30.0        # mean tickets per business day
    roster_size: int = 14
    policy: str = POLICY_ROUND_ROBIN  # RoundRobin | Expertise | LeastOpen | Manual
    service_median_hours: tuple[float, float] = (2.0, 8.0)
    service_sigma: float = 0.6
    reassign_prob: float = 0.0
    gamer_fraction: float = 0.0       # fraction of engineers that game
    gamer_hold_fraction: float = 1.0  # fraction of a gamer's tickets held open
    manual_skew: float = 1.0          # Zipf exponent for the pre-bot model
    manual_delay_days: float = 3.0    # max manual-assignment delay (business days)
    cycle_period_hours: float = 6.0
    reminders_enabled: bool = False
    stuck_threshold_hours: float | None = None
    reminder_period_hours: float = 24.0
    sla_warning_fraction: float = 0.2
    team_id: str = "sim"
    board_id: str = "SIM"

    def __post_init__(self) -> None:
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _check_range("horizon_days", self.horizon_days, 1, MAX_HORIZON_DAYS,
                     integer=True)
        _check_range("arrival_rate", self.arrival_rate, 0, MAX_ARRIVAL_RATE,
                     above=True)
        _check_range("roster_size", self.roster_size, 1, MAX_ROSTER_SIZE,
                     integer=True)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy: {self.policy}")
        medians = self.service_median_hours
        if type(medians) is not tuple or len(medians) != 2:
            raise ValueError(f"service_median_hours must be two numbers, "
                             f"got {medians!r}")
        for median in medians:
            _check_range("service_median_hours", median, 0, MAX_HOURS,
                         above=True)
        if medians[0] > medians[1]:
            raise ValueError(f"service_median_hours must be (low, high), "
                             f"got {medians!r}")
        _check_range("service_sigma", self.service_sigma, 0, MAX_SIGMA)
        for name in ("reassign_prob", "gamer_fraction",
                     "gamer_hold_fraction"):
            _check_range(name, getattr(self, name), 0, 1)
        _check_range("manual_skew", self.manual_skew, 0, MAX_SKEW)
        _check_range("manual_delay_days", self.manual_delay_days, 0,
                     MAX_HOURS / 24)
        # At least `run`'s one minute, so every cycle advances the clock.
        _check_range("cycle_period_hours", self.cycle_period_hours, 1 / 60,
                     MAX_HOURS)
        if type(self.reminders_enabled) is not bool:
            raise ValueError(f"reminders_enabled must be true or false, "
                             f"got {self.reminders_enabled!r}")
        # The reminder fields are checked with reminders off too, so a
        # config that is valid stays valid when they are turned on.
        if self.stuck_threshold_hours is not None:
            _check_range("stuck_threshold_hours", self.stuck_threshold_hours,
                         0, MAX_HOURS, above=True)
        _check_range("reminder_period_hours", self.reminder_period_hours,
                     MIN_PERIOD_HOURS, MAX_HOURS)
        _check_range("sla_warning_fraction", self.sla_warning_fraction, 0, 1,
                     above=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown SimConfig keys: {sorted(unknown)}")
        if "service_median_hours" in raw:
            raw = dict(raw)
            raw["service_median_hours"] = tuple(raw["service_median_hours"])
        return cls(**raw)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's product method; adequate for desk-scale rates."""
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while p > limit:
        k += 1
        p *= rng.random()
    return k - 1


def engineer_ids(config: SimConfig) -> list[str]:
    return [f"e{i:02d}" for i in range(1, config.roster_size + 1)]


def sim_roster(config: SimConfig) -> EngineerRoster:
    return EngineerRoster(
        config.team_id,
        [RosterEntry(engineer_id=e) for e in engineer_ids(config)],
    )


def horizon_end(config: SimConfig) -> datetime:
    last = business_days(SIM_EPOCH.date(), config.horizon_days)[-1]
    return datetime(last.year, last.month, last.day, tzinfo=UTC) + timedelta(days=1)


def generate_ticket_stream(config: SimConfig) -> list[dict]:
    """Poisson arrivals per business day, uniform within 09:00-18:00 UTC,
    fully determined by the seed. Weekends get no arrivals."""
    rng = random.Random(f"{config.seed}:arrivals")
    window = (ARRIVAL_WINDOW_END_H - ARRIVAL_WINDOW_START_H) * 3600
    out: list[dict] = []
    n = 0
    for day in business_days(SIM_EPOCH.date(), config.horizon_days):
        count = _poisson(rng, config.arrival_rate)
        offsets = sorted(int(rng.random() * window) for _ in range(count))
        base = datetime(day.year, day.month, day.day,
                        ARRIVAL_WINDOW_START_H, tzinfo=UTC)
        for off in offsets:
            n += 1
            out.append({
                "ts": base + timedelta(seconds=off),
                "ticket": f"{config.board_id}-{n:05d}",
                "reporter": f"r{rng.randint(1, 200):03d}",
                "priority": rng.choices(
                    ["Low", "Medium", "High"], weights=(1, 2, 1))[0],
            })
    return out


def service_medians(config: SimConfig) -> dict[str, float]:
    """Per-engineer lognormal medians (hours), drawn once per run."""
    rng = random.Random(f"{config.seed}:service")
    lo, hi = config.service_median_hours
    return {e: rng.uniform(lo, hi) for e in engineer_ids(config)}


def gamer_engineers(config: SimConfig) -> set[str]:
    count = round(config.gamer_fraction * config.roster_size)
    return set(engineer_ids(config)[:count])


def manual_assignment_model(stream: list[dict], config: SimConfig,
                            ) -> dict[str, tuple[str, datetime]]:
    """Pre-bot behavior: a manager assigns each ticket independently with
    probability proportional to rank^(-s) over a seeded random engineer
    ranking, after a uniform delay of up to manual_delay_days business-day
    equivalents. s = 0 degenerates to a uniform pick."""
    rng = random.Random(f"{config.seed}:manual")
    ranking = engineer_ids(config)
    rng.shuffle(ranking)
    weights = [(r + 1) ** (-config.manual_skew) for r in range(len(ranking))]
    max_delay_s = config.manual_delay_days * 24 * 3600
    plan: dict[str, tuple[str, datetime]] = {}
    for item in stream:
        engineer = rng.choices(ranking, weights=weights)[0]
        delay = timedelta(seconds=int(rng.random() * max_delay_s))
        plan[item["ticket"]] = (engineer, item["ts"] + delay)
    return plan


def _sim_thresholds(config: SimConfig) -> ThresholdPolicy | None:
    if not config.reminders_enabled:
        return None
    stuck = dict(DEFAULT_STUCK_HOURS)
    if config.stuck_threshold_hours is not None:
        stuck = {s: config.stuck_threshold_hours for s in stuck}
    return ThresholdPolicy(
        team_id=config.team_id,
        stuck_hours=stuck,
        sla_warning_fraction=config.sla_warning_fraction,
        reminder_period_hours=config.reminder_period_hours,
    )


def _sim_team_config(config: SimConfig, out_dir: Path | None) -> TeamConfig:
    channel_dir = str(out_dir / "channels") if out_dir is not None else "memory"
    binding = ChannelBinding(
        team_id=config.team_id,
        endpoints={Channel.CHAT_A: channel_dir, Channel.EMAIL: channel_dir},
        review_channel=Channel.CHAT_A,
    )
    return TeamConfig(
        team_id=config.team_id,
        board_id=config.board_id,
        roster=sim_roster(config),
        binding=binding,
        policy=config.policy,
        thresholds=_sim_thresholds(config),
        cycle_period_minutes=int(config.cycle_period_hours * 60),
    )


@dataclass
class SimRun:
    config: SimConfig
    runtime: BoardRuntime
    cycle_reports: list[CycleReport]
    last_cycle_at: datetime

    @property
    def snapshot(self) -> BoardSnapshot:
        return self.runtime.snapshot

    @property
    def events(self) -> list[dict]:
        return self.runtime.log.events


def run_simulation(config: SimConfig, out_dir: str | Path | None = None) -> SimRun:
    """Run one full simulation through the production cycle machinery."""
    out_path = Path(out_dir) if out_dir is not None else None
    team_cfg = _sim_team_config(config, out_path)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log = EventLog(out_path / f"{config.board_id}.events.ndjson")
        shared = FileSink(out_path / "channels")
    else:
        log = EventLog()
        shared = MemorySink()
    sinks = {c: shared for c in team_cfg.binding.endpoints}

    stream = generate_ticket_stream(config)
    plan = (manual_assignment_model(stream, config)
            if config.policy == POLICY_MANUAL else {})
    runtime = BoardRuntime(team_cfg, log=log, sinks=sinks)

    medians = service_medians(config)
    gamers = gamer_engineers(config)
    proc_rng = random.Random(f"{config.seed}:proc")
    engineers = engineer_ids(config)
    busy_until = {e: SIM_EPOCH for e in engineers}

    end = horizon_end(config)
    period = timedelta(hours=config.cycle_period_hours)
    # Outside events, arrivals first at one instant, each kind in the order
    # made: the next arrival (instant, 0, stream index), whose pop pushes
    # the one after and the manager's planned assignment (instant, 2,
    # created, tid), and engineer moves (instant, 1, order, tid, state, who).
    made = itertools.count()
    world: list[tuple] = [(stream[0]["ts"], 0, 0)] if stream else []
    now = SIM_EPOCH
    reports: list[CycleReport] = []

    while True:
        due = []
        while world and world[0][0] <= now:
            entry = heapq.heappop(world)
            if entry[1] == 1:
                at, _, _, tid, to_state, engineer = entry
                runtime.apply_external_transition(tid, to_state, at, engineer)
                continue
            if entry[1] == 2:
                due.append(entry[2:])
                continue
            i = entry[2]
            runtime.inject_ticket(stream[i]["ticket"], stream[i]["reporter"],
                                  entry[0], stream[i]["priority"])
            if plan:
                heapq.heappush(world, (plan[stream[i]["ticket"]][1], 2,
                                       entry[0], stream[i]["ticket"]))
            if i + 1 < len(stream):
                heapq.heappush(world, (stream[i + 1]["ts"], 0, i + 1))

        # The manager's due assignments, by (created_at, id), at `now`.
        assignments = [(tid, plan[tid][0]) for _, tid in sorted(due)]
        for tid, engineer in assignments:
            runtime.reassign_ticket(tid, engineer, now)

        report = runtime.run_cycle(now)
        reports.append(report)

        # Schedule engineer service for this cycle's assignments.
        for tid, engineer in assignments + report.assignments:
            if (config.reassign_prob > 0
                    and proc_rng.random() < config.reassign_prob
                    and len(engineers) > 1):
                engineer = proc_rng.choice(
                    [e for e in engineers if e != engineer])
                runtime.reassign_ticket(tid, engineer, now)
            median = medians[engineer]
            service_h = median * math.exp(
                config.service_sigma * proc_rng.gauss(0.0, 1.0))
            service = timedelta(seconds=max(1, round(service_h * 3600)))
            created = runtime.snapshot.tickets[tid].created_at
            start = max(now + SECOND, busy_until[engineer], created + SECOND)
            heapq.heappush(world, (start, 1, next(made), tid,
                                   WorkflowState.WORK_IN_PROGRESS, engineer))
            busy_until[engineer] = start + service
            held = (engineer in gamers
                    and proc_rng.random() < config.gamer_hold_fraction)
            if not held:
                heapq.heappush(world, (start + service, 1, next(made), tid,
                                       WorkflowState.DONE, engineer))

        if now >= end:
            break
        now += period

    log.close()
    return SimRun(config=config, runtime=runtime, cycle_reports=reports,
                  last_cycle_at=now)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def build_reports(run: SimRun, label: str) -> PeriodReport:
    """The report over a run's tickets, zero counts kept for the whole
    roster."""
    return period_report(run.config.team_id, label,
                         run.snapshot.tickets.values(),
                         engineer_ids(run.config))


def run_experiment(
    pre_config: SimConfig,
    post_config: SimConfig,
    out_dir: str | Path | None = None,
) -> tuple[SimRun, SimRun, ComparisonReport]:
    """Run the pre-bot and post-bot simulations and compare them."""
    out_path = Path(out_dir) if out_dir is not None else None
    pre_run = run_simulation(
        pre_config, out_path / "pre" if out_path else None)
    post_run = run_simulation(
        post_config, out_path / "post" if out_path else None)
    comparison = compare_periods(build_reports(pre_run, "PreBot"),
                                 build_reports(post_run, "PostBot"))
    return pre_run, post_run, comparison


def default_experiment_configs(seed: int) -> tuple[SimConfig, SimConfig]:
    """The stock pre/post pair: skewed delayed manual assignment versus
    round-robin, same roster, arrivals and service models."""
    pre = SimConfig(
        seed=seed,
        horizon_days=60,
        arrival_rate=30.0,
        roster_size=14,
        policy=POLICY_MANUAL,
        manual_skew=1.0,
        manual_delay_days=3.0,
    )
    post = replace(pre, policy=POLICY_ROUND_ROBIN, reassign_prob=0.05)
    return pre, post
