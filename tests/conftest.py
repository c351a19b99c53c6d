from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from dispatchbot.board import BoardRuntime, TeamConfig
from dispatchbot.eventlog import EventLog
from dispatchbot.notify import Channel, ChannelBinding, MemorySink
from dispatchbot.reminders import ThresholdPolicy
from dispatchbot.roster import EngineerRoster, RosterEntry
from dispatchbot.workflow import Priority, new_ticket

UTC = timezone.utc

#: A Monday morning; all relative times in tests hang off this.
T0 = datetime(2025, 1, 6, 9, 0, 0, tzinfo=UTC)


def at(hours: float = 0, seconds: int = 0) -> datetime:
    return T0 + timedelta(hours=hours, seconds=seconds)


def ticket(tid: str = "T1-1", reporter: str = "r1", created=None,
           priority: Priority = Priority.MEDIUM, sla_deadline=None,
           labels=()):
    return new_ticket(tid, reporter, created or T0, priority, sla_deadline,
                      tuple(labels))


def roster(*engineer_ids: str, team_id: str = "team1") -> EngineerRoster:
    ids = engineer_ids or ("e1", "e2", "e3")
    return EngineerRoster(team_id, [RosterEntry(e) for e in ids])


def binding(team_id: str = "team1",
            channels=(Channel.CHAT_A, Channel.CHAT_B, Channel.EMAIL),
            review=Channel.CHAT_A) -> ChannelBinding:
    return ChannelBinding(team_id,
                          {c: f"unused/{c.value}" for c in channels}, review)


def team_config(engineers=("e1", "e2", "e3"), policy="RoundRobin",
                thresholds: ThresholdPolicy | None = None,
                expertise=None) -> TeamConfig:
    return TeamConfig(
        team_id="team1",
        board_id="T1",
        roster=roster(*engineers),
        binding=binding(),
        policy=policy,
        thresholds=thresholds,
        expertise=expertise,
    )


@pytest.fixture
def memory_runtime():
    """BoardRuntime with an in-memory log and one shared memory sink."""

    def build(config: TeamConfig | None = None):
        config = config or team_config()
        sink = MemorySink()
        runtime = BoardRuntime(
            config, log=EventLog(),
            sinks={c: sink for c in config.binding.endpoints})
        runtime.memory_sink = sink
        return runtime

    return build
