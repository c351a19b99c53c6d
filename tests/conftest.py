from __future__ import annotations

import errno
import io
import os
from datetime import datetime, timedelta, timezone

import pytest

from dispatchbot import timeutil
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


def clear_codec() -> None:
    """Empty both directions of the timestamp codec's cache, so that every
    instant is new to it. A message's line needs no clearing: the log
    that wrote it keeps it (`EventLog.lines`)."""
    timeutil.iso.cache_clear()
    timeutil._PARSED.clear()


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


class FileSpy:
    """What the `file_spy` fixture saw of the files `AppendWriter` opened:
    the file name of each open and of each write, and each raw file it
    opened (`handles`). `fail` makes the writes to a file fail;
    `cut_fails` holds the file names whose cut (`truncate`) fails too."""

    def __init__(self):
        self.opens: list[str] = []
        self.handles: list[io.FileIO] = []
        self.writes: list[str] = []
        #: file name -> (bytes kept, short): see `fail`.
        self.faults: dict[str, tuple[int | float, bool]] = {}
        self.cut_fails: set[str] = set()

    def fail(self, name: str, keep: int | float = 0,
             short: bool = False) -> None:
        """Make every write to file `name` write only its first `keep`
        bytes (a float: that share of them) and then raise ENOSPC, or with
        `short`, return the count it wrote."""
        self.faults[name] = (keep, short)

    def heal(self) -> None:
        self.faults.clear()
        self.cut_fails.clear()

    def leaked(self) -> list[str]:
        """The file names of the raw files not closed."""
        return [fh.base for fh in self.handles if not fh.closed]


@pytest.fixture
def file_spy(monkeypatch):
    """Watch the raw files `AppendWriter` opens, and fail their writes
    (and cuts) on demand: faults injected at the writer."""
    spy = FileSpy()

    class SpyFile(io.FileIO):
        def __init__(self, path, *args, **kwargs):
            super().__init__(path, *args, **kwargs)
            self.base = os.path.basename(path)
            spy.opens.append(self.base)
            spy.handles.append(self)

        def write(self, data):
            spy.writes.append(self.base)
            if self.base not in spy.faults:
                return super().write(data)
            keep, short = spy.faults[self.base]
            if isinstance(keep, float):
                keep = int(len(data) * keep)
            written = super().write(data[:keep]) if keep else 0
            if short:
                return written
            raise OSError(errno.ENOSPC, "No space left on device")

        def truncate(self, size=None):
            if self.base in spy.cut_fails:
                raise OSError(errno.EIO, "Input/output error")
            return super().truncate(size)

    monkeypatch.setattr(io, "FileIO", SpyFile)
    return spy
