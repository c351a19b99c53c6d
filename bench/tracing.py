"""Spans and counters recorded around calls into each dispatchbot layer.

The tracer wraps public callables at the place their callers look them
up (a module global or a class attribute), so nothing under `src/`
changes. Each wrapped call records a span: name, start, end and the span
open around it. Spans stay in memory, in flat arrays, until `dump()`.
Self time (a span's duration minus the time its child spans cover) and
total time are summed per name as spans close. Counters add no span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

from speed import PROBE_EVERY, SpeedProbe


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class CycleTimer:
    """Wall time of every `BoardRuntime.run_cycle` call, in seconds, with
    a speed probe before every PROBE_EVERY-th cycle, outside its time."""

    def __init__(self, speed: SpeedProbe):
        self.durations: list[float] = []
        self.speed = speed

    @contextmanager
    def running(self):
        from dispatchbot.board import BoardRuntime

        inner = BoardRuntime.run_cycle
        durations, speed = self.durations, self.speed
        clock = time.perf_counter

        def run_cycle(runtime, now):
            if len(durations) % PROBE_EVERY == 0:
                speed.probe()
            t0 = clock()
            report = inner(runtime, now)
            durations.append(clock() - t0)
            return report

        patches = Patches()
        patches.set(BoardRuntime, "run_cycle", run_cycle)
        try:
            yield
        finally:
            patches.undo()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, count=None):
        """Wrap `fn` in a span; `count(args, result)` may add counters."""
        name_id = self._id(name)
        stack, child_s = self._stack, self._child_s
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child_s.pop()
                starts[index] = t0
                ends[index] = t1
                self_s[name] += (t1 - t0) - covered
                total_s[name] += t1 - t0
                calls[name] += 1
                if child_s:
                    child_s[-1] += t1 - t0
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Wrap `fn` so each call adds `amount(result)` (default 1)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary the benchmark measures."""
        from dispatchbot import (assignment, board, cli, eventlog, metrics,
                                 notify, sim)
        from dispatchbot.notify import FileSink, MemorySink

        def count_append(counts, args, result):
            counts["eventlog.append.events"] += len(args[1])

        def count_parse(counts, args, result):
            counts["eventlog.parse.events"] += len(result)

        def count_reminders(counts, args, result):
            counts["reminders.tickets_scanned"] += len(args[0])
            counts["reminders.emitted"] += len(result)

        spans = [
            (board.BoardRuntime, "run_cycle", "board.cycle", None),
            (board.BoardRuntime, "inject_ticket", "board.inject", None),
            (board.BoardRuntime, "apply_external_transition",
             "board.transition", None),
            (board.BoardRuntime, "reassign_ticket", "board.reassign", None),
            (board, "round_robin_assign", "assignment", None),
            (board, "expertise_assign", "assignment", None),
            (board, "least_open_assign", "assignment", None),
            (assignment, "available_pool", "roster.available_pool", None),
            (board, "due_reminders", "reminders", count_reminders),
            (FileSink, "deliver", "notify.deliver", None),
            (MemorySink, "deliver", "notify.deliver", None),
            (board, "fold_event", "eventlog.fold", None),
            (eventlog, "fold_event", "eventlog.fold", None),
            (eventlog.EventLog, "append", "eventlog.append", count_append),
            (eventlog, "read_event_log", "eventlog.parse", count_parse),
            (eventlog, "apply_transition", "workflow.transition", None),
            (sim, "run_simulation", "sim.run", None),
            (sim, "build_reports", "metrics.report", None),
            (sim, "compare_periods", "metrics.report", None),
            (metrics.ComparisonReport, "render", "metrics.report", None),
            (cli, "distribution_csv", "metrics.report", None),
            (cli, "resolution_csv", "metrics.report", None),
        ]
        for owner, attr, name, count in spans:
            patches.set(owner, attr,
                        self.span(name, owner.__dict__[attr], count))

        counters = [
            (board, "iso", "timeutil.iso.calls", None),
            (notify, "iso", "timeutil.iso.calls", None),
            (eventlog, "parse_ts", "timeutil.parse_ts.calls", None),
            (cli, "parse_ts", "timeutil.parse_ts.calls", None),
            (board, "announce_assignment", "notify.messages_built", None),
            (board, "announce_state_change", "notify.messages_built", None),
            (board, "route_reminder", "notify.messages_built", len),
        ]
        for owner, attr, name, amount in counters:
            patches.set(owner, attr,
                        self.counter(name, owner.__dict__[attr], amount))

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, first: int, last: int) -> dict:
        """Spans `first` to `last` as columns; times in microseconds from
        the first span's start, parents as span indices."""
        base = self.span_start[first] if last > first else 0.0
        return {
            "names": self.names,
            "name": list(self.span_name[first:last]),
            "parent": [p - first if p >= first else -1
                       for p in self.span_parent[first:last]],
            "start_us": [round((t - base) * 1e6, 1)
                         for t in self.span_start[first:last]],
            "end_us": [round((t - base) * 1e6, 1)
                       for t in self.span_end[first:last]],
        }
