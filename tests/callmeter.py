"""A noise-free cost meter: Python and C calls made inside the cycle.

`meter(config)` runs a `SimConfig` in memory and counts the `call` and
`c_call` profile events (`sys.setprofile`) seen while a
`BoardRuntime.run_cycle` runs, and nowhere else: the simulator's own
work between cycles is not counted. The counts depend only on the code
and the interpreter, not on the machine or its load. Two runs give the
same numbers because nothing left by earlier work in the process enters
the count: the timestamp codec's memo, whose hits skip calls, is emptied
before each run, and the cyclic garbage collector is run first and kept
off during the run, so that no collection, and no `gc.callbacks` entry
another library registered (Hypothesis registers one), runs inside a
counted cycle. Stdlib only.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass

from dispatchbot import timeutil
from dispatchbot.board import BoardRuntime
from dispatchbot.sim import SimConfig, run_simulation


@dataclass(frozen=True)
class CallCount:
    calls: int    # call and c_call events inside run_cycle
    events: int   # records in the run's log

    @property
    def per_event(self) -> float:
        return self.calls / self.events


def meter(config: SimConfig) -> CallCount:
    """Run `config` with an in-memory log and sinks, counting the calls
    made inside each `BoardRuntime.run_cycle`."""
    calls = 0
    inner = BoardRuntime.run_cycle

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    def run_cycle(runtime, now):
        sys.setprofile(count)
        try:
            return inner(runtime, now)
        finally:
            sys.setprofile(None)

    timeutil.iso.cache_clear()
    timeutil._PARSED.clear()
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    BoardRuntime.run_cycle = run_cycle
    try:
        run = run_simulation(config)
    finally:
        BoardRuntime.run_cycle = inner
        if collecting:
            gc.enable()
    return CallCount(calls, len(run.events))
