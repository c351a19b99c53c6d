"""A cycle's cost per event stays flat as the horizon and the roster grow.

Cost is counted, not timed: `callmeter.meter` counts the Python and C
calls made inside `BoardRuntime.run_cycle` for an in-memory run, which
gives the same numbers on every run of one interpreter. Each test pins
the ratio of calls per event between a small and a large run of one
desk to within 10%.

Limits of the meter:
- Comprehensions are inlined from Python 3.12 (PEP 709), so the counts
  differ across interpreters. Only ratios between two sizes of one desk
  are pinned here, never absolute counts.
- One C call counts once, however much work it does: an O(n) `sorted`
  or `set` copy inside a cycle is invisible to it, and so is a Python
  loop that makes no call per item. It sees growth made of calls only.
"""

from __future__ import annotations

from dataclasses import replace

from dispatchbot.sim import SimConfig

from .callmeter import meter
from .desks import REMINDER_DESK

#: A RoundRobin desk whose gaming engineers hold tickets open, so its
#: open backlog grows with the horizon: a cycle that scans every open
#: ticket costs more per event the longer the desk runs.
HOLDING_DESK = SimConfig(seed=1, horizon_days=10, gamer_fraction=0.3)

#: Most that calls per event may change between the two runs.
TOLERANCE = 0.10


def assert_flat(small: SimConfig, large: SimConfig) -> None:
    low, high = meter(small), meter(large)
    ratio = high.per_event / low.per_event
    assert abs(ratio - 1) <= TOLERANCE, (
        f"{low.per_event:.2f} -> {high.per_event:.2f} calls per event")


def test_round_robin_is_flat_in_the_horizon():
    assert_flat(HOLDING_DESK, replace(HOLDING_DESK, horizon_days=40))


def test_round_robin_is_flat_in_the_roster():
    assert_flat(HOLDING_DESK, replace(HOLDING_DESK, roster_size=140))


def test_the_reminder_desk_is_flat_in_the_horizon():
    assert_flat(REMINDER_DESK, replace(REMINDER_DESK, horizon_days=36))


def test_the_meter_counts_the_same_twice():
    assert meter(HOLDING_DESK) == meter(HOLDING_DESK)
