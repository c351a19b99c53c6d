"""Simulator desks that tests and `interpreter_checks.py` share.

Stdlib only, so that a script run on an interpreter without pytest can
import them.
"""

from __future__ import annotations

from dispatchbot.assignment import POLICY_MANUAL
from dispatchbot.sim import SimConfig

#: A backlogged two-engineer desk whose reminders escalate.
REMINDER_DESK = SimConfig(
    seed=5, horizon_days=12, arrival_rate=12, roster_size=2,
    service_median_hours=(6.0, 6.0), service_sigma=0.0, reassign_prob=0.2,
    reminders_enabled=True, stuck_threshold_hours=8, reminder_period_hours=4,
    cycle_period_hours=2)

#: The pre-bot manager's delayed hand assignments, with engineer
#: reassignments and reminders on.
MANUAL_DESK = SimConfig(
    seed=1, horizon_days=12, arrival_rate=12, roster_size=3,
    policy=POLICY_MANUAL, reminders_enabled=True, stuck_threshold_hours=8,
    reminder_period_hours=4, cycle_period_hours=2, reassign_prob=0.2,
    manual_delay_days=1.5)
