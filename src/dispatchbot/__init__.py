"""Round-robin ticket dispatch bot: workflow tracking, fair assignment,
reminders, notifications and a desk-scale discrete-event simulator."""

from .assignment import (
    AssignmentDecision,
    EmptyPoolError,
    ExpertiseProfile,
    expertise_assign,
    least_open_assign,
    round_robin_assign,
)
from .board import BoardRuntime, CycleReport, TeamConfig, load_team_config
from .eventlog import BoardSnapshot, EventLog, read_event_log, replay
from .metrics import (
    ComparisonReport,
    PeriodReport,
    compare_periods,
    distribution_stats,
    format_duration,
    resolution_time,
)
from .notify import Channel, ChannelBinding, FileSink, WebhookSink
from .reminders import Reminder, ReminderKind, ThresholdPolicy, due_reminders
from .roster import EngineerRoster, RosterEntry, available_pool
from .sim import SimConfig, default_experiment_configs, run_experiment, run_simulation
from .workflow import (
    Priority,
    ReopenMode,
    Ticket,
    TransitionError,
    WorkflowState,
    apply_transition,
    new_ticket,
    reopen,
)

__version__ = "0.1.0"
