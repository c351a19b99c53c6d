"""The names a tracer wraps from outside the package.

`bench/tracing.py` replaces attributes by name at the place their callers
look them up (`owner.__dict__[name]`), so a refactor that moves one, or
stops calling it through that name, silently drops it from the traced
per-layer table. These tests pin each name where it is looked up and,
for the names a file-backed simulation reaches, that the program calls
through it.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from dispatchbot import assignment, board, cli, eventlog, metrics, notify, sim
from dispatchbot.sim import SimConfig

#: (owner, attribute) for every span and counter the tracer installs.
TRACED = [
    (board.BoardRuntime, "run_cycle"),
    (board.BoardRuntime, "inject_ticket"),
    (board.BoardRuntime, "apply_external_transition"),
    (board.BoardRuntime, "reassign_ticket"),
    (board, "round_robin_assign"),
    (board, "expertise_assign"),
    (board, "least_open_assign"),
    (assignment, "available_pool"),
    (board, "due_reminders"),
    (notify.FileSink, "deliver"),
    (notify.MemorySink, "deliver"),
    (board, "fold_event"),
    (eventlog, "fold_event"),
    (eventlog.EventLog, "append"),
    (eventlog, "read_event_log"),
    (eventlog, "apply_transition"),
    (sim, "run_simulation"),
    (sim, "build_reports"),
    (sim, "compare_periods"),
    (metrics.ComparisonReport, "render"),
    (cli, "distribution_csv"),
    (cli, "resolution_csv"),
    (board, "iso"),
    (notify, "iso"),
    (eventlog, "parse_ts"),
    (cli, "parse_ts"),
    (board, "announce_assignment"),
    (board, "announce_state_change"),
    (board, "route_reminder"),
]

#: What a file-backed round-robin simulation with reminders, then a
#: rebuild of its log, must call through the traced name.
CALLED = {
    (board.BoardRuntime, "run_cycle"),
    (board.BoardRuntime, "inject_ticket"),
    (board.BoardRuntime, "apply_external_transition"),
    (board, "round_robin_assign"),
    (board, "due_reminders"),
    (notify.FileSink, "deliver"),
    (board, "fold_event"),
    (eventlog, "fold_event"),
    (eventlog.EventLog, "append"),
    (eventlog, "read_event_log"),
    (eventlog, "apply_transition"),
    (sim, "run_simulation"),
    (board, "iso"),
    (notify, "iso"),
    (eventlog, "parse_ts"),
    (board, "announce_assignment"),
    (board, "announce_state_change"),
    (board, "route_reminder"),
}


#: What `dispatchbot simulate` must call through the traced name: the
#: tracer's `metrics.report` span.
REPORTED = {
    (sim, "build_reports"),
    (sim, "compare_periods"),
    (metrics.ComparisonReport, "render"),
    (cli, "distribution_csv"),
    (cli, "resolution_csv"),
}


def _name(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("owner, attr", TRACED,
                         ids=[_name(o, a) for o, a in TRACED])
def test_each_traced_name_is_defined_where_it_is_looked_up(owner, attr):
    assert callable(owner.__dict__[attr])


def _count_calls(monkeypatch, names) -> Counter:
    """Wrap each (owner, attribute) of `names` to count its calls."""
    calls: Counter = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in names:
        monkeypatch.setattr(owner, attr,
                            counting((owner, attr), owner.__dict__[attr]))
    return calls


def test_the_program_calls_through_the_traced_names(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, CALLED)
    sim.run_simulation(SimConfig(seed=4, horizon_days=3, arrival_rate=6,
                                 roster_size=3, reminders_enabled=True,
                                 stuck_threshold_hours=4,
                                 reminder_period_hours=2), tmp_path)
    events = eventlog.read_event_log(tmp_path / "SIM.events.ndjson")
    # The tracer counts parsed events with `len(result)`.
    assert type(events) is list and events
    eventlog.replay(events)
    assert sorted(_name(*key) for key in CALLED if not calls[key]) == []


def test_simulate_calls_through_the_report_names(tmp_path, monkeypatch,
                                                 capsys):
    calls = _count_calls(monkeypatch, REPORTED)
    experiment = tmp_path / "exp.json"
    small = {"horizon_days": 2, "arrival_rate": 4, "roster_size": 2}
    experiment.write_text(json.dumps({"pre": dict(small, policy="Manual"),
                                      "post": small}))
    assert cli.main(["simulate", "--experiment", str(experiment),
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out
    assert sorted(_name(*key) for key in REPORTED if not calls[key]) == []
