"""Operator entry point.

Commands: `run` a bot cycle against a file-backed board, `simulate` a
pre/post experiment, `report` over an event log, `replay` a log with
consistency checks. Exit codes: 0 success, 1 validation error, 2 runtime
error. No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .board import BoardRuntime, ConfigError, load_team_config
from .eventlog import (
    CorruptRecordError,
    DuplicateTicketError,
    EventLog,
    MalformedRecordError,
    SeqGapError,
    read_event_log,
    replay,
)
from .metrics import (
    build_distribution_report,
    build_resolution_report,
    distribution_csv,
    render_table,
    resolution_csv,
    resolved_counts,
)
from .sim import SimConfig, default_experiment_configs, run_experiment
from .timeutil import parse_ts, utc_now
from .workflow import TransitionError, WorkflowState

#: A log that cannot be read, or records a history the fold rejects.
REPLAY_ERRORS = (CorruptRecordError, SeqGapError, DuplicateTicketError,
                 MalformedRecordError, TransitionError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_team_config(args.config)
    except ConfigError as exc:
        return _fail(EXIT_VALIDATION, f"config error: {exc}")
    now = None
    if args.now:
        try:
            now = parse_ts(args.now)
        except ValueError as exc:
            return _fail(EXIT_VALIDATION, f"bad --now {args.now!r}: {exc}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        log = EventLog(out_dir / f"{config.board_id}.events.ndjson")
        runtime = BoardRuntime(config, log=log)
    except Exception as exc:
        return _fail(EXIT_RUNTIME, f"cannot rebuild board state: {exc}")

    if args.board:
        board_path = Path(args.board)
        if not board_path.exists():
            return _fail(EXIT_VALIDATION,
                         f"board fixture not found: {board_path}")
        try:
            _inject_fixture(runtime, board_path)
        except (CorruptRecordError, ValueError) as exc:
            return _fail(EXIT_VALIDATION, f"board fixture: {exc}")

    report = runtime.run_cycle(now or utc_now())
    print(report.render())
    if args.loop:
        try:
            while True:
                time.sleep(config.cycle_period_minutes * 60)
                report = runtime.run_cycle(utc_now())
                print(report.render())
        except KeyboardInterrupt:
            pass
    log.close()
    return EXIT_OK


def _inject_fixture(runtime: BoardRuntime, path: Path) -> None:
    """Feed Created records from a fixture file into the board, skipping
    tickets the log already knows."""
    for record in read_event_log(path):
        if record["kind"] != "Created":
            continue
        if record["ticket"] in runtime.snapshot.tickets:
            continue
        runtime.inject_ticket(
            ticket_id=record["ticket"],
            reporter=record["reporter"],
            at=parse_ts(record["ts"]),
            priority=record.get("priority", "Medium"),
            sla_deadline=(parse_ts(record["sla_deadline"])
                          if record.get("sla_deadline") else None),
            labels=tuple(record.get("labels", ())),
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.experiment:
        path = Path(args.experiment)
        if not path.exists():
            return _fail(EXIT_VALIDATION,
                         f"experiment config not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if args.seed is not None:
                raw.setdefault("pre", {})["seed"] = args.seed
                raw.setdefault("post", {})["seed"] = args.seed
            pre = SimConfig.from_dict(raw["pre"])
            post = SimConfig.from_dict(raw["post"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            return _fail(EXIT_VALIDATION, f"experiment config: {exc}")
    else:
        pre, post = default_experiment_configs(
            args.seed if args.seed is not None else 1)

    out_dir = Path(args.out)
    try:
        pre_result, post_result, comparison = run_experiment(pre, post,
                                                             out_dir)
    except Exception as exc:
        return _fail(EXIT_RUNTIME, f"simulation failed: {exc}")

    (out_dir / "distribution.csv").write_text(
        distribution_csv([pre_result.distribution,
                          post_result.distribution]), encoding="utf-8")
    (out_dir / "resolution.csv").write_text(
        resolution_csv([pre_result.resolution, post_result.resolution]),
        encoding="utf-8")
    table = comparison.render()
    (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.log)
    if not path.exists():
        return _fail(EXIT_VALIDATION, f"event log not found: {path}")
    try:
        events = read_event_log(path)
        snapshot = replay(events)
    except REPLAY_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"{path}: {exc}")

    tickets = list(snapshot.tickets.values())
    team = snapshot.board_id or "board"
    split = parse_ts(args.split) if args.split else None

    def period_of(ticket) -> str:
        if split is None:
            return "All"
        return "PreBot" if ticket.created_at < split else "PostBot"

    periods = sorted({period_of(t) for t in tickets}) or ["All"]
    dists, resos = [], []
    for period in periods:
        subset = [t for t in tickets if period_of(t) == period]
        per_engineer = resolved_counts(subset) or {"(none)": 0}
        dists.append(build_distribution_report(team, period, per_engineer))
        resos.append(build_resolution_report(team, period, subset))

    if args.format == "csv":
        print(distribution_csv(dists), end="")
        print(resolution_csv(resos), end="")
    else:
        print(render_table(team, zip(dists, resos)))
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.log)
    if not path.exists():
        return _fail(EXIT_VALIDATION, f"event log not found: {path}")
    try:
        events = read_event_log(path)
        snapshot = replay(events)
    except REPLAY_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"{path}: {exc}")
    print(f"replayed {len(events)} events, watermark {snapshot.watermark}, "
          f"{len(snapshot.tickets)} tickets")
    if args.assert_consistency:
        for ticket in snapshot.tickets.values():
            state = (ticket.history[-1].to_state if ticket.history
                     else WorkflowState.BACKLOG)
            if ticket.state is not state:
                return _fail(EXIT_RUNTIME,
                             f"{ticket.id}: state does not match history")
            done = ticket.state is WorkflowState.DONE
            if (ticket.resolved_at is not None) != done:
                return _fail(EXIT_RUNTIME,
                             f"{ticket.id}: resolved_at inconsistent")
        print("consistency ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchbot",
        description="Round-robin ticket dispatch bot and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run bot cycles against a board")
    run.add_argument("--config", required=True, help="team config JSON")
    run.add_argument("--board", help="board fixture ndjson (Created records)")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--now", help="virtual cycle timestamp (ISO-8601)")
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true", default=True)
    mode.add_argument("--loop", action="store_true")
    run.set_defaults(func=cmd_run)

    simulate = sub.add_parser("simulate", help="run a pre/post experiment")
    simulate.add_argument("--experiment",
                          help="experiment config JSON (pre/post SimConfig)")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--seed", type=int, help="seed override")
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser("report", help="render reports from a log")
    report.add_argument("--log", required=True, help="event log path")
    report.add_argument("--split",
                        help="period boundary (ISO-8601); pre/post split")
    report.add_argument("--format", choices=("table", "csv"),
                        default="table")
    report.set_defaults(func=cmd_report)

    rep = sub.add_parser("replay", help="rebuild a snapshot from a log")
    rep.add_argument("--log", required=True, help="event log path")
    rep.add_argument("--assert", dest="assert_consistency",
                     action="store_true",
                     help="verify state/history consistency")
    rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
