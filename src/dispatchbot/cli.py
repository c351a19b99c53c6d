"""Operator entry point.

Commands: `run` a bot cycle against a file-backed board, `simulate` a
pre/post experiment, `report` over an event log, `replay` a log with
consistency checks. Exit codes: 0 success, 1 validation error, 2 runtime
error. dispatchbot reads no environment variable itself, but the webhook
sink posts through `urllib.request.urlopen`, which honours the standard
proxy variables (`http_proxy`, `https_proxy`, `no_proxy`).

Every command is a fresh process, and a scheduler may start one `run
--once` per cycle, so import cost is paid each time. Importing this
module loads no HTTP client: the webhook sink loads it on its first
delivery.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import closing
from pathlib import Path

from .board import BoardRuntime, ConfigError, load_team_config
from .eventlog import (
    KIND_TRANSITIONED,
    BoardSnapshot,
    CorruptRecordError,
    DuplicateTicketError,
    EventLog,
    MalformedRecordError,
    SeqGapError,
    fold_event,
    iter_event_log,
    read_event_log,
    replay,
)
from .metrics import (
    distribution_csv,
    period_report,
    render_table,
    resolution_csv,
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


def _unreadable(path: Path, what: str) -> str | None:
    """Why the file `what` at `path` cannot be read, or None."""
    if not path.exists():
        return f"{what} not found: {path}"
    if path.is_dir():
        return f"{what} is a directory: {path}"
    return None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_team_config(args.config)
    except ConfigError as exc:
        return _fail(EXIT_VALIDATION, f"config error: {exc}")
    now = None
    if args.now:
        try:
            now = parse_ts(args.now)
        except (ValueError, OverflowError) as exc:  # Overflow: out of range
            return _fail(EXIT_VALIDATION, f"bad --now {args.now!r}: {exc}")

    created = []
    if args.board:
        board_path = Path(args.board)
        if (problem := _unreadable(board_path, "board fixture")) is not None:
            return _fail(EXIT_VALIDATION, problem)
        try:
            created = _read_fixture(board_path)
        except (CorruptRecordError, ValueError) as exc:
            return _fail(EXIT_VALIDATION, f"board fixture: {exc}")

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file is in the way, or no permission
        return _fail(EXIT_RUNTIME, f"cannot create output directory: {exc}")
    try:
        log = EventLog(out_dir / f"{config.board_id}.events.ndjson")
        runtime = BoardRuntime(config, log=log)
    except Exception as exc:
        return _fail(EXIT_RUNTIME, f"cannot rebuild board state: {exc}")
    try:
        with log:
            _inject_fixture(runtime, created)
            print(runtime.run_cycle(now or utc_now()).render())
            try:
                while args.loop:
                    time.sleep(config.cycle_period_minutes * 60)
                    print(runtime.run_cycle(utc_now()).render())
            except KeyboardInterrupt:
                pass
    except OSError as exc:  # a full disk, a lost mount: the board stops
        return _fail(EXIT_RUNTIME, f"cannot write event log {log.path}: {exc}")
    return EXIT_OK


def _read_fixture(path: Path) -> list[dict]:
    """The Created records of a fixture file. Each is folded alone, so the
    fold checks its fields as it would a log's, and a bad record is found
    before the board is touched."""
    created = [r for r in read_event_log(path) if r["kind"] == "Created"]
    for record in created:
        seq = record["seq"] if type(record["seq"]) is int else 1
        fold_event(BoardSnapshot("", watermark=seq - 1),
                   dict(record, seq=seq, board=""))
    return created


def _inject_fixture(runtime: BoardRuntime, created: list[dict]) -> None:
    """Feed checked Created records into the board, skipping tickets the
    log already knows."""
    for record in created:
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
        if (problem := _unreadable(path, "experiment config")) is not None:
            return _fail(EXIT_VALIDATION, problem)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise ValueError("root must be an object")
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
        _, _, comparison = run_experiment(pre, post, out_dir)
    except Exception as exc:
        return _fail(EXIT_RUNTIME, f"simulation failed: {exc}")

    reports = [comparison.pre, comparison.post]
    table = comparison.render()
    for name, text in (("distribution.csv", distribution_csv(reports)),
                       ("resolution.csv", resolution_csv(reports)),
                       ("comparison.txt", table + "\n")):
        path = out_dir / name
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:  # a directory in the way, a full disk
            return _fail(EXIT_RUNTIME, f"cannot write {path}: {exc}")
    print(table)
    return EXIT_OK


def _replay_log(log: str, tap=None) -> BoardSnapshot | int:
    """The snapshot the log file `log` folds to, or the exit code after
    saying on stderr why there is none. The records stream from the file
    through `tap`, if given, into the fold."""
    path = Path(log)
    if (problem := _unreadable(path, "event log")) is not None:
        return _fail(EXIT_VALIDATION, problem)
    try:
        with closing(iter_event_log(path)) as records:
            return replay(records if tap is None else tap(records))
    except REPLAY_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"{path}: {exc}")


def cmd_report(args: argparse.Namespace) -> int:
    split = None
    if args.split:
        try:
            split = parse_ts(args.split)
        except (ValueError, OverflowError) as exc:
            return _fail(EXIT_VALIDATION, f"bad --split {args.split!r}: {exc}")
    snapshot = _replay_log(args.log)
    if type(snapshot) is int:
        return snapshot

    team = snapshot.board_id or "board"
    periods: dict[str, list] = {}
    for ticket in snapshot.tickets.values():
        period = ("All" if split is None else
                  "PreBot" if ticket.created_at < split else "PostBot")
        periods.setdefault(period, []).append(ticket)
    # Every engineer the log names as an assignee, in every period, so
    # one who resolved nothing in a period counts there as a zero.
    engineers = sorted(set(snapshot.assign_counts).union(
        t.assignee for t in snapshot.tickets.values()
        if t.assignee is not None))
    reports = [period_report(team, period, periods.get(period, ()), engineers)
               for period in sorted(periods) or ["All"]]

    if args.format == "csv":
        print(distribution_csv(reports), end="")
        print(resolution_csv(reports), end="")
    else:
        print(render_table(team, reports))
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    #: ticket id -> (to, ts) of its last Transitioned record.
    moves: dict[str, tuple] = {}

    def tap(records):
        for record in records:
            yield record
            # Resumed only once the fold has accepted the record.
            if record["kind"] == KIND_TRANSITIONED:
                moves[record["ticket"]] = record["to"], record["ts"]

    snapshot = _replay_log(args.log, tap)
    if type(snapshot) is int:
        return snapshot
    # Each record folded raises the watermark by one, from 0.
    print(f"replayed {snapshot.watermark} events, watermark "
          f"{snapshot.watermark}, {len(snapshot.tickets)} tickets")
    if args.assert_consistency:
        # Each ticket against its last Transitioned record in the log.
        for ticket in snapshot.tickets.values():
            to, ts = moves.get(ticket.id, ("Backlog", None))
            if ticket.state.value != to:
                return _fail(EXIT_RUNTIME,
                             f"{ticket.id}: state differs from the log")
            done = ticket.state is WorkflowState.DONE
            if ticket.resolved_at != (parse_ts(ts) if done else None):
                return _fail(EXIT_RUNTIME,
                             f"{ticket.id}: resolved_at differs from the log")
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
                     help="check each ticket against its last transition")
    rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
