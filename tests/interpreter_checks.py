"""The README's byte-identity checks, run on one interpreter.

Run from the repository root with each interpreter in turn:

    PYTHONPATH=src python3.10 tests/interpreter_checks.py

It needs only the standard library (no pytest), so it runs on an
interpreter that has none of the test extras. It prints one line per
check, with the value it got and the value it expected, and exits 1 if
any of them differ. The expected values are the ones the suite pins:
`test_stock_experiment_output_is_pinned` in `test_cli.py`, and
`test_reminder_log_is_pinned`, `test_manual_reminder_log_is_pinned` and
`test_reminder_channel_files_are_pinned` in `test_sim.py`. The record
lines check holds `notify.record_line`'s layouts to `compact_json` on
this interpreter, as `TestRecordLine` in `test_notify.py` does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import dispatchbot
from dispatchbot.board import BoardRuntime
from dispatchbot.cli import main
from dispatchbot.eventlog import encode_event
from dispatchbot.notify import Channel, compact_json, record_line
from dispatchbot.sim import default_experiment_configs, run_simulation
from dispatchbot.timeutil import iso, parse_ts

from desks import MANUAL_DESK, REMINDER_DESK

STOCK_LISTING = \
    "86600c06176bc1efd08b9cb0f024109a9489cbdc09e5f88d18e26ee4b5509427"
REMINDER_LOG = \
    "88db418e26bd9ee2be65403a4c322c4d767e66685740c3c95e0fd7d122f86752"
MANUAL_LOG = \
    "39a804e2c707ff2debd5b670947a9093ac7daf173bb36887980d9671911cbe61"
REMINDER_CHANNELS = \
    "fd6a9904f5749fa83bcbd00ab8926eca5acb1e7ccb5d906bfaf1ad0fd909c232"

#: Modules a cold import of the CLI must not load.
HTTP_MODULES = ("http.client", "urllib.request", "urllib.error", "email",
                "ssl")


def listing(root: Path) -> str:
    """What `find . -type f | sort | xargs sha256sum | sha256sum` prints
    from inside `root`, without its trailing " -"."""
    files = sorted((p for p in root.rglob("*") if p.is_file()),
                   key=lambda p: p.as_posix())
    text = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                   f"./{p.relative_to(root).as_posix()}\n" for p in files)
    return hashlib.sha256(text.encode()).hexdigest()


def log_hash(events) -> str:
    """The sha256 of the bytes a file-backed log of `events` holds."""
    lines = "".join(encode_event(e) + "\n" for e in events)
    return hashlib.sha256(lines.encode()).hexdigest()


def stock_listing() -> str:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["simulate", "--seed", "1", "--out", out])
        return listing(Path(out))


def reminder_log() -> str:
    return log_hash(run_simulation(REMINDER_DESK).events)


def manual_log() -> str:
    return log_hash(run_simulation(MANUAL_DESK).events)


def manual_log_rebuilt() -> str:
    """The Manual desk with its board rebuilt in place from its log
    before every cycle."""
    cycle = BoardRuntime.run_cycle

    def run_cycle(runtime, now):
        BoardRuntime.__init__(runtime, runtime.config, runtime.log,
                              runtime.sinks)
        return cycle(runtime, now)

    BoardRuntime.run_cycle = run_cycle
    try:
        return manual_log()
    finally:
        BoardRuntime.run_cycle = cycle


def reminder_channels() -> str:
    with tempfile.TemporaryDirectory() as out:
        run_simulation(REMINDER_DESK, out)
        return listing(Path(out))


def near_misses(record: dict) -> list[dict]:
    """Copies of a runtime record that no layout fits: a key missing or
    one too many, a field of another type, a wire with a key missing or
    one too many, or a `messages` list of no wire, of a non-wire, or of
    two wires where the runtime writes one."""
    misses = [{k: v for k, v in record.items() if k != "ts"},
              dict(record, zz=1)]
    misses += [dict(record, **{key: value}) for key, value in (
        ("seq", True), ("seq", 1.5), ("ts", None), ("board", 10**30),
        ("board", Channel.CHAT_A), ("kind", ["Created"]))]
    if "messages" in record:
        wire = record["messages"][0]
        misses += [dict(record, messages=messages) for messages in (
            [], [wire, 5], [dict(wire, zz="x")],
            [{k: v for k, v in wire.items() if k != "text"}])]
        if record["kind"] != "ReminderSent":
            misses.append(dict(record, messages=[wire, wire]))
    return misses


def record_lines() -> str:
    """The records of the reminder, Manual and `simulate --seed 1` logs,
    their optional fields, and near misses of their shapes, whose
    `record_line` is not their `compact_json`, or whose kept lines are not
    their wires' (a near miss keeps none), as (kind, seq) pairs."""
    pre, post = default_experiment_configs(1)
    fits = [event for desk in (REMINDER_DESK, MANUAL_DESK, pre, post)
            for event in run_simulation(desk).events]
    first = {}
    for event in fits:
        first.setdefault(event["kind"], event)
    fits += [dict(first["Created"], labels=["db", "\u00e9\"\\"],
                  sla_deadline="2025-01-08T09:00:00Z"),
             dict(first["Transitioned"], reopen_mode="Reopen")]
    misses = [miss for event in first.values() for miss in near_misses(event)]
    bad = []
    for record, fit in [(r, True) for r in fits] + [(r, False)
                                                   for r in misses]:
        lines = {}
        kept = {wire["msg_id"]: compact_json(wire)
                for wire in record.get("messages", ()) if fit}
        if record_line(record, lines) != compact_json(record) \
                or lines != kept:
            bad.append((str(record.get("kind")), record.get("seq")))
    return str(bad)


def codec() -> str:
    """Canonical instants across the years 1 to 9999 that `parse_ts`
    does not read back as `fromisoformat` does, in value, type and the
    `timezone.utc` instance."""
    bad = []
    for year in range(1, 10000):
        for month, day, h, m, s in ((1, 1, 0, 0, 0), (6, 15, 12, 34, 56),
                                    (12, 31, 23, 59, 59)):
            text = iso(datetime(year, month, day, h, m, s,
                                tzinfo=timezone.utc))
            got = parse_ts(text)
            # 3.10's fromisoformat reads no "Z".
            want = datetime.fromisoformat(text[:-1] + "+00:00")
            if (got != want or type(got) is not datetime
                    or got.tzinfo is not timezone.utc):
                bad.append(text)
    return str(bad)


def cold_import() -> str:
    """The HTTP modules a cold import of the CLI loads, in a fresh
    interpreter without `site` (`-S`)."""
    src = str(Path(dispatchbot.__file__).parents[1])
    code = ("import sys, dispatchbot.cli; print([m for m in "
            f"{HTTP_MODULES!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


CHECKS = [
    ("stock listing", stock_listing, STOCK_LISTING),
    ("reminder log", reminder_log, REMINDER_LOG),
    ("manual log", manual_log, MANUAL_LOG),
    ("manual log, rebuilt", manual_log_rebuilt, MANUAL_LOG),
    ("reminder channels", reminder_channels, REMINDER_CHANNELS),
    ("record lines", record_lines, "[]"),
    ("codec round-trip", codec, "[]"),
    ("cold import", cold_import, "[]"),
]


def run() -> int:
    version = ".".join(map(str, sys.version_info[:3]))
    failed = 0
    for name, check, want in CHECKS:
        got = check()
        verdict = "ok" if got == want else "MISMATCH"
        failed += got != want
        print(f"{version} {name:20} {verdict:8} got {got} want {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
