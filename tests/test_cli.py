from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest

import dispatchbot
from dispatchbot import eventlog
from dispatchbot.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from dispatchbot.eventlog import encode_event
from dispatchbot.metrics import period_report, round2
from dispatchbot.sim import SimConfig, engineer_ids, run_simulation
from dispatchbot.timeutil import parse_ts
from dispatchbot.workflow import WorkflowState, evolve

NAN, INF = float("nan"), float("inf")

TEAM_DOC = {
    "team_id": "team1",
    "board_id": "T1",
    "roster": [{"id": "e1"}, {"id": "e2"}, {"id": "e3"}],
    "channels": {"ChatA": "{out}/channels", "Email": "{out}/channels"},
    "review_channel": "ChatA",
    "policy": "RoundRobin",
}


@pytest.fixture
def team_files(tmp_path):
    out = tmp_path / "out"
    doc = json.loads(json.dumps(TEAM_DOC).replace("{out}", str(out)))
    config = tmp_path / "team.json"
    config.write_text(json.dumps(doc))
    board = tmp_path / "board.ndjson"
    lines = [
        encode_event({"seq": i, "ts": f"2025-01-06T09:00:0{i}Z",
                      "board": "T1", "kind": "Created",
                      "ticket": f"T1-{i}", "reporter": "r1"})
        for i in (1, 2, 3)
    ]
    board.write_text("\n".join(lines) + "\n")
    return config, board, out


class TestRun:
    def test_once_assigns_fixture_tickets(self, team_files, capsys):
        config, board, out = team_files
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "2025-01-06T10:00:00Z",
                     "--once"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert re.search(r"assigned:\s+3\b", text)
        log = (out / "T1.events.ndjson").read_text()
        assert log.count('"kind":"Assigned"') == 3

    def test_second_run_is_idempotent(self, team_files, capsys):
        config, board, out = team_files
        args = ["run", "--config", str(config), "--board", str(board),
                "--out", str(out), "--now", "2025-01-06T10:00:00Z"]
        assert main(args) == EXIT_OK
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out.split("cycle at")[-1]
        assert re.search(r"assigned:\s+0\b", second)
        log = (out / "T1.events.ndjson").read_text()
        assert log.count('"kind":"Assigned"') == 3

    def test_missing_config_is_validation_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_invalid_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "team.json"
        bad.write_text(json.dumps(dict(TEAM_DOC, policy="Vibes")))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_bad_roster_date_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "team.json"
        roster = [{"id": "e1", "joined_at": "not-a-date"}]
        bad.write_text(json.dumps(dict(TEAM_DOC, roster=roster)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "roster[0]: bad joined_at" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", [float("inf"), float("nan"), 1e300])
    def test_unbounded_hours_are_validation_errors(self, tmp_path, capsys,
                                                   hours):
        # `json` writes and reads the non-finite values as Infinity / NaN.
        bad = tmp_path / "team.json"
        thresholds = {"reminder_period_hours": hours,
                      "stuck_hours": {"Blocked": hours}}
        bad.write_text(json.dumps(dict(TEAM_DOC, thresholds=thresholds)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path),
                     "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert "config error: thresholds: " in capsys.readouterr().err

    def test_sub_second_reminder_period_is_validation_error(self, team_files,
                                                           capsys):
        # `timedelta` rounds 1e-12 h to zero: once the fixture's tickets
        # were stuck, `run` ended in a ZeroDivisionError traceback.
        config, board, out = team_files
        thresholds = {"reminder_period_hours": 1e-12,
                      "stuck_hours": {"Backlog": 1}}
        config.write_text(json.dumps(dict(json.loads(config.read_text()),
                                          thresholds=thresholds)))
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "2025-01-06T12:00:00Z"])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "config error: thresholds: reminder_period_hours must be in "
            "[1/3600, 876600] hours, got 1e-12")

    @pytest.mark.parametrize("thresholds", [
        {"reminder_period_hours": True}, {"sla_warning_fraction": True},
        {"stuck_hours": {"Blocked": "5"}}])
    def test_non_numeric_hours_are_validation_errors(self, tmp_path, capsys,
                                                     thresholds):
        bad = tmp_path / "team.json"
        bad.write_text(json.dumps(dict(TEAM_DOC, thresholds=thresholds)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path),
                     "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert "must be a number" in capsys.readouterr().err

    def test_huge_cycle_period_is_validation_error(self, tmp_path, capsys):
        # `run --loop` once ran a cycle, then `time.sleep` overflowed.
        bad = tmp_path / "team.json"
        bad.write_text(json.dumps(dict(TEAM_DOC,
                                       cycle_period_minutes=10 ** 18)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path),
                     "--now", "2025-01-06T10:00:00Z", "--loop"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == ("config error: cycle_period_minutes: must be an "
                       "integer <= 52596000, got 1000000000000000000\n")
        assert not (tmp_path / "T1.events.ndjson").exists()

    def test_bad_webhook_url_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "team.json"
        channels = {"ChatA": "http://[::1/hook", "Email": "out"}
        bad.write_text(json.dumps(dict(TEAM_DOC, channels=channels)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path),
                     "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert "config error: channels: bad webhook URL 'http://[::1/hook'" \
            in capsys.readouterr().err
        assert not (tmp_path / "T1.events.ndjson").exists()

    @pytest.mark.parametrize("endpoint", [None, 5])
    def test_non_string_endpoint_is_validation_error(self, tmp_path, capsys,
                                                     monkeypatch, endpoint):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "team.json"
        channels = {"ChatA": "out", "Email": endpoint}
        bad.write_text(json.dumps(dict(TEAM_DOC, channels=channels)))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path),
                     "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert (f"config error: channels: endpoint for Email must be a "
                f"string, got {endpoint!r}") in capsys.readouterr().err
        assert not (tmp_path / str(endpoint)).exists()

    def test_bad_now_is_validation_error(self, team_files, capsys):
        config, board, out = team_files
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "yesterday"])
        assert code == EXIT_VALIDATION
        assert "bad --now 'yesterday'" in capsys.readouterr().err
        assert not out.exists()

    def test_now_outside_the_utc_range_is_validation_error(self, team_files,
                                                            capsys):
        config, board, out = team_files
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "9999-12-31T23:59:59-05:00"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "bad --now '9999-12-31T23:59:59-05:00': ")
        assert not out.exists()

    def test_out_naming_a_file_is_runtime_error(self, team_files, capsys):
        config, board, out = team_files
        out.write_text("not a directory\n")
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "cannot create output directory: ")
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("change, error", [
        ({"reporter": None}, "missing value in field 'reporter'"),
        ({"labels": 5}, "bad value 5 in field 'labels'"),
        ({"labels": "abc"}, "bad value 'abc' in field 'labels'"),
        ({"ticket": ["x"]}, "bad value ['x'] in field 'ticket'"),
        ({"ts": 5}, "bad timestamp 5 in field 'ts'"),
    ], ids=["no-reporter", "labels-int", "labels-string", "ticket-list",
            "ts-int"])
    def test_bad_fixture_record_is_validation_error(self, team_files, capsys,
                                                    change, error):
        config, board, out = team_files
        lines = board.read_text().splitlines()
        record = {k: v for k, v in json.loads(lines[1]).items()
                  if k not in change or change[k] is not None}
        record.update((k, v) for k, v in change.items() if v is not None)
        board.write_text("\n".join(
            [lines[0], encode_event(record), lines[2]]) + "\n")
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"board fixture: seq 2: {error}\n"
        # Checked before the output directory or the log is made.
        assert not out.exists()

    def test_missing_fixture_is_validation_error(self, team_files, capsys):
        config, board, out = team_files
        missing = board.with_name("nope.ndjson")
        code = main(["run", "--config", str(config), "--board", str(missing),
                     "--out", str(out), "--now", "2025-01-06T10:00:00Z"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"board fixture not found: {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("good, bad, error", [
        ('"seq":1', '"seq":1.0', "seq 1.0: bad value 1.0 in field 'seq'"),
        ('"board":"T1"', '"board":"OTHER"',
         "seq 1: expected board 'T1', got 'OTHER' in field 'board'"),
    ], ids=["seq-float", "other-board"])
    def test_log_the_fold_rejects_is_left_as_it_is(self, team_files, capsys,
                                                   good, bad, error):
        config, board, out = team_files
        out.mkdir()
        log = out / "T1.events.ndjson"
        log.write_text(board.read_text().replace(good, bad, 1))
        before = log.read_bytes()
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--now", "2025-01-06T10:00:00Z"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"cannot rebuild board state: {error}\n"
        assert log.read_bytes() == before

    def test_torn_final_line_is_runtime_error(self, team_files, capsys):
        config, board, out = team_files
        args = ["run", "--config", str(config), "--board", str(board),
                "--out", str(out), "--now", "2025-01-06T10:00:00Z"]
        assert main(args) == EXIT_OK
        log = out / "T1.events.ndjson"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:2]) + "\n" + lines[2][:20])
        capsys.readouterr()
        assert main(args) == EXIT_RUNTIME
        assert "cannot rebuild board state: line 3:" in \
            capsys.readouterr().err

    def test_log_whose_final_newline_was_lost_takes_the_next_run(
            self, team_files, capsys):
        config, board, out = team_files
        args = ["run", "--config", str(config), "--board", str(board),
                "--out", str(out), "--now", "2025-01-06T10:00:00Z"]
        assert main(args) == EXIT_OK
        log = out / "T1.events.ndjson"
        text = log.read_text()
        log.write_text(text.rstrip("\n"))
        board.write_text(board.read_text().replace("T1-3", "T1-4"))
        args[-1] = "2025-01-06T11:00:00Z"
        assert main(args) == EXIT_OK
        assert log.read_text().startswith(text)
        records = eventlog.read_event_log(log)
        assert [r["seq"] for r in records] == \
            list(range(1, len(records) + 1))
        assert any(r.get("ticket") == "T1-4" for r in records)
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--assert"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("consistency ok\n")

    @pytest.mark.parametrize("fail_at, logged", [(1, 0), (4, 3)],
                             ids=["inject", "cycle"])
    def test_full_disk_is_runtime_error(self, team_files, capsys,
                                        monkeypatch, fail_at, logged):
        # Append number `fail_at` fails: the first fixture ticket's, or
        # the cycle's after three tickets went in. Both once ended in a
        # traceback.
        config, board, out = team_files
        append, close, calls, closed = (eventlog.EventLog.append,
                                        eventlog.EventLog.close, [], [])

        def failing_append(log, events):
            calls.append(len(events))
            if len(calls) >= fail_at:
                raise OSError(28, "No space left on device")
            return append(log, events)

        def counted_close(log):
            closed.append(log.path)
            close(log)

        monkeypatch.setattr(eventlog.EventLog, "append", failing_append)
        monkeypatch.setattr(eventlog.EventLog, "close", counted_close)
        code = main(["run", "--config", str(config), "--board", str(board),
                     "--out", str(out), "--now", "2025-01-06T10:00:00Z",
                     "--once"])
        assert code == EXIT_RUNTIME
        log = out / "T1.events.ndjson"
        assert capsys.readouterr().err == (
            f"cannot write event log {log}: [Errno 28] No space left on "
            f"device\n")
        assert closed == [log]
        assert len(calls) == fail_at
        records = eventlog.read_event_log(log) if log.exists() else []
        assert [r["kind"] for r in records] == ["Created"] * logged


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--experiment", "{dir}", "--out", "{out}"],
     "experiment config is a directory: {dir}"),
    (["run", "--config", "{dir}", "--out", "{out}"],
     "config error: config file is a directory: {dir}"),
    (["run", "--config", "{config}", "--board", "{dir}", "--out", "{out}"],
     "board fixture is a directory: {dir}"),
    (["report", "--log", "{dir}"], "event log is a directory: {dir}"),
    (["replay", "--log", "{dir}"], "event log is a directory: {dir}"),
], ids=["simulate-experiment", "run-config", "run-board", "report-log",
        "replay-log"])
def test_path_naming_a_directory_is_validation_error(team_files, tmp_path,
                                                     capsys, argv, message):
    config, _, out = team_files
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"dir": folder, "out": out, "config": config}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
    assert capsys.readouterr().err == message.format(**paths) + "\n"


#: A first log line for the records that need a known ticket.
CREATED = ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
           '"kind":"Created","ticket":"T1-1","reporter":"r1"}\n')
ASSIGNMENT_WIRE = ('{"channel":"ChatA","kind":"Assignment",'
                   '"msg_id":"m000001","team":"team1","text":"hi",'
                   '"ticket":"T1-1","ts":"2025-01-06T10:00:00Z"}')
#: The log lines that create T1-1 and announce its assignment, m000001.
ANNOUNCED = (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
             '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
             + ASSIGNMENT_WIRE + ']}\n')


class TestReplay:
    def test_clean_log_replays_ok(self, tmp_path, capsys):
        run_simulation(SimConfig(seed=3, horizon_days=2, arrival_rate=4,
                                 roster_size=2), tmp_path)
        log = tmp_path / "SIM.events.ndjson"
        assert main(["replay", "--log", str(log), "--assert"]) == EXIT_OK
        assert "consistency ok" in capsys.readouterr().out

    def test_corrupt_log_is_runtime_error(self, tmp_path):
        log = tmp_path / "log.ndjson"
        log.write_text("garbage\n")
        assert main(["replay", "--log", str(log)]) == EXIT_RUNTIME

    @pytest.mark.parametrize("line, error", [
        (b'{"seq":1%s}' % (b"0" * 5000), "line 2: invalid JSON: Exceeds "
         "the limit (4300 digits) for integer string conversion"),
        (b'{"a":%s}' % (b"[" * 100_000), "line 2: invalid JSON: maximum "
         "recursion depth exceeded"),
        (b"\xff", "line 2: 'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte"),
    ], ids=["int-too-long", "too-deep", "not-utf-8"])
    def test_unreadable_line_is_runtime_error(self, tmp_path, capsys, line,
                                              error):
        log = tmp_path / "log.ndjson"
        log.write_bytes(CREATED.encode() + line + b"\n")
        assert main(["replay", "--log", str(log)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"{log}: {error}")

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_error_before_a_line_that_is_not_utf8_is_named(
            self, tmp_path, capsys, command):
        log = tmp_path / "log.ndjson"
        log.write_bytes(CREATED.encode()
                        + CREATED.replace("T1-1", "T1-2").replace(
                            '"seq":1', '"seq":3').encode() + b"\xff\n")
        assert main([command, "--log", str(log)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"{log}: expected seq 2, found 3\n"

    def test_seq_gap_is_runtime_error(self, tmp_path):
        run_simulation(SimConfig(seed=3, horizon_days=2, arrival_rate=4,
                                 roster_size=2), tmp_path)
        log = tmp_path / "SIM.events.ndjson"
        lines = log.read_text().splitlines()
        log.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
        assert main(["replay", "--log", str(log)]) == EXIT_RUNTIME

    def test_duplicate_created_is_runtime_error(self, team_files, capsys):
        _, board, _ = team_files
        lines = board.read_text().splitlines()
        board.write_text("\n".join(
            lines + [lines[0].replace('"seq":1', '"seq":4')]) + "\n")
        assert main(["replay", "--log", str(board)]) == EXIT_RUNTIME
        assert "ticket T1-1 already exists" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "report"])
    @pytest.mark.parametrize("record, error", [
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","reporter":"r1"}',
         "seq 1: missing value in field 'ticket'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-7","engineer":"e1"}',
         "seq 1: unknown ticket 'T1-7' in field 'ticket'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"MessageDelivered","msg_id":"m000001","state":"Delivered",'
         '"retries":0,"terminal":false}',
         "seq 1: unknown message 'm000001' in field 'msg_id'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1",'
         '"priority":"Urgent"}',
         "seq 1: unknown value 'Urgent' in field 'priority'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":"Nope","actor":"e1"}',
         "seq 2: unknown value 'Nope' in field 'to'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":5,"actor":"e1"}',
         "seq 2: unknown value 5 in field 'to'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":"Backlog",'
         '"actor":"e1","reopen_mode":"Sideways"}',
         "seq 2: unknown value 'Sideways' in field 'reopen_mode'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
         '{"channel":"ChatA","kind":"Assignment","msg_id":"m000001",'
         '"team":"team1","text":"hi","ticket":"T1-1","ts":"not a time"}]}',
         "seq 2: bad timestamp 'not a time' in field 'messages[0].ts'"),
        (CREATED + '{"seq":2,"ts":5,"board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1"}',
         "seq 2: bad timestamp 5 in field 'ts'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1","messages":[5]}',
         "seq 1: not an object: 5 in field 'messages[0]'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1","messages":5}',
         "seq 1: not a list: 5 in field 'messages'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
         + ASSIGNMENT_WIRE.replace("m000001", "mx") + ']}',
         "seq 2: bad message id 'mx' in field 'messages[0].msg_id'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
         + ASSIGNMENT_WIRE + ']}\n'
         '{"seq":3,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"MessageDelivered","msg_id":"m000001","state":"Delivered",'
         '"retries":0,"terminal":false}\n'
         '{"seq":4,"ts":"2025-01-06T11:00:00Z","board":"T1",'
         '"kind":"MessageDelivered","msg_id":"m000001","state":"Failed",'
         '"retries":1,"terminal":false}',
         "seq 4: unknown message 'm000001' in field 'msg_id'"),
        (ANNOUNCED + '{"seq":3,"ts":"2025-01-06T11:00:00Z","board":"T1",'
         '"kind":"MessageDelivered","msg_id":"m000001","state":"Failed",'
         '"retries":"x","terminal":false}',
         "seq 3: bad value 'x' in field 'retries'"),
        (ANNOUNCED + '{"seq":3,"ts":"2025-01-06T11:00:00Z","board":"T1",'
         '"kind":"MessageDelivered","msg_id":[],"state":"Failed",'
         '"retries":1,"terminal":false}',
         "seq 3: unknown message [] in field 'msg_id'"),
        (ANNOUNCED + '{"seq":3,"ts":"2025-01-06T11:00:00Z","board":"T1",'
         '"kind":"Reassigned","ticket":"T1-1","engineer":"e2","messages":['
         + ASSIGNMENT_WIRE + ']}',
         "seq 3: reused message id 'm000001' in field 'messages[0].msg_id'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":["x"],"reporter":"r1"}',
         "seq 1: bad value ['x'] in field 'ticket'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":["T1-1"],"to":"Done","actor":"e1"}',
         "seq 2: unknown ticket ['T1-1'] in field 'ticket'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":["e1"]}',
         "seq 2: bad value ['e1'] in field 'engineer'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1","labels":5}',
         "seq 1: bad value 5 in field 'labels'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1","labels":"abc"}',
         "seq 1: bad value 'abc' in field 'labels'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":5}',
         "seq 1: bad value 5 in field 'reporter'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1",'
         '"cursor_after":"q"}',
         "seq 2: bad value 'q' in field 'cursor_after'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":"Done","actor":"e1"}\n'
         '{"seq":3,"ts":"2025-01-06T11:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":"Blocked",'
         '"actor":"e1","reopen_mode":"ToBacklog"}',
         "seq 3: bad value 'Blocked' in field 'to'"),
        ('{"seq":1.0,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1"}',
         "seq 1.0: bad value 1.0 in field 'seq'"),
        ('{"seq":true,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1"}',
         "seq True: bad value True in field 'seq'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":["x"],'
         '"kind":"Created","ticket":"T1-1","reporter":"r1"}\n'
         '{"seq":2,"ts":"2025-01-06T09:00:00Z","board":"OTHER",'
         '"kind":"Created","ticket":"T1-2","reporter":"r1"}',
         "seq 1: bad value ['x'] in field 'board'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T09:00:00Z","board":"OTHER",'
         '"kind":"Created","ticket":"T1-2","reporter":"r1"}',
         "seq 2: expected board 'T1', got 'OTHER' in field 'board'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
         + ASSIGNMENT_WIRE.replace('"hi"', "5") + ']}',
         "seq 2: bad value 5 in field 'messages[0].text'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Assigned","ticket":"T1-1","engineer":"e1","messages":['
         + ASSIGNMENT_WIRE.replace('"T1-1"', '["T1-1"]') + ']}',
         "seq 2: bad value ['T1-1'] in field 'messages[0].ticket'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1",'
         '"sla_deadline":0}',
         "seq 1: bad timestamp 0 in field 'sla_deadline'"),
        ('{"seq":1,"ts":"2025-01-06T09:00:00Z","board":"T1",'
         '"kind":"Created","ticket":"T1-1","reporter":"r1",'
         '"sla_deadline":false}',
         "seq 1: bad timestamp False in field 'sla_deadline'"),
        (CREATED + '{"seq":2,"ts":"2025-01-06T10:00:00Z","board":"T1",'
         '"kind":"Transitioned","ticket":"T1-1","to":"Backlog",'
         '"actor":"e1","reopen_mode":""}',
         "seq 2: unknown value '' in field 'reopen_mode'"),
    ], ids=["missing-field", "unknown-ticket", "unknown-message",
            "unknown-priority", "unknown-state", "state-int",
            "unknown-reopen-mode", "message-ts", "event-ts",
            "message-not-object", "messages-int", "message-id",
            "message-settled-twice", "retries-string", "msg-id-list",
            "message-id-reused", "ticket-list", "transition-ticket-list",
            "engineer-list",
            "labels-int", "labels-string", "reporter-int", "cursor-string",
            "reopen-to-mismatch", "seq-float", "seq-bool", "board-list",
            "board-other", "wire-text-int", "wire-ticket-list",
            "sla-deadline-zero", "sla-deadline-false",
            "reopen-mode-empty"])
    def test_unfoldable_record_is_runtime_error(self, tmp_path, capsys,
                                                command, record, error):
        log = tmp_path / "log.ndjson"
        log.write_text(record + "\n")
        assert main([command, "--log", str(log)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"{log}: {error}\n"

    def test_missing_log_is_validation_error(self, tmp_path):
        assert main(["replay", "--log", str(tmp_path / "no.ndjson")]) == \
            EXIT_VALIDATION

    @pytest.mark.parametrize("wrong, error", [
        ({"state": WorkflowState.BLOCKED}, "state differs from the log"),
        ({"resolved_at": None}, "resolved_at differs from the log"),
        ({"resolved_at": datetime(2025, 1, 6, 11, tzinfo=timezone.utc)},
         "resolved_at differs from the log"),
    ], ids=["state", "resolved-at-missing", "resolved-at-moved"])
    def test_assert_checks_the_fold_against_the_log(self, tmp_path, capsys,
                                                    monkeypatch, wrong,
                                                    error):
        log = tmp_path / "log.ndjson"
        log.write_text(
            CREATED.replace("T1-1", "T1-2") + CREATED.replace('"seq":1',
                                                               '"seq":2')
            + '{"seq":3,"ts":"2025-01-06T10:00:00Z","board":"T1",'
            '"kind":"Transitioned","ticket":"T1-1","to":"Done",'
            '"actor":"e1"}\n')
        assert main(["replay", "--log", str(log), "--assert"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("consistency ok\n")

        # A fold that lands T1-1 wrongly: --assert reads the log, not the
        # snapshot, so it names the ticket.
        moved = eventlog.apply_transition
        monkeypatch.setattr(eventlog, "apply_transition",
                            lambda *args: evolve(moved(*args), **wrong))
        assert main(["replay", "--log", str(log), "--assert"]) == \
            EXIT_RUNTIME
        assert capsys.readouterr().err == f"T1-1: {error}\n"


class TestReport:
    @pytest.fixture
    def sim_log(self, tmp_path):
        run_simulation(SimConfig(seed=5, horizon_days=3, arrival_rate=6,
                                 roster_size=3), tmp_path)
        return tmp_path / "SIM.events.ndjson"

    def test_table_and_csv_agree(self, sim_log, capsys):
        assert main(["report", "--log", str(sim_log)]) == EXIT_OK
        table = capsys.readouterr().out
        assert main(["report", "--log", str(sim_log),
                     "--format", "csv"]) == EXIT_OK
        csv = capsys.readouterr().out
        row = [l for l in csv.splitlines() if l.startswith("SIM,All,")][0]
        _, _, tickets, engineers, median, mx, avg, std = row.split(",")
        for value in (tickets, median, avg, std):
            assert value in table

    def test_split_produces_two_periods(self, sim_log, capsys):
        assert main(["report", "--log", str(sim_log),
                     "--split", "2025-01-07T00:00:00Z",
                     "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "SIM,PreBot," in out and "SIM,PostBot," in out

    def test_split_counts_every_assigned_engineer_in_each_period(
            self, tmp_path, capsys):
        # Before the split two tickets are resolved: two of the four
        # engineers, every one of them assigned in the run, resolve none.
        config = SimConfig(seed=5, horizon_days=4, arrival_rate=6,
                           roster_size=4)
        run = run_simulation(config, tmp_path)
        assert sorted(run.snapshot.assign_counts) == engineer_ids(config)
        split = "2025-01-06T14:00:00Z"
        assert main(["report", "--log", str(tmp_path / "SIM.events.ndjson"),
                     "--split", split, "--format", "csv"]) == EXIT_OK
        distribution = capsys.readouterr().out.split("\nteam,")[0]
        rows = {row[1]: row[3:] for row in (
            line.split(",") for line in distribution.splitlines()[1:])}
        for period in ("PreBot", "PostBot"):
            tickets = [t for t in run.snapshot.tickets.values()
                       if (t.created_at < parse_ts(split))
                       == (period == "PreBot")]
            r = period_report("SIM", period, tickets, engineer_ids(config))
            assert rows[period][0] == "4"
            assert rows[period][3:] == [f"{round2(r.avg):.2f}",
                                        f"{round2(r.std):.2f}"]

    @pytest.mark.parametrize("args, stdout", [
        ([], """\
team SIM
period   #tickets  #engg   median    max      avg      std  resolution
All            15      4     3.50      7     3.75     2.17      1d:03h
"""),
        (["--format", "csv"], """\
team,period,tickets,engineers,median,max,avg,std
SIM,All,15,4,3.50,7.00,3.75,2.17
team,period,avg_hours,formatted
SIM,All,27.26,1d:03h
"""),
        (["--split", "2025-01-07T12:00:00Z"], """\
team SIM
period   #tickets  #engg   median    max      avg      std  resolution
PostBot         9      4     2.50      3     2.25     0.83      1d:03h
PreBot          6      4     1.00      4     1.50     1.50      1d:02h
"""),
        (["--split", "2025-01-07T12:00:00Z", "--format", "csv"], """\
team,period,tickets,engineers,median,max,avg,std
SIM,PostBot,9,4,2.50,3.00,2.25,0.83
SIM,PreBot,6,4,1.00,4.00,1.50,1.50
team,period,avg_hours,formatted
SIM,PostBot,27.78,1d:03h
SIM,PreBot,26.48,1d:02h
"""),
        (["--split", "2025-01-01T00:00:00Z"], """\
team SIM
period   #tickets  #engg   median    max      avg      std  resolution
PostBot        15      4     3.50      7     3.75     2.17      1d:03h
"""),
    ], ids=["table", "csv", "split-table", "split-csv", "split-before-all"])
    def test_report_output_is_pinned(self, tmp_path, capsys, args, stdout):
        # Manual assignment leaves the engineers' counts uneven, and one
        # engineer resolves no ticket created before the split: PreBot
        # counts that engineer as a zero.
        run_simulation(SimConfig(seed=5, horizon_days=4, arrival_rate=6,
                                 roster_size=4, policy="Manual",
                                 manual_delay_days=1), tmp_path)
        log = tmp_path / "SIM.events.ndjson"
        assert main(["report", "--log", str(log), *args]) == EXIT_OK
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("args, stdout", [
        ([], """\
team board
period   #tickets  #engg   median    max      avg      std  resolution
All             0      1     0.00      0     0.00     0.00      0d:00h
"""),
        (["--format", "csv"], """\
team,period,tickets,engineers,median,max,avg,std
board,All,0,1,0.00,0.00,0.00,0.00
team,period,avg_hours,formatted
board,All,0.00,0d:00h
"""),
    ], ids=["table", "csv"])
    def test_report_of_an_empty_log_is_pinned(self, tmp_path, capsys, args,
                                              stdout):
        log = tmp_path / "empty.ndjson"
        log.write_text("")
        assert main(["report", "--log", str(log), *args]) == EXIT_OK
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("split", ["yesterday",
                                       "9999-12-31T23:59:59-05:00"])
    def test_bad_split_is_validation_error(self, sim_log, capsys, split):
        assert main(["report", "--log", str(sim_log),
                     "--split", split]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"bad --split {split!r}: ")
        assert captured.out == ""


class TestSimulate:
    def test_experiment_writes_outputs(self, tmp_path, capsys):
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({
            "pre": {"horizon_days": 4, "arrival_rate": 8, "roster_size": 4,
                    "policy": "Manual"},
            "post": {"horizon_days": 4, "arrival_rate": 8, "roster_size": 4},
        }))
        out = tmp_path / "result"
        code = main(["simulate", "--experiment", str(experiment),
                     "--out", str(out), "--seed", "7"])
        assert code == EXIT_OK
        assert (out / "distribution.csv").exists()
        assert (out / "resolution.csv").exists()
        assert (out / "comparison.txt").exists()
        printed = capsys.readouterr().out
        assert printed.strip() == \
            (out / "comparison.txt").read_text().strip()

    def test_stock_experiment_output_is_pinned(self, tmp_path, capsys):
        # The sha256 of `sha256sum` over the sorted output files, as
        # `find . -type f | sort | xargs sha256sum | sha256sum` prints it
        # from inside the output directory.
        out = tmp_path / "stock"
        assert main(["simulate", "--seed", "1", "--out", str(out)]) == EXIT_OK
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"./{path.relative_to(out).as_posix()}\n"
            for path in sorted(out.rglob("*"), key=lambda p: p.as_posix())
            if path.is_file())
        assert hashlib.sha256(listing.encode()).hexdigest() == \
            "86600c06176bc1efd08b9cb0f024109a9489cbdc09e5f88d18e26ee4b5509427"

    def test_bad_experiment_config_is_validation_error(self, tmp_path):
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({"pre": {"sneed": 1}, "post": {}}))
        code = main(["simulate", "--experiment", str(experiment),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("doc", [[1, 2], "pre", 5, None,
                                     {"pre": [1], "post": {}},
                                     {"pre": None, "post": {}}])
    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]],
                             ids=["no-seed", "seed"])
    def test_experiment_of_another_shape_is_validation_error(
            self, tmp_path, capsys, doc, seed):
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps(doc))
        code = main(["simulate", "--experiment", str(experiment),
                     "--out", str(tmp_path / "r"), *seed])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("experiment config: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5),
        ("horizon_days", 1.5),
        ("horizon_days", NAN),
        ("arrival_rate", NAN),
        ("roster_size", 1.5),
        ("policy", "Astrology"),
        ("service_median_hours", [NAN, 2.0]),
        ("service_sigma", NAN),
        ("reassign_prob", -0.1),
        ("gamer_fraction", 2),
        ("gamer_hold_fraction", NAN),
        ("manual_skew", INF),
        ("manual_delay_days", -1),
        ("cycle_period_hours", 0),
        ("reminders_enabled", "yes"),
        ("stuck_threshold_hours", 0),
        ("reminder_period_hours", 0),
        # Rounds to a zero `timedelta`, which the reminders divide by.
        ("reminder_period_hours", 1e-12),
        ("sla_warning_fraction", NAN),
    ], ids=lambda v: str(v))
    def test_each_bad_field_is_validation_error(self, tmp_path, capsys,
                                                field, value):
        # Reminders on, so the reminder fields would reach a run.
        pre = {"horizon_days": 2, "arrival_rate": 4, "roster_size": 3,
               "reminders_enabled": True, field: value}
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({"pre": pre, "post": {}}))
        code = main(["simulate", "--experiment", str(experiment),
                     "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("experiment config: ")
        assert field in err or field == "policy"
        assert not (tmp_path / "r").exists()

    def test_deterministic_outputs(self, tmp_path):
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({
            "pre": {"horizon_days": 3, "arrival_rate": 6, "roster_size": 3,
                    "policy": "Manual", "seed": 2},
            "post": {"horizon_days": 3, "arrival_rate": 6, "roster_size": 3,
                     "seed": 2},
        }))
        for name in ("a", "b"):
            assert main(["simulate", "--experiment", str(experiment),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        for rel in ("distribution.csv", "resolution.csv", "comparison.txt",
                    "pre/SIM.events.ndjson", "post/SIM.events.ndjson"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("name", ["distribution.csv", "resolution.csv",
                                      "comparison.txt"])
    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys, name):
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({
            "pre": {"horizon_days": 2, "arrival_rate": 4, "roster_size": 3,
                    "policy": "Manual"},
            "post": {"horizon_days": 2, "arrival_rate": 4, "roster_size": 3},
        }))
        out = tmp_path / "result"
        (out / name).mkdir(parents=True)  # a directory in the file's way
        code = main(["simulate", "--experiment", str(experiment),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.err.startswith(f"cannot write {out / name}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


#: The HTTP client stack and what it pulls in. Only the webhook sink uses
#: it, and only once it delivers.
HTTP_STACK = ("http.client", "urllib.request", "urllib.error", "email", "ssl")

#: Imports the package and replays a log with `requests` blocked and,
#: under `python -S`, no site-packages on the path at all; then prints
#: which of the modules named after the log got loaded.
STDLIB_ONLY = """
import sys
sys.modules["requests"] = None
import dispatchbot
from dispatchbot import cli
code = cli.main(["replay", "--log", sys.argv[1], "--assert"])
print("loaded:", *sorted(set(sys.argv[2:]) & set(sys.modules)))
sys.exit(code)
"""


def test_runs_on_the_standard_library_alone(tmp_path):
    run_simulation(SimConfig(seed=3, horizon_days=2, arrival_rate=4,
                             roster_size=2), tmp_path)
    src = str(Path(dispatchbot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY,
         str(tmp_path / "SIM.events.ndjson"), *HTTP_STACK],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert "consistency ok" in done.stdout
    # A process with no webhook never loads the HTTP client.
    assert done.stdout.splitlines()[-1] == "loaded:"


#: Imports the package and every submodule, then prints the top-level
#: name of every module loaded.
IMPORT_ALL = """
import importlib, pkgutil, sys
import dispatchbot
for module in pkgutil.iter_modules(dispatchbot.__path__):
    importlib.import_module(f"dispatchbot.{module.name}")
print(*sorted({name.partition(".")[0] for name in sys.modules}))
"""


def test_imports_and_declares_only_the_standard_library():
    src = str(Path(dispatchbot.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_ALL],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    loaded = set(done.stdout.split())
    assert "dispatchbot" in loaded
    assert loaded - sys.stdlib_module_names == {"__main__", "dispatchbot"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


#: Delivers one message through a `WebhookSink` to the URL in argv[1] and
#: prints its outcome; fails if the HTTP client loaded before that.
WEBHOOK_CHILD = """
import sys
import dispatchbot.cli
from dispatchbot.notify import PayloadRejected, SinkUnreachable, WebhookSink
if "http.client" in sys.modules:
    sys.exit("http.client loaded before the first delivery")
wire = {"msg_id": "m000001", "team": "team1", "channel": "ChatA",
        "kind": "Assignment", "ticket": "T1-1", "text": "hi",
        "ts": "2025-01-06T09:00:00Z"}
try:
    WebhookSink(sys.argv[1], timeout=5).deliver(wire)
except PayloadRejected:
    print("rejected")
except SinkUnreachable:
    print("unreachable")
else:
    print("delivered")
"""


@pytest.fixture
def loopback():
    """A one-connection-at-a-time loopback server: it reads each request
    in full and answers with the bytes in its `reply`, or closes the
    connection unanswered when `reply` is empty."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            length = 0
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            self.server.bodies.append(self.rfile.read(length))
            self.wfile.write(self.server.reply)

    server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
    server.bodies, server.reply = [], b""
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize("reply, url, outcome", [
    (b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", None, "delivered"),
    (b"HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n", None,
     "rejected"),
    (b"HTTP/1.0 503 Unavailable\r\nContent-Length: 0\r\n\r\n", None,
     "unreachable"),
    (b"", None, "unreachable"),  # closed before a status line
    (b"HELLO\r\n\r\n", None, "unreachable"),  # no status line at all
    (None, "closed-port", "unreachable"),
    (None, "http://[::1/hook", "unreachable"),
], ids=["200", "400", "503", "closed-early", "bad-status-line",
        "closed-port", "malformed-url"])
def test_webhook_loads_the_http_client_on_first_delivery(loopback, reply,
                                                          url, outcome):
    host, port = loopback.server_address
    if reply is not None:
        loopback.reply = reply
        url = f"http://{host}:{port}/hook"
    elif url == "closed-port":
        url = f"http://127.0.0.1:{closed_port()}/hook"
    src = str(Path(dispatchbot.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", WEBHOOK_CHILD, url],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.strip() == outcome
    assert len(loopback.bodies) == (reply is not None)
