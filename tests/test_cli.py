from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dispatchbot
from dispatchbot.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from dispatchbot.eventlog import encode_event
from dispatchbot.sim import SimConfig, run_simulation

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
    ], ids=["missing-field", "unknown-ticket", "unknown-message"])
    def test_unfoldable_record_is_runtime_error(self, tmp_path, capsys,
                                                command, record, error):
        log = tmp_path / "log.ndjson"
        log.write_text(record + "\n")
        assert main([command, "--log", str(log)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"{log}: {error}\n"

    def test_missing_log_is_validation_error(self, tmp_path):
        assert main(["replay", "--log", str(tmp_path / "no.ndjson")]) == \
            EXIT_VALIDATION


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


#: Imports the package and replays a log with `requests` blocked and,
#: under `python -S`, no site-packages on the path at all.
STDLIB_ONLY = """
import sys
sys.modules["requests"] = None
import dispatchbot
from dispatchbot import cli
sys.exit(cli.main(["replay", "--log", sys.argv[1], "--assert"]))
"""


def test_runs_on_the_standard_library_alone(tmp_path):
    run_simulation(SimConfig(seed=3, horizon_days=2, arrival_rate=4,
                             roster_size=2), tmp_path)
    src = str(Path(dispatchbot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY,
         str(tmp_path / "SIM.events.ndjson")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert "consistency ok" in done.stdout
