"""Smoke test of the benchmark itself.

    python3 bench/smoke.py [--seed 2]

Runs every workload for one second, untraced and traced, and checks that
each run passes its correctness gate and prints every metric that
`BENCHMARK.json` names, with its unit, plus `error_rate`. It then checks
that the benchmark refuses to run, without printing a result, from a
directory that holds only `BENCHMARK.json` and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"gate: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            problems.append(f"{name}: {got}")
        elif not any(line.split()[:1] == [name] and line.split()[-1] == unit
                     for line in lines[:-1]):
            problems.append(f"{name} not printed with {unit}")
    if not any(line.split()[:1] == ["error_rate"] for line in lines[:-1]):
        problems.append("error_rate not printed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(run(ROOT, workload, args.seed, trace),
                                 expected[trace])
            status = "ok" if not problems else "FAILED"
            print(f"{workload:9} trace={trace} seed={args.seed}: {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "stock", args.seed, 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"bare directory: {'refused' if refused else 'NOT REFUSED'}")
        failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
