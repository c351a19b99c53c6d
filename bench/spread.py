"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads stock overload --seeds 1-10 \
        [--seconds 20] [--trace 1] [--out bench/baseline.json]

Runs are sequential. For each workload and metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and their distance
as a share of the median, and marks each end-to-end metric whose spread
is wider than a third of its bound in `BENCHMARK.json`. `--out` merges
the summary into a JSON record with the machine, the Python version, the
commit, each workload's parameters and why it was chosen, and the layer
predictions of `predictions.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def run_once(workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """The run's result line and the inputs it reported."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    inputs = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("inputs "))
    return json.loads(lines[-1]), inputs


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, parameters = {}, {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in args.seeds]
        results = [result for result, _ in runs]
        parameters[workload] = runs[0][1]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            raise SystemExit(f"{workload}: a run failed its checks")
        names = results[0]["metrics"]
        summary[workload] = {}
        print(f"{workload} ({len(results)} seeds, {seconds} s each)")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarise(values)
            stats["unit"] = results[0]["metrics"][name]["unit"]
            summary[workload][name] = stats
            flag = ""
            if name in bounds and name != "setup_s" \
                    and stats["spread"] > bounds[name] / 3:
                flag = "  > bound/3"
            print(f"  {name:36} median {stats['median']:12.4f} "
                  f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} "
                  f"spread {stats['spread']:7.2%}{flag}", flush=True)
    if args.out:
        write_record(args, spec, seconds, summary, parameters)
    return 0


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count(),
            "system": platform.platform(),
            "python": platform.python_version()}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_record(args, spec, seconds, summary, parameters) -> None:
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({"machine": machine(), "commit": commit(),
                   "run_seconds": seconds,
                   "predictions": json.loads(
                       (BENCH / "predictions.json").read_text())})
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    key = "per_layer" if args.trace else "end_to_end"
    workloads = record.setdefault("workloads", {})
    for workload, metrics in summary.items():
        entry = workloads.setdefault(workload, {})
        entry["why"] = whys.get(workload, "")
        entry[f"parameters_seed{args.seeds[0]}"] = parameters[workload]
        entry[key] = {"seeds": args.seeds, "metrics": metrics}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
