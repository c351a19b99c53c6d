"""Benchmark of the dispatchbot loop: poll, assign, remind, flush.

    python3 bench/run.py --workload stock --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the `dispatchbot` package
under `src/`. Set-up runs a few times in fresh interpreters and is timed
from process start until the workload's inputs exist. The timed phase
then repeats the workload's sample (see `workloads.py`) in this process
until `--seconds` have passed, and checks the outputs of the first and
last samples in full.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics. With `--trace 1` the run alternates untraced and
traced samples; the per-layer metrics come from the traced ones only,
and the spans, self times, counts and tracing overhead go to
`.bench_out/trace-<workload>-seed<seed>.json`. The exit code is 1 when a
check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("stock", "overload", "big_team")
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 3
#: Samples taken however short `--seconds` is: the first and last are
#: checked in full, and a traced run needs one traced sample.
MIN_SAMPLES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child side of a set-up timing: import, build inputs, report them."""
    import workloads

    print(json.dumps(workloads.build_inputs(args.workload, args.seed)),
          flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], dict]:
    times, inputs = [], None
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up exited {code}")
        probed = json.loads(line)
        if inputs is not None and probed != inputs:
            raise RuntimeError("set-up made different inputs for one seed")
        inputs = probed
        times.append(elapsed)
    return times, inputs


@dataclass
class Outcome:
    samples: list = field(default_factory=list)
    traced: list = field(default_factory=list)   # flag per sample
    span_range: tuple = (0, 0)     # spans of the first traced sample
    log_sha256: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def split(self) -> tuple[list, list]:
        """(untraced samples, traced samples)."""
        pairs = list(zip(self.samples, self.traced))
        return ([s for s, t in pairs if not t], [s for s, t in pairs if t])


def run_samples(args, work: Path, inputs: dict, tracer) -> Outcome:
    import workloads
    from speed import SpeedProbe
    from tracing import CycleTimer, Patches

    timer = CycleTimer(SpeedProbe())
    workload = workloads.make(args.workload, args.seed, work, timer, inputs)
    out = Outcome()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(out.samples) % 2 == 1
        gc.collect()
        patches = Patches()
        span_mark = tracer.span_count if tracer else 0
        if traced:
            tracer.install(patches)
        first_cycle = len(timer.durations)
        t0 = time.perf_counter()
        try:
            sample = workload.sample()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops = max(1, len(timer.durations) - first_cycle)
            out.attempted += ops
            out.failed += ops
            out.problems.append(f"sample {len(out.samples) + 1} raised")
            return out
        finally:
            patches.undo()
        wall = time.perf_counter() - t0
        if traced and not any(out.traced):
            out.span_range = (span_mark, tracer.span_count)
        last = (len(out.samples) + 1 >= MIN_SAMPLES
                and time.perf_counter() + wall > deadline)
        if not out.samples or last:
            sample.problems += workload.check()
            out.log_sha256 = out.log_sha256 or workload.log_sha256
            if workload.log_sha256 != out.log_sha256:
                sample.problems.append("event log differs from the first "
                                       "sample's")
        workload.discard()
        out.attempted += sample.operations
        if sample.problems:
            out.failed += sample.operations
            out.problems += sample.problems
        out.samples.append(sample)
        out.traced.append(traced)
        if last:
            return out


def median_over(samples, value) -> float:
    return statistics.median(value(s) for s in samples)


def events_per_s(samples) -> float:
    return median_over(samples, lambda s: s.events * s.slowdown / s.busy_s)


def end_to_end(samples, setup_times) -> dict:
    """Each timing is taken per sample, scaled to the reference speed
    (see speed.py), and the run reports its median over samples. Set-up
    time runs in other processes and is reported as measured."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "events_per_s": (events_per_s(samples), "events/s"),
        "cycle_ms_p50": (median_over(
            samples, lambda s: statistics.median(s.cycles_ms) / s.slowdown),
            "ms"),
        "cycle_ms_p95": (median_over(
            samples, lambda s: statistics.quantiles(s.cycles_ms, n=20)[18]
            / s.slowdown), "ms"),
        "restart_s": (median_over(
            samples, lambda s: s.restart_s / s.restart_slowdown), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def per_layer(tracer, traced, plain) -> dict:
    """Counts per sample, and times per call or per sample scaled to the
    reference speed by the traced samples' median slowdown."""
    n = len(traced)
    scale = 1 / median_over(traced, lambda s: s.slowdown)
    self_s = Counter({k: v * scale for k, v in tracer.self_s.items()})
    total_s = tracer.total_s
    calls, counts = tracer.calls, tracer.counts

    def per(value, base):
        return value / base if base else 0.0

    def us_per_call(name):
        return per(self_s[name] * 1e6, calls[name])

    scanned = counts["reminders.tickets_scanned"]
    emitted = counts["reminders.emitted"]
    traced_eps = events_per_s(traced)
    plain_eps = events_per_s(plain)
    return {
        "board.cycles": (calls["board.cycle"] / n, "count"),
        "board.cycle_self_ms": (us_per_call("board.cycle") / 1e3, "ms"),
        "board.inject_us": (us_per_call("board.inject"), "us"),
        "board.transition_us": (us_per_call("board.transition"), "us"),
        "assignment.calls": (calls["assignment"] / n, "count"),
        "assignment.us_per_call": (us_per_call("assignment"), "us"),
        "roster.available_pool.calls": (
            calls["roster.available_pool"] / n, "count"),
        "roster.available_pool.us_per_call": (
            us_per_call("roster.available_pool"), "us"),
        "roster.available_pool.cycle_share": (
            per(total_s["roster.available_pool"], total_s["board.cycle"]),
            "fraction"),
        "reminders.ms": (self_s["reminders"] * 1e3 / n, "ms"),
        "reminders.tickets_scanned": (scanned / n, "count"),
        "reminders.emitted": (emitted / n, "count"),
        "reminders.emit_ratio": (per(emitted, scanned), "fraction"),
        "notify.deliver.calls": (calls["notify.deliver"] / n, "count"),
        "notify.deliver.us_per_call": (us_per_call("notify.deliver"), "us"),
        "notify.messages_built": (counts["notify.messages_built"] / n,
                                  "count"),
        "eventlog.fold.calls": (calls["eventlog.fold"] / n, "count"),
        "eventlog.fold.us_per_event": (us_per_call("eventlog.fold"), "us"),
        "eventlog.append.us_per_event": (
            per(self_s["eventlog.append"] * 1e6,
                counts["eventlog.append.events"]), "us"),
        "eventlog.bytes_per_event": (
            per(sum(s.log_bytes for s in traced),
                sum(s.events for s in traced)), "bytes"),
        "eventlog.parse.us_per_event": (
            per(self_s["eventlog.parse"] * 1e6,
                counts["eventlog.parse.events"]), "us"),
        "eventlog.outbox_size": (
            statistics.median(s.outbox_size for s in traced), "count"),
        "eventlog.ledger_size": (
            statistics.median(s.ledger_size for s in traced), "count"),
        "workflow.transition.us_per_call": (
            us_per_call("workflow.transition"), "us"),
        "timeutil.iso.calls": (counts["timeutil.iso.calls"] / n, "count"),
        "timeutil.parse_ts.calls": (
            counts["timeutil.parse_ts.calls"] / n, "count"),
        "sim.outside_cycle_ms": (self_s["sim.run"] * 1e3 / n, "ms"),
        "metrics.report_ms": (self_s["metrics.report"] * 1e3 / n, "ms"),
        "trace.spans": (tracer.span_count / n, "count"),
        "trace.events_per_s_traced": (traced_eps, "events/s"),
        "trace.events_per_s_untraced": (plain_eps, "events/s"),
        "trace.overhead": (plain_eps / traced_eps - 1, "fraction"),
    }


def write_trace(args, tracer, out: Outcome, metrics: dict) -> Path:
    plain, traced = out.split()
    n = len(traced)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_samples": n,
        "untraced_samples": len(plain),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "layers": {
            name: {"calls_per_sample": tracer.calls[name] / n,
                   "self_ms_per_sample": tracer.self_s[name] * 1e3 / n,
                   "total_ms_per_sample": tracer.total_s[name] * 1e3 / n}
            for name in tracer.names},
        "counts_per_sample": {k: v / n for k, v in tracer.counts.items()},
        "spans_of_first_traced_sample": tracer.dump(*out.span_range),
    }
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dispatchbot" / "__init__.py").is_file():
        print(f"no dispatchbot package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2
    try:
        setup_times, inputs = measure_setup(args)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    import dispatchbot
    import workloads
    from tracing import Tracer

    if Path(dispatchbot.__file__).resolve().parent != SRC / "dispatchbot":
        print(f"imported {dispatchbot.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = run_samples(args, work, inputs, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced = out.split()
    correct = not out.problems and bool(plain) \
        and bool(traced or not args.trace)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {}
    if args.trace and traced and plain:
        metrics = per_layer(tracer, traced, plain)
        path = write_trace(args, tracer, out, metrics)
        print(f"trace written to {path.relative_to(ROOT)}")
    elif not args.trace and plain:
        metrics = end_to_end(plain, setup_times)

    cycles = sum(len(s.cycles_ms) for s in out.samples)
    print(f"workload {args.workload} seed {args.seed}: {len(out.samples)} "
          f"samples ({len(traced)} traced), {cycles} cycles")
    parameters = workloads.parameters(args.workload, args.seed, inputs)
    print(f"inputs {json.dumps(parameters)}")
    print(f"log sha256 {args.workload} seed={args.seed} {out.log_sha256}")
    print("events/s per sample, as measured " + " ".join(
        f"{s.events / s.busy_s:.0f}{'*' if t else ''}"
        for s, t in zip(out.samples, out.traced)))
    print("machine slowdown per sample " + " ".join(
        f"{s.slowdown:.2f}" for s in out.samples))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:14.4f} {unit}")
    print(f"  {'error_rate':36} {out.failed / max(1, out.attempted):14.4f} "
          f"fraction ({out.failed}/{out.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
