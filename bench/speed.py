"""The machine's speed, measured between the program's own steps.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), one process
runs the same code 20-35% faster or slower than the next, and changes
speed within seconds: more than any bound a benchmark may fix. So every
`PROBE_EVERY` cycles, and around each restart, the benchmark times a
fixed pure-Python loop that shares no code with dispatchbot, and
reports each time at the speed at which that loop takes `REFERENCE_S`:

    reported = measured / (median loop time / REFERENCE_S)

A change to dispatchbot moves the reported times in full; a change in
the machine's speed moves the loop as well and cancels out. The loop's
own time is excluded from every measurement.
"""

from __future__ import annotations

import statistics
import time

#: The loop's median time on that machine, where baseline.json was taken.
REFERENCE_S = 185e-6
PROBE_EVERY = 10


def reference_loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.spent_s = 0.0          # wall time spent probing, in total

    def probe(self, count: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(count):
            self.times.append(reference_loop())
        self.spent_s += time.perf_counter() - t0

    def slowdown(self, since: int) -> float:
        """How much slower than nominal the machine ran over the probes
        taken since probe number `since`."""
        return statistics.median(self.times[since:]) / REFERENCE_S
