"""Host-speed calibration for the benchmark's timings.

On the shared two-core host this benchmark was written on, the speed of
identical Python code moves between regimes that last seconds to
minutes, by up to a factor of two: other tenants come and go.  A fixed
reference loop, timed just before and just after each measured step,
estimates the speed the step ran at; the step's time is then reported
as it would read on a host that runs the loop at
``REFERENCE_STEPS_PER_S``.  The raw host timings are kept in the
results file next to the converted ones.

The program slows down less than the loop when the host does: across
regimes its times scale as the loop's to the power ``EXPONENT``.  The
exponent was fitted on that host over ten seeds of every workload; with
1.0 the converted rates fell as the host sped up.

The loop is the shape of the simulator's hot path (a heap of timed
entries, generator processes resumed with ``send``, dict counters,
small-object method calls).  It lives here, outside the program, so no
change to the program can change it.
"""

from __future__ import annotations

import heapq
import time

#: Calibration steps per second of the nominal reference host.
REFERENCE_STEPS_PER_S = 1_000_000.0

#: How a step's time follows the loop's from one host regime to another.
EXPONENT = 0.8

#: Steps per sample: about 10 ms on the host the benchmark was tuned on.
STEPS = 10_000

#: Steps per sample around set-up steps and imports, which run for up
#: to a second: a longer sample evens out bursts on the host.
SETUP_STEPS = 50_000


class _Node:
    __slots__ = ("load", "inbox")

    def __init__(self) -> None:
        self.load = 0
        self.inbox = []

    def deliver(self, payload: int) -> int:
        self.inbox.append(payload)
        if len(self.inbox) > 8:
            self.inbox.clear()
        self.load += 1
        return self.load


def _process(node: _Node):
    total = 0
    while True:
        total += yield node.deliver(total & 7)


def steps_per_s(steps: int = STEPS) -> float:
    """One calibration sample: reference-loop steps per host second."""
    procs = [_process(_Node()) for _ in range(64)]
    for proc in procs:
        next(proc)
    heap = [(index * 0.5, index) for index in range(64)]
    heapq.heapify(heap)
    counts = {}
    start = time.perf_counter()
    for _ in range(steps):
        when, index = heapq.heappop(heap)
        load = procs[index].send(1)
        counts[index] = counts.get(index, 0) + 1
        heapq.heappush(heap, (when + (load % 7) + 1.0, index))
    return steps / (time.perf_counter() - start)


def reference_seconds(host_s: float, before: float, after: float) -> float:
    """``host_s`` measured between two calibration samples, converted to
    seconds on the reference host."""
    speed = (before + after) / 2.0
    return host_s * (speed / REFERENCE_STEPS_PER_S) ** EXPONENT
