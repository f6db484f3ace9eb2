"""Host-speed calibration: time is reported in reference seconds.

The benchmark was built on a shared 2-core box whose speed drifts by up
to 1.6x over minutes (a fixed allocation repeated for four minutes had
an interquartile spread of 28-32 % between 30-second windows).  Raw wall
clock therefore cannot tell two runs of the same code apart from a
regression.  Each run instead times a fixed pure-Python kernel between
its operations and scales every time by ``REFERENCE_S / kernel time``,
using the mean of the kernel timings just before and just after the
operation.  On the same four-minute experiment this cut the spread to
about 5 %.  A pure-Python kernel tracked the drift of both allocation
workloads; a NumPy kernel did not track the selection-bound one.

The kernel runs no ``repro`` code, so a change to the program cannot
move it.  Raw times and kernel timings go into every report.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel time, in seconds, on the box the workload sizes were chosen
#: on; calibrated times are wall-clock times on a host this fast.
REFERENCE_S = 0.028


def kernel() -> float:
    """A fixed, interpreter-bound workload: heap pushes and pops over
    tuples, dict stores and float arithmetic, like TIRM's selection."""
    heap = [(-((i * 7919) % 10007) / 10007.0, i) for i in range(20_000)]
    heapq.heapify(heap)
    seen = {}
    total = 0.0
    while heap:
        score, node = heapq.heappop(heap)
        seen[node] = score
        total += score * node
    return total


class Calibration:
    """Kernel timings taken between a run's operations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def after_operation(self) -> float:
        """Time the kernel again and return the factor that converts the
        operation just finished to reference seconds."""
        before, self._last = self._last, self._measure()
        return REFERENCE_S / ((before + self._last) / 2)

    def run_factor(self) -> float:
        """The whole run's factor, from the median kernel timing."""
        return REFERENCE_S / statistics.median(self.samples)

    def record(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "kernel_median_s": statistics.median(self.samples),
            "kernel_samples": len(self.samples),
        }
