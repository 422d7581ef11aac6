"""Host-speed probe: a fixed pure-Python kernel timed between requests.

The shared 2-core host this benchmark was written on changes speed by up to
1.8x within a fraction of a second and drifts over minutes.  CPU time follows
wall time, so the slowdown is in the processor, not in scheduling, and the
raw wall time of a run says as much about the neighbours as about graphck:
over ten seeds, raw end-to-end times spread up to 0.40 of their median
(interquartile range).  Scaled as below, two ten-seed sets per workload
spread 0.02-0.12, and their medians agreed within 9%.

Every timed loop runs the kernel before its first request, after any request
that ends ``INTERVAL_S`` or more after the previous sample, and after its
last request.  Each request's time is multiplied by ``REFERENCE_S`` over the
kernel time around it (see ``Probe.scale``), so it reads as the time the
request would take with the host at reference speed.  The kernel never calls
graphck: a change to graphck moves the scaled time by the same factor as the
raw time.  Runs print the raw figures next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

INTERVAL_S = 0.05
# median kernel time on the reference host (2-core x86-64 VM, Python 3.11)
# in a fast spell; it only fixes the unit, so that scaled times read as ms
REFERENCE_S = 0.00044
KERNEL_ROUNDS = 4

_M = tuple(tuple((i * 7 + j * 3) % 11 - 5 for j in range(8)) for i in range(8))
_COLS = tuple(zip(*_M))
_BIG = tuple(3 ** (300 + 17 * k) for k in range(4))


def kernel() -> int:
    """graphck's mix in small: list-of-lists integer products, a dict of
    tuples, a sort and big-integer gcds.  Per request, it followed graphck's
    slowdowns a little better than an integer loop that allocates nothing."""
    acc = 0
    for r in range(KERNEL_ROUNDS):
        p = [[sum(a * b for a, b in zip(row, col)) + r for col in _COLS] for row in _M]
        table = {(i, j): x for i, row in enumerate(p) for j, x in enumerate(row)}
        acc += sorted(table.values())[32] + len(table)
        for a in _BIG:
            for b in _BIG:
                acc += math.gcd(a * b + r, a + b) & 7
    return acc


def factor(kernel_s: float) -> float:
    """What a time measured while the kernel took ``kernel_s`` is multiplied by."""
    return REFERENCE_S / kernel_s


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probe:
    """Kernel timings taken between the requests of one timed loop."""

    def __init__(self):
        self.samples = [kernel_seconds()]
        self._due = perf_counter() + INTERVAL_S

    def tick(self, force: bool = False) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if force or perf_counter() >= self._due:
            self.samples.append(kernel_seconds())
            self._due = perf_counter() + INTERVAL_S

    def scale(self, raw: list[float], segments: list[int]) -> list[float]:
        """Latencies at reference speed.

        ``segments[i]`` is the index of the last sample taken before request
        ``i``.  Its speed is the median of four samples: the two that bracket
        it and one more on each side.  Host speed changes within 100 ms, so a
        wider window follows it less well, and the two brackets alone let one
        disturbed kernel run set the scale.
        """
        s = self.samples
        return [x * factor(statistics.median(s[max(0, k - 1):k + 3])) for x, k in zip(raw, segments)]

    def speed(self) -> float:
        """Median host speed over the loop, relative to the reference (1 = reference)."""
        return factor(statistics.median(self.samples))


def scaled_call(fn):
    """Run ``fn()``; returns (result, raw seconds, seconds at reference speed).

    ``fn`` is bracketed by five kernel timings on each side, and the median
    of the ten sets the scale.
    """
    before = [kernel_seconds() for _ in range(5)]
    t0 = perf_counter()
    result = fn()
    raw = perf_counter() - t0
    after = [kernel_seconds() for _ in range(5)]
    return result, raw, raw * factor(statistics.median(before + after))
