"""Calibrated time: durations in units of a reference kernel.

This sandbox's CPU speed is not constant.  The same pure-Python loop
takes 1.15 ms on a quiet minute and 1.8 ms (or, under a burst of steal,
50 ms) on the next, and the drift has components from milliseconds to
minutes, so neither longer runs nor medians of repetitions make a raw
wall-clock metric repeat within a tenth.  What does repeat is the
*ratio* of the program's time to the time of a fixed piece of reference
work measured next to it.

So every duration the benchmark gates is reported in calibrated seconds:
``raw * KERNEL_REF_NS / kernel_ns``, where ``kernel_ns`` is how long
:func:`kernel` took within a few tens of milliseconds of the interval
being measured.  ``KERNEL_REF_NS`` is the kernel's duration on this
sandbox when quiet, so on a quiet machine calibrated and raw seconds
agree; it only fixes the unit.  Raw numbers are kept beside every
calibrated one.

Two ways to take the samples:

* inline — a load generator that owns the timed loop (TCP client, the
  direct driver) cuts it into slices of ~0.1 s and calls
  :func:`sample` between slices;
* :class:`Sampler` — when the timed phase is one opaque call in a child
  process (``Experiment.run()``), the otherwise idle parent samples
  every ``period`` seconds and integrates over the child's interval.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: Duration of :func:`kernel` on the reference machine state (this
#: 2-vCPU sandbox, quiet, CPython 3.11).  Changing it rescales every
#: calibrated metric, so it is part of the benchmark's definition.
KERNEL_REF_NS = 800_000

_TABLE = {index: index * 7 for index in range(4096)}
_BLOB = bytes(range(256)) * 64


def kernel() -> int:
    """One run of the reference work, in ns: dictionary lookups, integer
    arithmetic, list growth and byte slicing — the mix the programs
    under test spend their time in."""
    table, blob = _TABLE, _BLOB
    started = time.perf_counter_ns()
    acc, kept = 0, []
    for index in range(6000):
        acc += table[(index * 31) & 4095] ^ index
        if not index & 63:
            kept.append(blob[index & 1023:(index & 1023) + 512])
    return time.perf_counter_ns() - started


def sample() -> int:
    """Median of three kernel runs (ns): one calibration point."""
    return sorted((kernel(), kernel(), kernel()))[1]


def factor(kernel_ns: float) -> float:
    """Multiply a raw duration by this to get calibrated time."""
    return KERNEL_REF_NS / kernel_ns


class Sampler:
    """Calibration points on a timeline, for intervals timed elsewhere.

    Call :meth:`poll` in a loop (it sleeps ``period`` between points);
    afterwards :meth:`calibrated` integrates ``dt * factor`` over any
    ``[start, end]`` given in ``time.monotonic()`` seconds.
    """

    def __init__(self, period: float = 0.04) -> None:
        self.period = period
        self.points: List[Tuple[float, int]] = [(time.monotonic(), sample())]

    def poll(self) -> None:
        time.sleep(self.period)
        self.points.append((time.monotonic(), sample()))

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated length of ``[start, end]``: each stretch between
        two points is scaled by the point that closes it."""
        total, previous = 0.0, start
        for stamp, kernel_ns in self.points:
            if stamp <= start:
                continue
            upto = min(stamp, end)
            total += (upto - previous) * factor(kernel_ns)
            previous = upto
            if stamp >= end:
                break
        if previous < end:  # past the last point: reuse it
            total += (end - previous) * factor(self.points[-1][1])
        return total

    def median_kernel_ns(self) -> float:
        return statistics.median(k for _, k in self.points)
