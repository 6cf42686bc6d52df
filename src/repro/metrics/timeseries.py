"""Time-series and latency-histogram containers used across the simulator."""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple

__all__ = ["TimeSeries", "Histogram"]


class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Times must be non-decreasing (samplers append in simulation order).
    Provides the handful of reductions the experiment harness needs:
    means and maxima over windows and the final value.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample at ``time``."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    @property
    def last(self) -> Optional[float]:
        """Most recent value, or ``None`` if empty."""
        return self.values[-1] if self.values else None

    def mean(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Arithmetic mean of samples with ``start <= t <= end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = self.values[lo:hi]
        if not window:
            return 0.0
        return sum(window) / len(window)

    def max(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Maximum of samples with ``start <= t <= end`` (0.0 if none)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = self.values[lo:hi]
        return max(window) if window else 0.0


class Histogram:
    """Log-bucketed histogram for latency-style samples.

    Buckets grow geometrically (``growth`` per bucket, ~4 buckets per
    doubling at the default), so quantile estimates carry a bounded
    *relative* error across nine decades while memory stays a small
    sparse dict.  Every sample lands in a bucket (nothing is sampled
    out), so tail quantiles (p99.9) stay stable for arbitrarily long runs.

    Values at or below ``lo`` share the underflow bucket 0 (with the
    default ``lo`` of 0.1 microseconds that is "instantaneous" for the
    simulator's latencies).

    The default buckets assume simulated-tick magnitudes (seconds); raw
    ``time.perf_counter_ns()`` samples expressed in *seconds* would
    collapse sub-100ns latencies into the underflow bucket.  Wall-clock
    users should record integer nanoseconds into a histogram built by
    :meth:`wallclock_ns`, whose buckets start at 1 ns.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_counts", "_lo", "_log_growth", "_growth")

    def __init__(self, name: str = "", lo: float = 1e-7,
                 growth: float = 2.0 ** 0.25) -> None:
        if lo <= 0:
            raise ValueError(f"lo must be positive, got {lo}")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._counts: Dict[int, int] = {}
        self._lo = lo
        self._growth = growth
        self._log_growth = math.log(growth)

    #: Bucket floor for nanosecond-unit histograms: 1 ns, the resolution
    #: of ``time.perf_counter_ns()``.
    WALLCLOCK_NS_LO = 1.0

    @classmethod
    def wallclock_ns(cls, name: str = "",
                     growth: float = 2.0 ** 0.25) -> "Histogram":
        """A histogram tuned for wall-clock samples in integer nanoseconds.

        Buckets start at 1 ns instead of the simulated-second default, so
        real service latencies (hundreds of ns and up) keep the same
        bounded relative error rather than collapsing into underflow.
        Record ``time.perf_counter_ns()`` deltas directly — no conversion
        to seconds, no float rounding of large tick counts.
        """
        return cls(name, lo=cls.WALLCLOCK_NS_LO, growth=growth)

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self._lo:
            idx = 0
        else:
            idx = 1 + int(math.log(value / self._lo) / self._log_growth)
        self._counts[idx] = self._counts.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def _bucket_bounds(self, idx: int) -> Tuple[float, float]:
        """The value range bucket ``idx`` covers."""
        if idx == 0:
            return (0.0, self._lo)
        return (self._lo * self._growth ** (idx - 1),
                self._lo * self._growth ** idx)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (q in [0, 1]), interpolated within a bucket.

        Clamped to the observed ``[min, max]`` so the bucket rounding can
        never report a value outside the recorded sample range.  Empty
        histograms report 0.0; a single sample is every quantile.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if self.count == 1:
            return self.min
        target = q * self.count
        cumulative = 0
        for idx in sorted(self._counts):
            bucket = self._counts[idx]
            if cumulative + bucket >= target:
                lo, hi = self._bucket_bounds(idx)
                frac = (target - cumulative) / bucket
                value = lo + (hi - lo) * frac
                return min(self.max, max(self.min, value))
            cumulative += bucket
        return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs in bound order.

        Only occupied buckets appear (the sparse dict's keys), each paired
        with the count of samples at or below its upper bound, and the
        list always ends with ``(inf, count)`` — exactly the shape a
        Prometheus histogram exposition needs (``le`` buckets must be
        cumulative and non-decreasing, closed by ``+Inf``).
        """
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for idx in sorted(self._counts):
            cumulative += self._counts[idx]
            out.append((self._bucket_bounds(idx)[1], cumulative))
        out.append((math.inf, self.count))
        return out

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "lo": self._lo,
            "growth": self._growth,
            "buckets": {str(idx): n for idx, n in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram snapshotted by :meth:`as_dict`."""
        hist = cls(payload.get("name", ""), lo=payload["lo"],
                   growth=payload["growth"])
        hist.count = int(payload["count"])
        hist.total = float(payload["total"])
        if hist.count:
            hist.min = float(payload["min"])
            hist.max = float(payload["max"])
        hist._counts = {int(idx): int(n)
                        for idx, n in payload.get("buckets", {}).items()}
        return hist
