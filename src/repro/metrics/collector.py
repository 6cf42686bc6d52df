"""Central metrics registry plus periodic samplers.

A :class:`MetricsRegistry` holds what has a producer: the gauge series a
:class:`Sampler` records and the latency histograms of the tracer (sim)
or the protocol layer and store probe (service), under hierarchical
dotted names (``"hvcache.pool.web.used_mb"``, ``"service.lat.get"``).
"""

from __future__ import annotations

from typing import Callable, Dict

from .timeseries import Histogram, TimeSeries

__all__ = ["MetricsRegistry", "Sampler"]


class MetricsRegistry:
    """Namespace of named metrics.

    All accessors are create-on-first-use, so producers and consumers don't
    need to coordinate registration order.
    """

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- time series -------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """The time series ``name`` (created empty on first use)."""
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name)
            self._series[name] = ts
        return ts

    def record(self, name: str, time: float, value: float) -> None:
        """Append a sample to series ``name``."""
        self.series(name).record(time, value)

    def all_series(self, prefix: str = "") -> Dict[str, TimeSeries]:
        """All series whose names start with ``prefix``."""
        return {
            name: ts for name, ts in self._series.items() if name.startswith(prefix)
        }

    # -- histograms ---------------------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        """The log-bucketed histogram ``name`` (created on first use with
        the simulated-seconds buckets)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def wallclock_histogram(self, name: str) -> Histogram:
        """The histogram ``name`` with ns-scale buckets (created on first
        use via :meth:`Histogram.wallclock_ns`)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram.wallclock_ns(name)
        return hist

    def register_histogram(self, hist: Histogram) -> Histogram:
        """Adopt an externally built histogram under its own name.

        Used by the tracing layer, which owns its latency histograms but
        registers them here so run reports see them alongside everything
        else.  An existing histogram of the same name wins (the caller
        should then record into the returned object).
        """
        return self._histograms.setdefault(hist.name, hist)

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        """All histograms whose names start with ``prefix``."""
        return {
            name: hist
            for name, hist in self._histograms.items()
            if name.startswith(prefix)
        }


class Sampler:
    """A periodic simulation process recording gauge callables into series.

    Example::

        sampler = Sampler(env, registry, interval=10.0)
        sampler.add("pool.web.used_mb", lambda: pool.used_mb)
        sampler.start()
    """

    def __init__(self, env, registry: MetricsRegistry, interval: float = 10.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.registry = registry
        self.interval = interval
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._process = None

    def add(self, name: str, gauge: Callable[[], float]) -> None:
        """Sample ``gauge()`` into series ``name`` every interval."""
        self._gauges[name] = gauge

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._process is None:
            self._process = self.env.process(self._run(), name="metrics-sampler")

    def sample_once(self) -> None:
        """Record one sample of every gauge at the current time."""
        now = self.env.now
        for name, gauge in self._gauges.items():
            self.registry.record(name, now, float(gauge()))

    def _run(self):
        while True:
            self.sample_once()
            yield self.env.timeout(self.interval)
