"""Central metrics registry.

A :class:`MetricsRegistry` holds what has a producer: the latency
histograms of the tracer (sim) or the protocol layer and store probe
(service), under hierarchical dotted names (``"service.lat.get"``).
"""

from __future__ import annotations

from typing import Dict

from .timeseries import Histogram

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Namespace of named metrics.

    All accessors are create-on-first-use, so producers and consumers don't
    need to coordinate registration order.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}

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
