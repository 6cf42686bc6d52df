"""Central metrics registry.

A :class:`MetricsRegistry` holds what has a producer: the latency
histograms of the service's protocol layer and store probe, under
hierarchical dotted names (``"service.lat.get"``).
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

    def wallclock_histogram(self, name: str) -> Histogram:
        """The histogram ``name`` with ns-scale buckets (created on first
        use via :meth:`Histogram.wallclock_ns`)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram.wallclock_ns(name)
        return hist

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        """All histograms whose names start with ``prefix``."""
        return {
            name: hist
            for name, hist in self._histograms.items()
            if name.startswith(prefix)
        }
