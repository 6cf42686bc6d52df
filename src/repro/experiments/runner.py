"""Experiment scaffolding: results containers and the occupancy sampler."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..context import SimContext
from ..metrics import TimeSeries, ascii_plot, format_table

__all__ = ["Experiment", "ExperimentResult", "OccupancySampler"]


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    ``rows`` holds raw table data (name -> header + row tuples) and
    ``series`` the occupancy traces; :meth:`summary` renders both the way
    the paper's tables/figures report them.
    """

    name: str
    description: str = ""
    rows: Dict[str, Tuple[Sequence[str], List[Sequence[object]]]] = field(
        default_factory=dict
    )
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)

    def add_table(self, key: str, headers: Sequence[str],
                  table_rows: List[Sequence[object]]) -> None:
        self.rows[key] = (headers, table_rows)

    def add_series(self, key: str, series: TimeSeries) -> None:
        self.series[key] = series

    def note(self, text: str) -> None:
        self.notes.append(text)

    def summary(self, plots: bool = True) -> str:
        """Human-readable rendition of all tables (and optionally plots)."""
        parts: List[str] = [f"== {self.name} ==", self.description]
        for key, (headers, table_rows) in self.rows.items():
            parts.append("")
            parts.append(format_table(headers, table_rows, title=f"-- {key} --"))
        if plots and self.series:
            groups: Dict[str, Dict[str, TimeSeries]] = {}
            for key, ts in self.series.items():
                group, _, label = key.partition("/")
                groups.setdefault(group, {})[label or key] = ts
            for group, members in groups.items():
                parts.append("")
                parts.append(ascii_plot(members, title=f"-- {group} (MB over time) --"))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


class Experiment(abc.ABC):
    """Base class: every paper table/figure gets one subclass."""

    #: Experiment id from DESIGN.md's index, e.g. ``"FIG-8"``.
    exp_id: str = ""
    name: str = ""
    description: str = ""

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.seed = seed

    @abc.abstractmethod
    def run(self) -> ExperimentResult:
        """Execute the experiment and return its result."""

    # -- scaling helpers ------------------------------------------------------

    def mb(self, megabytes: float) -> float:
        """Scale a memory/dataset size."""
        return megabytes * self.scale

    def count(self, n: int) -> int:
        """Scale an object count (files, records)."""
        return max(1, int(n * self.scale))

    def secs(self, seconds: float) -> float:
        """Scale a duration (sub-linear so small scales stay meaningful)."""
        return seconds * max(0.25, min(1.0, self.scale))


class OccupancySampler:
    """Periodically samples hypervisor-cache occupancy per container/VM."""

    def __init__(self, ctx: SimContext, interval_s: float = 10.0) -> None:
        self.ctx = ctx
        self.interval_s = interval_s
        self._gauges: List[Tuple[str, Callable[[], float]]] = []
        self._series: Dict[str, TimeSeries] = {}
        self._proc = None

    def watch_pool(self, cache, label: str, pool_id: int, kind=None) -> None:
        """Track one container's pool occupancy in MB.

        ``cache``, ``pool_id``, and ``kind`` are bound eagerly (default
        arguments, not free closure variables) so gauges registered in a
        loop — or against two different caches in one experiment — each
        sample the cache they were registered with.
        """
        def gauge(cache=cache, pool_id=pool_id, kind=kind) -> float:
            return cache.pool_used_mb(pool_id, kind)

        self._gauges.append((label, gauge))

    def watch_vm(self, cache, label: str, vm_id: int, kind=None) -> None:
        """Track one VM's total occupancy in MB (same eager binding)."""
        def gauge(cache=cache, vm_id=vm_id, kind=kind) -> float:
            return cache.vm_used_mb(vm_id, kind)

        self._gauges.append((label, gauge))

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.ctx.env.process(self._loop(), name="occupancy-sampler")

    def _loop(self):
        while True:
            now = self.ctx.now
            for label, gauge in self._gauges:
                series = self._series.get(label)
                if series is None:
                    series = TimeSeries(label)
                    self._series[label] = series
                series.record(now, gauge())
            yield self.ctx.env.timeout(self.interval_s)

    @property
    def series(self) -> Dict[str, TimeSeries]:
        return self._series
