"""Workload framework: threaded op loops with throughput/latency accounting.

A workload binds to a :class:`~repro.guest.vm.Container`, spawns one
simulation process per thread, and counts completed operations, bytes
moved, and per-op latencies.  Experiments snapshot the counters at
measurement-window boundaries to compute rates (skipping warm-up).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from ..guest import Container
from ..simkernel import Environment, Interrupt, Process, RandomStreams

__all__ = ["Workload", "WorkloadCounters", "CounterSnapshot"]


class WorkloadCounters:
    """Cumulative workload-side counters."""

    __slots__ = ("ops", "bytes_read", "bytes_written", "latency_total")

    def __init__(self) -> None:
        self.ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.latency_total = 0.0

    def op_done(self, latency: float, bytes_read: int = 0, bytes_written: int = 0) -> None:
        self.ops += 1
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.latency_total += latency


@dataclass(frozen=True)
class CounterSnapshot:
    """Point-in-time copy of the counters for interval rates."""

    time: float
    ops: int
    bytes_read: int
    bytes_written: int
    latency_total: float

    def rates_since(self, earlier: "CounterSnapshot") -> dict:
        """ops/s, MB/s, and mean latency between two snapshots."""
        dt = self.time - earlier.time
        if dt <= 0:
            return {"ops_per_s": 0.0, "mb_per_s": 0.0, "mean_latency_ms": 0.0}
        ops = self.ops - earlier.ops
        total_bytes = (
            self.bytes_read - earlier.bytes_read
            + self.bytes_written - earlier.bytes_written
        )
        lat_total = self.latency_total - earlier.latency_total
        return {
            "ops_per_s": ops / dt,
            "mb_per_s": total_bytes / dt / (1024.0 * 1024.0),
            "mean_latency_ms": (lat_total / ops * 1000.0) if ops else 0.0,
        }


class Workload(abc.ABC):
    """Base class for all workload models: ``threads`` closed loops, each
    starting its next op when the last one completes."""

    def __init__(self, name: str, threads: int) -> None:
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        self.name = name
        self.threads = threads
        self.counters = WorkloadCounters()
        self.container: Optional[Container] = None
        self.env: Optional[Environment] = None
        self.rng = None
        self._processes: List[Process] = []
        self._prepared = False

    # -- lifecycle ------------------------------------------------------------

    def start(self, container: Container, streams: RandomStreams) -> None:
        """Bind to a container and launch all threads."""
        self.container = container
        self.env = container.vm.env
        self.rng = streams.stream(f"workload.{self.name}")
        self._ready = self.env.event()
        for tid in range(self.threads):
            process = self.env.process(
                self._thread_main(tid), name=f"{self.name}-t{tid}"
            )
            self._processes.append(process)

    def stop(self) -> None:
        """Interrupt every thread (used by dynamic experiments)."""
        for process in self._processes:
            if process.is_alive:
                process.interrupt("stop")
        self._processes.clear()

    def _thread_main(self, tid: int):
        try:
            if tid == 0:
                yield from self.prepare()
                self._prepared = True
                self._ready.succeed()
            elif not self._prepared:
                yield self._ready
            while True:
                start = self.env.now
                stats = yield from self.run_op(tid)
                bytes_read, bytes_written = stats if stats else (0, 0)
                self.counters.op_done(self.env.now - start, bytes_read,
                                      bytes_written)
        except Interrupt:
            return

    # -- accounting --------------------------------------------------------------

    def snapshot(self) -> CounterSnapshot:
        """Capture the counters for later interval-rate computation."""
        counters = self.counters
        return CounterSnapshot(
            time=self.env.now if self.env is not None else 0.0,
            ops=counters.ops,
            bytes_read=counters.bytes_read,
            bytes_written=counters.bytes_written,
            latency_total=counters.latency_total,
        )

    # -- to implement ----------------------------------------------------------------

    def prepare(self):
        """One-time dataset setup (runs in the first thread).

        Default: nothing.  Generators may yield to lay data on disk.
        """
        return
        yield  # pragma: no cover - makes this a generator

    @abc.abstractmethod
    def run_op(self, tid: int):
        """One operation; returns ``(bytes_read, bytes_written)``."""
