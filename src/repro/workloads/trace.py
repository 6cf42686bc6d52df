"""Block-level trace recording and replay.

Useful for two things the paper's methodology implies but cannot ship
(production traces are proprietary): capturing the block streams our
synthetic workloads generate, and replaying externally-supplied traces
through the full cache stack.

Trace format: an in-memory list (or a text file, one record per line)::

    <t> <op> <inode> <block> <nblocks>

``op`` is one of ``r`` (read), ``w`` (write), ``s`` (sync write),
``a`` (anon touch; ``inode`` is unused, ``block`` is the page).
Replay preserves inter-arrival gaps (optionally time-scaled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, TextIO

from ..guest import Container, File
from .base import Workload

__all__ = ["TraceRecord", "TraceRecorder", "TraceReplayWorkload",
           "load_trace", "dump_trace"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced operation."""

    time: float
    op: str  # r / w / s / a
    inode: int
    block: int
    nblocks: int

    def to_line(self) -> str:
        return f"{self.time:.6f} {self.op} {self.inode} {self.block} {self.nblocks}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed trace line: {line!r}")
        return cls(float(parts[0]), parts[1], int(parts[2]), int(parts[3]),
                   int(parts[4]))


def dump_trace(records: Iterable[TraceRecord], fh: TextIO) -> int:
    """Write records to a text file; returns the count."""
    count = 0
    for record in records:
        fh.write(record.to_line() + "\n")
        count += 1
    return count


def load_trace(fh: TextIO) -> List[TraceRecord]:
    """Parse a trace file (blank lines and ``#`` comments skipped)."""
    records = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        records.append(TraceRecord.from_line(line))
    return records


class TraceRecorder:
    """Wraps a container's IO methods, recording every operation.

    Install with :meth:`attach`; the records accumulate in
    :attr:`records` with simulated timestamps.
    """

    def __init__(self, container: Container) -> None:
        self.container = container
        self.records: List[TraceRecord] = []
        self._installed = False

    def attach(self) -> None:
        if self._installed:
            return
        self._installed = True
        env = self.container.vm.env
        os_ = self.container.vm.os
        cgroup_id = self.container.cgroup.cgroup_id
        records = self.records
        orig_read = os_.read_file
        orig_write = os_.write_file
        orig_anon = os_.touch_anon

        def read_file(cgroup, file, start=0, nblocks=None, then=0.0):
            if cgroup.cgroup_id == cgroup_id:
                count = nblocks if nblocks is not None else file.nblocks - start
                records.append(TraceRecord(env.now, "r", file.inode, start,
                                           max(0, count)))
            result = yield from orig_read(cgroup, file, start, nblocks, then)
            return result

        def write_file(cgroup, file, start=0, nblocks=None, sync=False):
            if cgroup.cgroup_id == cgroup_id:
                count = nblocks if nblocks is not None else file.nblocks - start
                records.append(TraceRecord(env.now, "s" if sync else "w",
                                           file.inode, start, max(0, count)))
            result = yield from orig_write(cgroup, file, start, nblocks, sync)
            return result

        def touch_anon(cgroup, pages, then=0.0):
            pages = list(pages)
            if cgroup.cgroup_id == cgroup_id:
                for page in pages:
                    records.append(TraceRecord(env.now, "a", 0, page, 1))
            result = yield from orig_anon(cgroup, pages, then)
            return result

        os_.read_file = read_file
        os_.write_file = write_file
        os_.touch_anon = touch_anon


class TraceReplayWorkload(Workload):
    """Replays a trace against a container.

    Files referenced by the trace are materialized up front (sized to the
    largest block touched).  Inter-arrival gaps are preserved, scaled by
    ``time_scale`` (0 replays as fast as possible); the trace loops when
    exhausted so long experiments can run on short traces.
    """

    def __init__(
        self,
        records: List[TraceRecord],
        name: str = "trace-replay",
        time_scale: float = 1.0,
        loop: bool = True,
    ) -> None:
        super().__init__(name, threads=1)
        if not records:
            raise ValueError("cannot replay an empty trace")
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.records = records
        self.time_scale = time_scale
        self.loop = loop
        self._files = {}
        self._cursor = 0
        self._last_time: Optional[float] = None

    def prepare(self):
        sizes = {}
        for record in self.records:
            if record.op == "a":
                continue
            top = record.block + record.nblocks
            sizes[record.inode] = max(sizes.get(record.inode, 1), top)
        for inode, nblocks in sizes.items():
            self._files[inode] = self.container.create_file(
                nblocks, name=f"{self.name}-{inode}"
            )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        if self._cursor >= len(self.records):
            if not self.loop:
                # Trace exhausted: park this thread forever.
                yield self.env.timeout(float("1e18"))
                return (0, 0)
            self._cursor = 0
            self._last_time = None
        record = self.records[self._cursor]
        self._cursor += 1

        if self._last_time is not None and self.time_scale > 0:
            gap = max(0.0, record.time - self._last_time) * self.time_scale
            if gap > 0:
                yield self.env.timeout(gap)
        self._last_time = record.time

        block_bytes = self.container.vm.block_bytes
        if record.op == "a":
            yield from self.container.touch_anon([record.block])
            return (block_bytes, 0)
        file = self._files[record.inode]
        nblocks = min(record.nblocks, file.nblocks - record.block)
        if nblocks <= 0:
            return (0, 0)
        if record.op == "r":
            yield from self.container.read(file, record.block, nblocks)
            return (nblocks * block_bytes, 0)
        sync = record.op == "s"
        yield from self.container.write(file, record.block, nblocks, sync=sync)
        return (0, nblocks * block_bytes)
