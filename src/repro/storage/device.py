"""Queueing block devices built on the simulation kernel.

A :class:`BlockDevice` owns a :class:`~repro.simkernel.resources.Resource`
whose capacity models internal parallelism (1 for a spindle, N channels for
an SSD).  All IO goes through generator methods so callers experience real
queueing delay under contention.

Addresses are *block numbers*; the device is told its block size once so
callers never deal with bytes.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

from ..endurance.wear import WearModel
from ..obs import tracer as _obs
from ..simkernel import Environment, Resource
from .specs import HDDSpec, SSDSpec

__all__ = ["BlockDevice", "HDD", "SSD", "DeviceStats", "block_runs"]


def block_runs(blocks: Iterable[int]) -> List[Tuple[int, int]]:
    """Merge ascending block numbers into ``(start, length)`` runs, one
    device request each.  The caller sorts when its order is not already
    ascending; a number that does not extend the current run starts a
    new one."""
    runs: List[Tuple[int, int]] = []
    start = end = None
    for block in blocks:
        if block != end:
            if start is not None:
                runs.append((start, end - start))
            start = block
        end = block + 1
    if start is not None:
        runs.append((start, end - start))
    return runs


class DeviceStats:
    """Cumulative IO counters for one device."""

    __slots__ = ("reads", "writes", "blocks_read", "blocks_written",
                 "bytes_read", "bytes_written",
                 "sequential_reads", "random_reads")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.sequential_reads = 0
        self.random_reads = 0

    def as_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
        }


class BlockDevice:
    """Common machinery: a service resource, counters, utilization."""

    def __init__(
        self,
        env: Environment,
        name: str,
        block_bytes: int,
        capacity: int,
    ) -> None:
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.env = env
        self.name = name
        self.block_bytes = block_bytes
        self.resource = Resource(env, capacity=capacity)
        self.stats = DeviceStats()
        # Endurance accounting; only flash devices attach a model.
        self.wear: Optional[WearModel] = None

    def utilization(self) -> float:
        """Fraction of elapsed time the device was busy."""
        if self.env.now <= 0:
            return 0.0
        return min(1.0, self.resource.busy_time() / self.env.now)

    # Subclasses supply _service_read / _service_write returning seconds.

    def read(self, offset_block: int, nblocks: int):
        """Read ``nblocks`` starting at ``offset_block``; yields until done."""
        if nblocks <= 0:
            return 0.0
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        with self.resource.request() as req:
            yield req
            start = self.env.now
            service = self._service_read(offset_block, nblocks)
            yield self.env.timeout(service)
        self.stats.reads += 1
        self.stats.blocks_read += nblocks
        self.stats.bytes_read += nblocks * self.block_bytes
        if tracer is not None:
            # ``queued`` separates time spent waiting for a channel from
            # the service time the span's duration otherwise implies.
            tracer.span_end(f"dev.{self.name}.read", t0, self.env.now,
                            blocks=nblocks, queued=start - t0)
        return self.env.now - start

    def write(self, offset_block: int, nblocks: int):
        """Write ``nblocks`` starting at ``offset_block``; yields until done."""
        if nblocks <= 0:
            return 0.0
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        with self.resource.request() as req:
            yield req
            start = self.env.now
            service = self._service_write(offset_block, nblocks)
            yield self.env.timeout(service)
        self.stats.writes += 1
        self.stats.blocks_written += nblocks
        self.stats.bytes_written += nblocks * self.block_bytes
        # Wear is charged at the same site as the stats so the auditor's
        # device/wear reconciliation holds at every event boundary.
        if self.wear is not None:
            self.wear.record_write(nblocks)
        if tracer is not None:
            tracer.span_end(f"dev.{self.name}.write", t0, self.env.now,
                            blocks=nblocks, queued=start - t0)
        return self.env.now - start

    def _service_read(self, offset_block: int, nblocks: int) -> float:
        raise NotImplementedError

    def _service_write(self, offset_block: int, nblocks: int) -> float:
        raise NotImplementedError


class HDD(BlockDevice):
    """Single-spindle disk with sequential-run detection.

    The head position is tracked across requests: a request that starts
    where the previous one ended is serviced at pure transfer speed.
    """

    def __init__(
        self,
        env: Environment,
        block_bytes: int,
        spec: Optional[HDDSpec] = None,
        rng: Optional[random.Random] = None,
        name: str = "hdd",
    ) -> None:
        super().__init__(env, name, block_bytes, capacity=1)
        self.spec = spec or HDDSpec()
        self._rng = rng or random.Random(0)
        self._head_block: Optional[int] = None

    def _positioned_time(self, offset_block: int, nblocks: int) -> float:
        sequential = self._head_block == offset_block
        if sequential:
            self.stats.sequential_reads += 1
        else:
            self.stats.random_reads += 1
        # Seek cost varies +-50% around the average for short/long seeks.
        factor = 0.5 + self._rng.random()
        service = self.spec.access_time(
            nblocks * self.block_bytes, sequential=sequential, seek_factor=factor
        )
        self._head_block = offset_block + nblocks
        return service

    def _service_read(self, offset_block: int, nblocks: int) -> float:
        return self._positioned_time(offset_block, nblocks)

    def _service_write(self, offset_block: int, nblocks: int) -> float:
        return self._positioned_time(offset_block, nblocks)


class SSD(BlockDevice):
    """Flash device with channel parallelism and asymmetric read/write."""

    def __init__(
        self,
        env: Environment,
        block_bytes: int,
        spec: Optional[SSDSpec] = None,
        name: str = "ssd",
    ) -> None:
        spec = spec or SSDSpec()
        super().__init__(env, name, block_bytes, capacity=spec.channels)
        self.spec = spec
        self.wear = WearModel(
            block_bytes=block_bytes,
            capacity_bytes=int(spec.capacity_gb * 1024 * 1024 * 1024),
            pe_cycles=spec.pe_cycles,
            erase_block_kb=spec.erase_block_kb,
            waf=spec.waf,
        )

    def _service_read(self, offset_block: int, nblocks: int) -> float:
        return self.spec.read_time(nblocks * self.block_bytes)

    def _service_write(self, offset_block: int, nblocks: int) -> float:
        return self.spec.write_time(nblocks * self.block_bytes)
