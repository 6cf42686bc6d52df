"""Storage backends for the hypervisor cache.

The *metadata* of cached blocks lives in pools; backends model the cost of
moving block *data*:

* :class:`MemBackend` — pure latency arithmetic (memcpy costs).
* :class:`SSDBackend` — a queued :class:`~repro.storage.device.SSD` with
  synchronous reads (the guest waits for a ``get``) and asynchronous,
  bounded-buffer writes (``put`` returns once the block is queued; if the
  buffer is full the put is rejected — cleancache puts are best-effort).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..simkernel import Environment, Event
from ..storage import MB, MemSpec, SSD
from .config import StoreKind

__all__ = ["MemBackend", "SSDBackend", "SSD_WRITE_BUFFER_MB"]

#: The SSD store's write buffer: fills queued for the device beyond this
#: are rejected (cleancache puts are best-effort).
SSD_WRITE_BUFFER_MB = 64.0


class MemBackend:
    """Memory store: costs are memcpy times, no queueing."""

    kind = StoreKind.MEMORY

    def __init__(self, block_bytes: int) -> None:
        self.block_bytes = block_bytes
        self.spec = MemSpec()

    def read_cost(self, nblocks: int) -> float:
        """Seconds to copy ``nblocks`` out of the store."""
        if nblocks <= 0:
            return 0.0
        return nblocks * self.spec.copy_time(self.block_bytes)

    def write_cost(self, nblocks: int) -> float:
        """Seconds to copy ``nblocks`` into the store."""
        if nblocks <= 0:
            return 0.0
        return nblocks * self.spec.copy_time(self.block_bytes)


class SSDBackend:
    """SSD store: sync reads through the device, async buffered writes."""

    kind = StoreKind.SSD

    def __init__(self, env: Environment, device: SSD) -> None:
        self.env = env
        self.device = device
        self.block_bytes = device.block_bytes
        buffer_bytes = max(self.block_bytes, int(SSD_WRITE_BUFFER_MB * MB))
        self._buffer_capacity_blocks = buffer_bytes // self.block_bytes
        #: blocks enqueued but not yet handed to the device by the writer
        self._queued = 0
        self._pending_blocks = 0
        self._wakeup: Optional[Event] = None
        self._writer = env.process(self._drain(), name="ssd-store-writer")
        #: cumulative counters
        self.writes_enqueued = 0
        #: blocks whose device write has completed (drained from buffer);
        #: ``writes_enqueued == blocks_written + pending_blocks`` at every
        #: event boundary (the auditor checks this).
        self.blocks_written = 0

    # -- reads ------------------------------------------------------------------

    def read_runs(self, runs: Sequence[Tuple[int, int]]):
        """Read each ``(start_block, length)`` run; yields until all done."""
        for start, length in runs:
            yield from self.device.read(start, length)

    # -- async writes -------------------------------------------------------------

    @property
    def pending_blocks(self) -> int:
        """Blocks sitting in the write buffer, not yet on flash."""
        return self._pending_blocks

    def has_room(self, nblocks: int) -> bool:
        """Whether the write buffer can take ``nblocks`` more now."""
        return self._pending_blocks + nblocks <= self._buffer_capacity_blocks

    def enqueue_write(self, nblocks: int) -> bool:
        """Queue ``nblocks`` for background writing; False (queueing none
        of them) if the buffer cannot take them all."""
        if nblocks <= 0:
            return True
        if not self.has_room(nblocks):
            return False
        self._queued += nblocks
        self._pending_blocks += nblocks
        self.writes_enqueued += nblocks
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return True

    def _drain(self):
        while True:
            if not self._queued:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            # Coalesce queued writes into one device request (up to 2 MB),
            # mimicking a write-back thread batching dirty cache fills.
            batch = min(self._queued, max(1, (2 * MB) // self.block_bytes))
            self._queued -= batch
            yield from self.device.write(0, batch)
            self._pending_blocks -= batch
            self.blocks_written += batch
