"""MongoDB model: an mmap-style store — all data lives in *file* pages.

The opposite diagnostic pole from Redis (Table 1): the page cache and the
hypervisor cache together form one big cache for Mongo's data files, so
performance tracks the *combined* cache size and is insensitive to how
memory is split between the VM and the hypervisor cache (Figure 3's flat
MongoDB line).
"""

from __future__ import annotations

from typing import Optional

from ...guest import File
from ..ycsb import RECORD_BYTES, YCSBWorkload

__all__ = ["MongoWorkload"]


class MongoWorkload(YCSBWorkload):
    """YCSB over a file-backed (mmap) document store."""

    READ_FRACTION = 0.95
    CPU_US_PER_OP = 120.0
    #: Updates between two journal commits (append + fsync).
    JOURNAL_EVERY = 200

    def __init__(self, name: str = "mongodb", nrecords: int = 2_000_000,
                 threads: int = 2) -> None:
        super().__init__(name, nrecords, threads, self.READ_FRACTION,
                         self.CPU_US_PER_OP)
        self._data: Optional[File] = None
        self._journal: Optional[File] = None
        self._records_per_block = 1
        self._since_journal = 0

    def prepare(self):
        block_bytes = self.container.vm.block_bytes
        self._records_per_block = max(1, block_bytes // RECORD_BYTES)
        nblocks = max(1, -(-self.nrecords // self._records_per_block))
        self._data = self.container.create_file(nblocks, name=f"{self.name}-data")
        journal_blocks = max(16, (64 << 20) // block_bytes)
        self._journal = self.container.create_file(
            1, name=f"{self.name}-journal", append_slack=journal_blocks
        )
        return
        yield  # pragma: no cover

    def _block_of(self, key: int) -> int:
        return key // self._records_per_block

    def do_read(self, key: int):
        yield from self.container.read(self._data, self._block_of(key), 1,
                                       self.cpu_s)
        return (RECORD_BYTES, 0)

    def do_update(self, key: int):
        yield from self.container.write(self._data, self._block_of(key), 1)
        # ``_since_journal`` is shared by the threads and is bumped right
        # after the write, so the CPU cost cannot ride in that wait.
        self._since_journal += 1
        if self._since_journal >= self.JOURNAL_EVERY:
            self._since_journal = 0
            yield from self.container.append(self._journal, 1, sync=True)
        yield from self.spend_cpu()
        return (0, RECORD_BYTES)
