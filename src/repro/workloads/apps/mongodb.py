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
from ..ycsb import YCSBWorkload

__all__ = ["MongoWorkload"]


class MongoWorkload(YCSBWorkload):
    """YCSB over a file-backed (mmap) document store."""

    def __init__(
        self,
        name: str = "mongodb",
        nrecords: int = 2_000_000,
        record_kb: float = 1.0,
        read_fraction: float = 0.95,
        threads: int = 2,
        cpu_us_per_op: float = 120.0,
        journal_every: int = 200,
    ) -> None:
        super().__init__(
            name,
            nrecords,
            read_fraction=read_fraction,
            threads=threads,
            cpu_us_per_op=cpu_us_per_op,
        )
        self.record_kb = record_kb
        self.journal_every = journal_every
        self._data: Optional[File] = None
        self._journal: Optional[File] = None
        self._records_per_block = 1
        self._since_journal = 0

    @property
    def dataset_mb(self) -> float:
        return self.nrecords * self.record_kb / 1024.0

    def prepare(self):
        block_bytes = self.container.vm.block_bytes
        self._records_per_block = max(1, int(block_bytes / (self.record_kb * 1024)))
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
        return (int(self.record_kb * 1024), 0)

    def do_update(self, key: int):
        yield from self.container.write(self._data, self._block_of(key), 1)
        # ``_since_journal`` is shared by the threads and is bumped right
        # after the write, so the CPU cost cannot ride in that wait.
        self._since_journal += 1
        if self._since_journal >= self.journal_every:
            self._since_journal = 0
            yield from self.container.append(self._journal, 1, sync=True)
        yield from self.spend_cpu()
        return (0, int(self.record_kb * 1024))
