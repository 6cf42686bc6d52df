"""MySQL/InnoDB model: anonymous buffer pool over file-backed data,
with a durable redo log (fsync on commit).

Captures the paper's hybrid diagnostic: MySQL needs anonymous memory for
the buffer pool (swaps under cgroup pressure, like Redis) *and* does file
IO on pool misses (where the hypervisor cache can help a little).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ...guest import File
from ..ycsb import RECORD_BYTES, YCSBWorkload

__all__ = ["MySQLWorkload"]


class MySQLWorkload(YCSBWorkload):
    """YCSB over a buffer-pool database; every update commits (appends to
    the redo log and fsyncs it)."""

    READ_FRACTION = 0.5
    CPU_US_PER_OP = 150.0

    def __init__(self, name: str = "mysql", nrecords: int = 2_000_000,
                 buffer_pool_mb: float = 1024.0, threads: int = 2) -> None:
        super().__init__(name, nrecords, threads, self.READ_FRACTION,
                         self.CPU_US_PER_OP)
        self.buffer_pool_mb = buffer_pool_mb
        self._data: Optional[File] = None
        self._redo: Optional[File] = None
        #: data block -> buffer-pool slot (anon page), LRU ordered.
        self._pool: "OrderedDict[int, int]" = OrderedDict()
        self._free_slots: list = []
        self._pool_slots = 0
        self._records_per_block = 1

    def prepare(self):
        block_bytes = self.container.vm.block_bytes
        self._records_per_block = max(1, block_bytes // RECORD_BYTES)
        nblocks = max(1, -(-self.nrecords // self._records_per_block))
        self._data = self.container.create_file(nblocks, name=f"{self.name}-ibd")
        redo_blocks = max(16, (128 << 20) // block_bytes)
        self._redo = self.container.create_file(
            1, name=f"{self.name}-redo", append_slack=redo_blocks
        )
        self._pool_slots = max(8, int(self.buffer_pool_mb * (1 << 20)) // block_bytes)
        self._free_slots = list(range(self._pool_slots))
        return
        yield  # pragma: no cover

    def _block_of(self, key: int) -> int:
        return key // self._records_per_block

    def _pool_access(self, block: int, then: float = 0.0):
        """Touch the buffer-pool page for ``block``; miss reads the data file.

        The pool page is *anonymous* memory: if the cgroup swapped it out,
        the touch faults it back in (that is MySQL's pain under squeeze).
        ``then`` is served in the access's last wait.
        """
        slot = self._pool.get(block)
        if slot is not None:
            self._pool.move_to_end(block)
            yield from self.container.touch_anon([slot], then)
            return False
        # Miss: find a slot (evicting the LRU mapping) and read the block.
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            _, slot = self._pool.popitem(last=False)
        self._pool[block] = slot
        yield from self.container.touch_anon([slot])
        yield from self.container.read(self._data, block, 1, then)
        return True

    def do_read(self, key: int):
        yield from self._pool_access(self._block_of(key), self.cpu_s)
        return (RECORD_BYTES, 0)

    def do_update(self, key: int):
        yield from self._pool_access(self._block_of(key))
        # Commit: append to the redo log and fsync it (durability).  The
        # write path takes no ``then=``, so the CPU cost is its own wait.
        yield from self.container.append(self._redo, 1, sync=True)
        yield from self.spend_cpu()
        return (0, RECORD_BYTES)
