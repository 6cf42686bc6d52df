"""Redis model: an in-memory store living entirely in anonymous memory.

The paper's key diagnostic (Table 1): Redis cannot be helped by the
hypervisor cache at all — squeeze its cgroup and it swaps.  Every record
access touches the anon page holding the record; the working set is
``nrecords`` records of :data:`~repro.workloads.ycsb.RECORD_BYTES`.
"""

from __future__ import annotations

from ..ycsb import RECORD_BYTES, YCSBWorkload

__all__ = ["RedisWorkload"]


class RedisWorkload(YCSBWorkload):
    """YCSB over an anonymous-memory key-value store."""

    READ_FRACTION = 0.95
    CPU_US_PER_OP = 80.0

    def __init__(self, name: str = "redis", nrecords: int = 2_000_000,
                 threads: int = 2) -> None:
        super().__init__(name, nrecords, threads, self.READ_FRACTION,
                         self.CPU_US_PER_OP)
        self._records_per_page = 1  # set at start (needs block size)

    def start(self, container, streams) -> None:
        super().start(container, streams)
        self._records_per_page = max(
            1, container.vm.block_bytes // RECORD_BYTES)

    def _page_of(self, key: int) -> int:
        return key // self._records_per_page

    # Nothing follows the page touch, so the op's CPU cost rides in it.

    def do_read(self, key: int):
        yield from self.container.touch_anon([self._page_of(key)], self.cpu_s)
        return (RECORD_BYTES, 0)

    def do_update(self, key: int):
        # Updates touch the same page (in-place value rewrite).
        yield from self.container.touch_anon([self._page_of(key)], self.cpu_s)
        return (0, RECORD_BYTES)
