"""Redis model: an in-memory store living entirely in anonymous memory.

The paper's key diagnostic (Table 1): Redis cannot be helped by the
hypervisor cache at all — squeeze its cgroup and it swaps.  Every record
access touches the anon page holding the record; the working set is
``nrecords * record_kb``.
"""

from __future__ import annotations

from ..ycsb import YCSBWorkload

__all__ = ["RedisWorkload"]


class RedisWorkload(YCSBWorkload):
    """YCSB over an anonymous-memory key-value store."""

    def __init__(
        self,
        name: str = "redis",
        nrecords: int = 2_000_000,
        record_kb: float = 1.0,
        read_fraction: float = 0.95,
        threads: int = 2,
        cpu_us_per_op: float = 80.0,
    ) -> None:
        super().__init__(
            name,
            nrecords,
            read_fraction=read_fraction,
            threads=threads,
            cpu_us_per_op=cpu_us_per_op,
        )
        self.record_kb = record_kb
        self._records_per_page = 1  # set at start (needs block size)

    def start(self, container, streams) -> None:
        super().start(container, streams)
        block_kb = container.vm.block_bytes / 1024.0
        self._records_per_page = max(1, int(block_kb / self.record_kb))

    def _page_of(self, key: int) -> int:
        return key // self._records_per_page

    # Nothing follows the page touch, so the op's CPU cost rides in it.

    def do_read(self, key: int):
        yield from self.container.touch_anon([self._page_of(key)], self.cpu_s)
        return (int(self.record_kb * 1024), 0)

    def do_update(self, key: int):
        # Updates touch the same page (in-place value rewrite).
        yield from self.container.touch_anon([self._page_of(key)], self.cpu_s)
        return (0, int(self.record_kb * 1024))
