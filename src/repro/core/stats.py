"""Statistics records returned by the cache's ``GET_STATS`` operation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["PoolStats", "put_ledger_problems"]


@dataclass
class PoolStats:
    """Per-pool (per-container) cache statistics.

    This is the payload of the paper's ``GET_STATS`` cleancache extension:
    it gives the in-VM policy controller visibility into each container's
    hypervisor-cache allocation and usage.
    """

    pool_id: int
    vm_id: int
    name: str
    mem_used_blocks: int = 0
    ssd_used_blocks: int = 0
    mem_entitlement_blocks: int = 0
    ssd_entitlement_blocks: int = 0
    gets: int = 0
    get_hits: int = 0
    puts: int = 0
    puts_stored: int = 0
    #: Blocks actually dropped by flush_many/flush_inode (drops, not asks).
    flushes: int = 0
    #: Blocks the guest asked to flush, whether or not they were resident.
    flush_requests: int = 0
    evictions: int = 0
    #: Blocks re-homed into/out of this pool by ``MIGRATE_OBJECT``.
    migrated_in: int = 0
    migrated_out: int = 0
    #: Blocks a ``MIGRATE_OBJECT`` left behind because the target pool's
    #: policy zero-weights their current store (partial migration).
    migrated_rejected: int = 0
    #: Put-outcome ledger: every put is stored or lands in exactly one of
    #: these buckets, so ``puts == puts_stored + put_rejected_*`` holds.
    put_rejected_policy: int = 0
    put_rejected_capacity: int = 0
    put_rejected_admission: int = 0
    put_rejected_backpressure: int = 0
    #: Trickle-down blocks the admission controller kept off the SSD
    #: (not part of the put ledger — trickles are internal migrations).
    trickle_rejected_admission: int = 0
    #: Blocks this pool enqueued toward the SSD device (puts + trickles).
    ssd_writes: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served by the cache."""
        return self.get_hits / self.gets if self.gets else 0.0


def put_ledger_problems(stats: PoolStats) -> List[str]:
    """The violation of ``puts == puts_stored + put_rejected_*`` in a
    pool's stats, if any: every put is stored or lands in exactly one
    rejection bucket, so no rejection is silently dropped."""
    accounted = (stats.puts_stored + stats.put_rejected_policy
                 + stats.put_rejected_capacity + stats.put_rejected_admission
                 + stats.put_rejected_backpressure)
    if stats.puts == accounted:
        return []
    return [f"pool {stats.pool_id} ({stats.name!r}): put ledger leaks — "
            f"{stats.puts} puts but {accounted} accounted (stored "
            f"{stats.puts_stored}, policy {stats.put_rejected_policy}, "
            f"capacity {stats.put_rejected_capacity}, admission "
            f"{stats.put_rejected_admission}, backpressure "
            f"{stats.put_rejected_backpressure})"]
