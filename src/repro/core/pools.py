"""Cache pools: the per-container object namespaces of the hypervisor cache.

Each application container gets a *pool* (created via the ``CREATE_CGROUP``
event).  A pool indexes its cached blocks per file (``inode -> {block ->
store}``) and keeps one FIFO per store backend, an ``OrderedDict`` of
``(inode, block)`` keys, as the eviction order (FIFO is the
LRU-equivalent for an exclusive cache: a hit removes the block, so
residence order is insertion order).

This module is the only writer of block occupancy: every mutator moves a
pool's ``used`` and its engine's store-wide ``totals`` together, and
charges or releases each memory block in the pool's ``units``, if any.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .config import CachePolicy, StoreKind
from .stats import PoolStats

__all__ = ["Pool", "VMEntry", "BlockKey"]

#: A cached object's identity within a pool: (inode number, block offset).
BlockKey = Tuple[int, int]

_MEMORY = StoreKind.MEMORY
_SSD = StoreKind.SSD


class Pool:
    """One container's slice of the hypervisor cache."""

    __slots__ = ("pool_id", "vm_id", "name", "policy", "files", "fifos",
                 "used", "totals", "entitlement", "stats", "active", "admission",
                 "units")

    def __init__(self, pool_id: int, vm_id: int, name: str, policy: CachePolicy,
                 totals: Optional[Dict[StoreKind, int]] = None) -> None:
        self.pool_id = pool_id
        self.vm_id = vm_id
        self.name = name
        self.policy = policy
        #: inode -> {block offset -> store holding it}
        self.files: Dict[int, Dict[int, StoreKind]] = {}
        #: StoreKind -> its cached keys, oldest first (the eviction order)
        self.fifos: Dict[StoreKind, "OrderedDict[BlockKey, None]"] = {
            _MEMORY: OrderedDict(),
            _SSD: OrderedDict(),
        }
        #: StoreKind -> blocks currently cached
        self.used: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        #: StoreKind -> blocks held by every pool sharing this dict (the
        #: engine's ``used``); each mutator moves it with ``used``.
        self.totals = {_MEMORY: 0, _SSD: 0} if totals is None else totals
        #: StoreKind -> current entitlement in blocks (set by the policy module)
        self.entitlement: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        self.stats = PoolStats(pool_id=pool_id, vm_id=vm_id, name=name)
        #: False once destroyed; guards against use-after-destroy.
        self.active = True
        #: SSD admission controller (repro.endurance); None = admit freely.
        self.admission = None
        #: The memory store's ``MemoryUnits`` (compression/dedup), or None.
        self.units = None

    # -- lookups ---------------------------------------------------------------

    def lookup(self, inode: int, block: int) -> Optional[StoreKind]:
        """Where (if anywhere) the block is cached."""
        tree = self.files.get(inode)
        if tree is None:
            return None
        return tree.get(block)

    def __len__(self) -> int:
        return self.used[_MEMORY] + self.used[_SSD]

    # -- mutation -----------------------------------------------------------------

    def insert(self, inode: int, block: int, kind: StoreKind) -> None:
        """Add a block to the tail of store ``kind``'s FIFO (caller
        enforces capacity).

        Replacing an existing copy moves it from its old store's FIFO to
        that tail (the block is the youngest resident again), matching the
        drop-then-reinsert the paper's put path performs.
        """
        tree = self.files.get(inode)
        if tree is None:
            tree = self.files[inode] = {}
        key = (inode, block)
        units = self.units
        previous = tree.get(block)
        if previous is not None:
            del self.fifos[previous][key]
            self.used[previous] -= 1
            self.totals[previous] -= 1
            if units is not None and previous is _MEMORY:
                units.release(self.vm_id, inode, block)
        tree[block] = kind
        self.fifos[kind][key] = None
        self.used[kind] += 1
        self.totals[kind] += 1
        if units is not None and kind is _MEMORY:
            units.charge(self.vm_id, inode, block)

    def remove_key(self, key: BlockKey) -> Optional[StoreKind]:
        """Remove the ``(inode, block)`` block; returns the store it was
        in, or ``None``."""
        mem_hits, ssd_hits = self.remove_many((key,))
        return _MEMORY if mem_hits else _SSD if ssd_hits else None

    def insert_new(self, keys: Sequence[BlockKey], kind: StoreKind) -> bool:
        """Add a batch of uncached keys, in one pass, to the tail of store
        ``kind``'s FIFO in request order (caller enforces capacity).
        Refuses, changing nothing, if a key is already cached or repeated
        in the batch: that needs :meth:`insert`'s replacement, per key."""
        batch = set(keys)
        fifos = self.fifos
        if (len(batch) != len(keys)
                or not fifos[_MEMORY].keys().isdisjoint(batch)
                or not fifos[_SSD].keys().isdisjoint(batch)):
            return False
        files = self.files
        fifo = fifos[kind]
        for key in keys:
            tree = files.get(key[0])
            if tree is None:
                tree = files[key[0]] = {}
            tree[key[1]] = kind
            fifo[key] = None
        self.used[kind] += len(keys)
        self.totals[kind] += len(keys)
        units = self.units
        if units is not None and kind is _MEMORY:
            for inode, block in keys:
                units.charge(self.vm_id, inode, block)
        return True

    def remove_many(self, keys) -> Tuple[List[BlockKey], List[BlockKey]]:
        """Drop every present key; returns ``(memory_hits, ssd_hits)`` in
        request order."""
        mem_hits: List[BlockKey] = []
        ssd_hits: List[BlockKey] = []
        files = self.files
        fifos = self.fifos
        units = self.units
        for key in keys:
            tree = files.get(key[0])
            if tree is None:
                continue
            kind = tree.pop(key[1], None)
            if kind is None:
                continue
            if not tree:
                del files[key[0]]
            del fifos[kind][key]
            if kind is _MEMORY:
                mem_hits.append(key)
                if units is not None:
                    units.release(self.vm_id, key[0], key[1])
            else:
                ssd_hits.append(key)
        for kind, count in ((_MEMORY, len(mem_hits)), (_SSD, len(ssd_hits))):
            self.used[kind] -= count
            self.totals[kind] -= count
        return mem_hits, ssd_hits

    def remove_inode(self, inode: int) -> Dict[StoreKind, int]:
        """Drop every cached block of ``inode``; returns per-store counts."""
        tree = self.files.pop(inode, None)
        dropped = {_MEMORY: 0, _SSD: 0}
        if tree is None:
            return dropped
        units = self.units
        for block, kind in tree.items():
            del self.fifos[kind][(inode, block)]
            dropped[kind] += 1
            if units is not None and kind is _MEMORY:
                units.release(self.vm_id, inode, block)
        for kind, count in dropped.items():
            self.used[kind] -= count
            self.totals[kind] -= count
        return dropped

    def pop_oldest(self, kind: StoreKind) -> Optional[BlockKey]:
        """Evict the FIFO head of store ``kind``; returns its key."""
        fifo = self.fifos[kind]
        if not fifo:
            return None
        key = fifo.popitem(last=False)[0]
        inode = key[0]
        tree = self.files[inode]
        del tree[key[1]]
        if not tree:
            del self.files[inode]
        self.used[kind] -= 1
        self.totals[kind] -= 1
        if self.units is not None and kind is _MEMORY:
            self.units.release(self.vm_id, inode, key[1])
        return key

    def drain(self) -> Dict[StoreKind, int]:
        """Remove everything (pool destruction); returns per-store counts."""
        counts = dict(self.used)
        units = self.units
        if units is not None:
            for inode, block in self.fifos[_MEMORY]:
                units.release(self.vm_id, inode, block)
        self.files.clear()
        for kind, count in counts.items():
            self.fifos[kind].clear()
            self.used[kind] = 0
            self.totals[kind] -= count
        return counts

    def charge(self, kind: StoreKind, blocks: int) -> None:
        """Count ``blocks`` into (or, negative, out of) store ``kind``
        without indexing them: for a driver that indexes whole entries
        itself (the service) and tells its pools block counts only."""
        self.used[kind] += blocks
        self.totals[kind] += blocks

    def iter_keys(self, kind: Optional[StoreKind] = None) -> Iterator[BlockKey]:
        """All cached keys, oldest-first, optionally limited to one store."""
        kinds = [kind] if kind is not None else list(self.fifos)
        for k in kinds:
            yield from self.fifos[k]

    # -- per-inode sweeps --------------------------------------------------

    def items_of_inode(self, inode: int) -> List[Tuple[int, StoreKind]]:
        """``(block, kind)`` pairs of one file in ascending block order
        (``migrate_objects`` depends on it)."""
        return sorted(self.files.get(inode, {}).items())

    # -- snapshot ----------------------------------------------------------------

    def snapshot_stats(self) -> PoolStats:
        """A copy of the pool's stats with live usage/entitlement filled in."""
        stats = PoolStats(
            pool_id=self.pool_id,
            vm_id=self.vm_id,
            name=self.name,
            mem_used_blocks=self.used[_MEMORY],
            ssd_used_blocks=self.used[_SSD],
            mem_entitlement_blocks=self.entitlement[_MEMORY],
            ssd_entitlement_blocks=self.entitlement[_SSD],
            gets=self.stats.gets,
            get_hits=self.stats.get_hits,
            puts=self.stats.puts,
            puts_stored=self.stats.puts_stored,
            flushes=self.stats.flushes,
            flush_requests=self.stats.flush_requests,
            evictions=self.stats.evictions,
            migrated_in=self.stats.migrated_in,
            migrated_out=self.stats.migrated_out,
            migrated_rejected=self.stats.migrated_rejected,
            put_rejected_policy=self.stats.put_rejected_policy,
            put_rejected_capacity=self.stats.put_rejected_capacity,
            put_rejected_admission=self.stats.put_rejected_admission,
            put_rejected_backpressure=self.stats.put_rejected_backpressure,
            trickle_rejected_admission=self.stats.trickle_rejected_admission,
            ssd_writes=self.stats.ssd_writes,
        )
        return stats


def check_vm_weight(weight: float) -> float:
    """``weight`` if it is a valid VM weight (finite, non-negative)."""
    if not (math.isfinite(weight) and weight >= 0):
        raise ValueError(f"VM weight must be finite and non-negative, got {weight}")
    return weight


class VMEntry:
    """A virtual machine registered with the hypervisor cache."""

    __slots__ = ("vm_id", "name", "weight", "pools")

    def __init__(self, vm_id: int, name: str, weight: float) -> None:
        self.vm_id = vm_id
        self.name = name
        #: Relative share of every store among VMs (hypervisor-level policy).
        self.weight = check_vm_weight(weight)
        self.pools: Dict[int, Pool] = {}

    def used(self, kind: StoreKind) -> int:
        """Blocks this VM's pools hold in store ``kind``."""
        return sum(pool.used[kind] for pool in self.pools.values())

    def entitlement(self, kind: StoreKind) -> int:
        """Blocks this VM is entitled to in store ``kind``."""
        return sum(pool.entitlement[kind] for pool in self.pools.values())

    def pools_on(self, kind: StoreKind) -> List[Pool]:
        """Pools of this VM configured to use store ``kind``."""
        return [
            pool for pool in self.pools.values() if pool.policy.weight_for(kind) > 0
        ]
