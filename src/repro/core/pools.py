"""Cache pools: the per-container object namespaces of the hypervisor cache.

Each application container gets a *pool* (created via the ``CREATE_CGROUP``
event).  A pool indexes its cached blocks per file (``inode -> {block ->
store}``) and keeps one FIFO per store backend, an ``OrderedDict`` of
``(inode, block)`` keys, as the eviction order (FIFO is the
LRU-equivalent for an exclusive cache: a hit removes the block, so
residence order is insertion order).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

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
                 "used", "entitlement", "stats", "active", "admission")

    def __init__(self, pool_id: int, vm_id: int, name: str, policy: CachePolicy) -> None:
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
        #: StoreKind -> current entitlement in blocks (set by the policy module)
        self.entitlement: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        self.stats = PoolStats(pool_id=pool_id, vm_id=vm_id, name=name)
        #: False once destroyed; guards against use-after-destroy.
        self.active = True
        #: SSD admission controller (repro.endurance); None = admit freely.
        self.admission = None

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
        previous = tree.get(block)
        if previous is not None:
            del self.fifos[previous][key]
            self.used[previous] -= 1
        tree[block] = kind
        self.fifos[kind][key] = None
        self.used[kind] += 1

    def remove_key(self, key: BlockKey) -> Optional[StoreKind]:
        """Remove the ``(inode, block)`` block; returns the store it was
        in, or ``None``."""
        inode = key[0]
        tree = self.files.get(inode)
        if tree is None:
            return None
        kind = tree.pop(key[1], None)
        if kind is None:
            return None
        if not tree:
            del self.files[inode]
        del self.fifos[kind][key]
        self.used[kind] -= 1
        return kind

    def remove_many(self, keys) -> Tuple[List[BlockKey], List[BlockKey]]:
        """Drop every present key; returns ``(memory_hits, ssd_hits)`` in
        request order."""
        mem_hits: List[BlockKey] = []
        ssd_hits: List[BlockKey] = []
        remove = self.remove_key
        for key in keys:
            kind = remove(key)
            if kind is _MEMORY:
                mem_hits.append(key)
            elif kind is _SSD:
                ssd_hits.append(key)
        return mem_hits, ssd_hits

    def remove_inode(self, inode: int) -> Dict[StoreKind, int]:
        """Drop every cached block of ``inode``; returns per-store counts."""
        tree = self.files.pop(inode, None)
        dropped = {_MEMORY: 0, _SSD: 0}
        if tree is None:
            return dropped
        for block, kind in tree.items():
            del self.fifos[kind][(inode, block)]
            dropped[kind] += 1
        for kind, count in dropped.items():
            self.used[kind] -= count
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
        return key

    def drain(self) -> Dict[StoreKind, int]:
        """Remove everything (pool destruction); returns per-store counts."""
        counts = dict(self.used)
        self.files.clear()
        for kind in self.used:
            self.fifos[kind].clear()
            self.used[kind] = 0
        return counts

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

    def mem_blocks_of_inode(self, inode: int) -> List[int]:
        """Block offsets of one file currently in the memory store."""
        return [
            block for block, kind in self.files.get(inode, {}).items()
            if kind is _MEMORY
        ]

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


class VMEntry:
    """A virtual machine registered with the hypervisor cache."""

    __slots__ = ("vm_id", "name", "weight", "pools")

    def __init__(self, vm_id: int, name: str, weight: float) -> None:
        if weight < 0:
            raise ValueError(f"VM weight must be non-negative, got {weight}")
        self.vm_id = vm_id
        self.name = name
        #: Relative share of every store among VMs (hypervisor-level policy).
        self.weight = weight
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
