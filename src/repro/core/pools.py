"""Cache pools: the per-container object namespaces of the hypervisor cache.

Each application container gets a *pool* (created via the ``CREATE_CGROUP``
event).  A pool indexes its cached blocks with a per-file hash table of
``{block -> handle}`` dicts; all per-block state — identity, store, FIFO
links — lives in a flat :class:`~repro.core.radix.BlockTable` slab shared
by the whole pool, so the data path never allocates per-block objects.
One intrusive FIFO per store backend is the eviction order (FIFO is the
LRU-equivalent for an exclusive cache: a hit removes the block, so
residence order is insertion order).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .config import CachePolicy, StoreKind
from .radix import BlockTable
from .stats import PoolStats

__all__ = ["Pool", "VMEntry", "BlockKey", "CODE_OF", "KIND_OF"]

#: A cached object's identity within a pool: (inode number, block offset).
BlockKey = Tuple[int, int]

_MEMORY = StoreKind.MEMORY
_SSD = StoreKind.SSD

#: Slab store codes (0 is the slab's free-slot marker).
CODE_OF: Dict[StoreKind, int] = {_MEMORY: 1, _SSD: 2}
#: Inverse mapping, indexable by code.
KIND_OF: Tuple[Optional[StoreKind], ...] = (None, _MEMORY, _SSD)

_CODE_MEMORY = 1
_CODE_SSD = 2


class _FifoView:
    """Read-only view of one store's FIFO, oldest first.

    Iteration and length walk the slab's intrusive list, so the view is
    always live.  Only audit/diagnostic paths use it — the data path
    works on the slab directly.
    """

    __slots__ = ("_table", "_code")

    def __init__(self, table: BlockTable, code: int) -> None:
        self._table = table
        self._code = code

    def __iter__(self) -> Iterator[BlockKey]:
        return self._table.fifo_keys(self._code)

    def __len__(self) -> int:
        n = 0
        for _ in self._table.fifo_handles(self._code):
            n += 1
        return n

    def __bool__(self) -> bool:
        return self._table.heads[self._code] >= 0

    def __contains__(self, key: BlockKey) -> bool:
        for candidate in self:
            if candidate == key:
                return True
        return False


class Pool:
    """One container's slice of the hypervisor cache."""

    __slots__ = ("pool_id", "vm_id", "name", "policy", "files", "table",
                 "fifos", "used", "entitlement", "stats", "active",
                 "admission")

    def __init__(self, pool_id: int, vm_id: int, name: str, policy: CachePolicy) -> None:
        self.pool_id = pool_id
        self.vm_id = vm_id
        self.name = name
        self.policy = policy
        #: inode -> {block offset -> slab handle}
        self.files: Dict[int, Dict[int, int]] = {}
        #: Flat per-block state (identity, store code, FIFO links).
        self.table = BlockTable()
        #: StoreKind -> live FIFO view (insertion-ordered keys).
        self.fifos: Dict[StoreKind, _FifoView] = {
            _MEMORY: _FifoView(self.table, _CODE_MEMORY),
            _SSD: _FifoView(self.table, _CODE_SSD),
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
        handle = tree.get(block)
        if handle is None:
            return None
        return KIND_OF[self.table.kind[handle]]

    def __len__(self) -> int:
        return self.used[_MEMORY] + self.used[_SSD]

    # -- mutation -----------------------------------------------------------------

    def insert(self, inode: int, block: int, kind: StoreKind) -> None:
        """Add a block to store ``kind`` (caller enforces capacity).

        Replacing an existing copy re-queues it at the tail of ``kind``'s
        FIFO (the block is the youngest resident again), matching the
        drop-then-reinsert the paper's put path performs.
        """
        files = self.files
        tree = files.get(inode)
        if tree is None:
            tree = {}
            files[inode] = tree
        code = _CODE_MEMORY if kind is _MEMORY else _CODE_SSD
        table = self.table
        handle = tree.get(block)
        if handle is not None:
            previous = table.requeue(handle, code)
            if previous != code:
                self.used[KIND_OF[previous]] -= 1
                self.used[kind] += 1
            return
        tree[block] = table.alloc(inode, block, code)
        self.used[kind] += 1

    def remove(self, inode: int, block: int) -> Optional[StoreKind]:
        """Remove a block; returns the store it was in, or ``None``."""
        return self.remove_key((inode, block))

    def remove_key(self, key: BlockKey) -> Optional[StoreKind]:
        """:meth:`remove` taking the ``(inode, block)`` tuple directly.

        The data path iterates over key tuples; accepting them as-is
        avoids a rebuild of the same tuple for the index deletion.
        """
        inode = key[0]
        tree = self.files.get(inode)
        if tree is None:
            return None
        handle = tree.pop(key[1], None)
        if handle is None:
            return None
        if not tree:
            del self.files[inode]
        kind = KIND_OF[self.table.release(handle)]
        self.used[kind] -= 1
        return kind

    def remove_many(self, keys) -> Tuple[List[BlockKey], List[BlockKey]]:
        """Batch removal sweep: drop every present key in one pass.

        Returns ``(memory_hits, ssd_hits)`` in request order.  The slab
        arrays are bound to locals and the unlink/free writes are inlined,
        so a guest batch costs two dict operations plus a handful of
        array stores per present key — no per-key method dispatch.
        """
        # Fused BlockTable.release: per-key calls cost ~2.5% of sim_filebench (0/6 A/B pairs).
        files = self.files
        table = self.table
        kind_arr = table.kind
        prev_arr = table.prev
        next_arr = table.next
        heads = table.heads
        tails = table.tails
        free_head = table.free_head
        mem_hits: List[BlockKey] = []
        ssd_hits: List[BlockKey] = []
        mem_append = mem_hits.append
        ssd_append = ssd_hits.append
        for key in keys:
            tree = files.get(key[0])
            if tree is None:
                continue
            handle = tree.pop(key[1], None)
            if handle is None:
                continue
            if not tree:
                del files[key[0]]
            code = kind_arr[handle]
            p = prev_arr[handle]
            n = next_arr[handle]
            if p < 0:
                heads[code] = n
            else:
                next_arr[p] = n
            if n < 0:
                tails[code] = p
            else:
                prev_arr[n] = p
            kind_arr[handle] = 0
            next_arr[handle] = free_head
            free_head = handle
            if code == _CODE_MEMORY:
                mem_append(key)
            else:
                ssd_append(key)
        table.free_head = free_head
        if mem_hits:
            self.used[_MEMORY] -= len(mem_hits)
        if ssd_hits:
            self.used[_SSD] -= len(ssd_hits)
        return mem_hits, ssd_hits

    def remove_inode(self, inode: int) -> Dict[StoreKind, int]:
        """Drop every cached block of ``inode``; returns per-store counts."""
        tree = self.files.pop(inode, None)
        dropped = {_MEMORY: 0, _SSD: 0}
        if tree is None:
            return dropped
        table = self.table
        for handle in tree.values():
            dropped[KIND_OF[table.release(handle)]] += 1
        for kind, count in dropped.items():
            self.used[kind] -= count
        return dropped

    def pop_oldest(self, kind: StoreKind) -> Optional[BlockKey]:
        """Evict the FIFO head of store ``kind``; returns its key."""
        table = self.table
        handle = table.pop_head(_CODE_MEMORY if kind is _MEMORY else _CODE_SSD)
        if handle < 0:
            return None
        inode = table.inode[handle]
        block = table.block[handle]
        tree = self.files[inode]
        del tree[block]
        if not tree:
            del self.files[inode]
        self.used[kind] -= 1
        return (inode, block)

    def drain(self) -> Dict[StoreKind, int]:
        """Remove everything (pool destruction); returns per-store counts."""
        counts = {kind: self.used[kind] for kind in self.used}
        self.files.clear()
        self.table.reset()
        for kind in self.used:
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
        (the order the paper's radix tree reports, which
        ``migrate_objects`` depends on)."""
        tree = self.files.get(inode)
        if tree is None:
            return []
        kind_arr = self.table.kind
        return [
            (block, KIND_OF[kind_arr[handle]])
            for block, handle in sorted(tree.items())
        ]

    def mem_blocks_of_inode(self, inode: int) -> List[int]:
        """Block offsets of one file currently in the memory store."""
        tree = self.files.get(inode)
        if tree is None:
            return []
        kind_arr = self.table.kind
        return [
            block for block, handle in tree.items()
            if kind_arr[handle] == _CODE_MEMORY
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
