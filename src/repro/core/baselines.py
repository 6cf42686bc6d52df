"""Baseline hypervisor caches the paper compares against.

* :class:`GlobalCache` — a tmem-like, nesting-*agnostic* cache: per-VM
  limits only, one global FIFO, no container awareness.  This is the
  "Global" mode of the motivation (§2.3) and evaluation (§5) and exhibits
  the non-deterministic sub-VM distribution the paper demonstrates.
  With ``exclusive=False`` it degrades to an inclusive host cache (used by
  the inclusive-vs-exclusive ablation).
* :class:`StaticPartitionCache` — hard per-container partitions with
  self-eviction, approximating centralized SLA-driven partitioning schemes
  (Morai / software-defined caching); the Morai++ comparison searches over
  its partition vectors.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Set, Tuple

from ..simkernel import Environment
from ..storage import MB
from .audit import global_audit_interval, start_periodic_audit
from .config import CachePolicy, StoreKind
from .engine import PolicyEngine
from .interface import HypervisorCacheBase
from .pools import BlockKey, Pool, VMEntry
from .stats import PoolStats
from .stores import MemBackend

__all__ = ["GlobalCache", "StaticPartitionCache"]

#: Global FIFO entries carry the owning pool so eviction can find it.
_GlobalKey = Tuple[int, int, int]  # (pool_id, inode, block)


class _PoolTableCache(HypervisorCacheBase):
    """Shared bookkeeping for the memory-backed baseline caches."""

    def __init__(
        self,
        env: Environment,
        capacity_mb: float,
        block_bytes: int,
    ) -> None:
        self.env = env
        self.block_bytes = block_bytes
        self.capacity_blocks = int(capacity_mb * MB) // block_bytes
        self.mem_backend = MemBackend(block_bytes)
        # The registry is a policy engine with no stores: entitlements
        # stay 0 and Algorithm 1 never runs, since these baselines evict
        # by their own rule.  ``vms`` / ``_pools`` / ``used`` alias its
        # live dicts; the pools alone write ``used``.
        self.engine = PolicyEngine({})
        self.vms: Dict[int, VMEntry] = self.engine.vms
        self._pools: Dict[int, Pool] = self.engine.pools
        self.used: Dict[StoreKind, int] = self.engine.used
        audit_interval = global_audit_interval()
        if audit_interval > 0:
            start_periodic_audit(env, self, audit_interval)

    # -- lifecycle ---------------------------------------------------------

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        return self.engine.register_vm(name, weight)

    def unregister_vm(self, vm_id: int) -> None:
        for pool_id in list(self.engine.require_vm(vm_id).pools):
            self.destroy_pool(vm_id, pool_id)
        self.engine.unregister_vm(vm_id)

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        self.engine.set_vm_weight(vm_id, weight)

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        # Baselines are memory-backed and container-agnostic: every pool is
        # treated as <Mem, equal> regardless of the requested policy.
        return self.engine.create_pool(
            vm_id, name, CachePolicy.memory(100.0)).pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self.engine.require_pool(vm_id, pool_id)
        for key in pool.iter_keys():
            self._on_drop(pool_id, *key)
        pool.drain()
        self.engine.destroy_pool(vm_id, pool_id)

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        # Container-level policy is exactly what these baselines lack.
        self.engine.require_pool(vm_id, pool_id)

    def pool_stats(self, vm_id: int, pool_id: int) -> PoolStats:
        return self.engine.require_pool(vm_id, pool_id).snapshot_stats()

    # -- introspection ---------------------------------------------------------

    def vm_used_blocks(self, vm_id: int, kind: Optional[StoreKind] = None) -> int:
        return self.engine.require_vm(vm_id).used(StoreKind.MEMORY)

    def pool_used_mb(self, pool_id: int, kind: Optional[StoreKind] = None) -> float:
        pool = self._pools.get(pool_id)
        if pool is None:
            return 0.0
        return len(pool) * self.block_bytes / MB

    def vm_used_mb(self, vm_id: int, kind: Optional[StoreKind] = None) -> float:
        vm = self.vms.get(vm_id)
        if vm is None:
            return 0.0
        return vm.used(StoreKind.MEMORY) * self.block_bytes / MB

    # Data-path methods are provided by subclasses.
    def get_many(self, vm_id, pool_id, keys):  # pragma: no cover - abstract
        raise NotImplementedError

    def put_many(self, vm_id, pool_id, keys):  # pragma: no cover - abstract
        raise NotImplementedError

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.engine.require_pool(vm_id, pool_id)
        mem_keys, ssd_keys = pool.remove_many(keys)
        for key in mem_keys + ssd_keys:
            self._on_drop(pool.pool_id, *key)
        dropped = len(mem_keys) + len(ssd_keys)
        # Same convention as DoubleDecker: ``flushes`` counts drops,
        # ``flush_requests`` counts blocks asked about.
        pool.stats.flush_requests += len(keys)
        pool.stats.flushes += dropped
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self.engine.require_pool(vm_id, pool_id)
        blocks = list(pool.files.get(inode, ()))
        pool.remove_inode(inode)
        for block in blocks:
            self._on_drop(pool.pool_id, inode, block)
        dropped = len(blocks)
        # Requested semantics, same as DoubleDecker's flush_inode.
        pool.stats.flush_requests += dropped if nblocks is None else nblocks
        pool.stats.flushes += dropped
        return dropped

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        # Baselines key by filesystem, not by container; migration is a no-op.
        return 0

    def _on_drop(self, pool_id: int, inode: int, block: int) -> None:
        """Subclass hook: keep any auxiliary eviction structures in sync."""


class GlobalCache(_PoolTableCache):
    """Nesting-agnostic hypervisor cache (tmem-style "Global" mode).

    One FIFO spans all containers of a VM (and, with a single shared
    capacity, all VMs): whoever inserts fastest owns the cache, which is
    exactly the non-determinism the paper's motivation demonstrates.
    """

    def __init__(
        self,
        env: Environment,
        capacity_mb: float,
        block_bytes: int,
        per_vm_cap_mb: Optional[float] = None,
        exclusive: bool = True,
    ) -> None:
        super().__init__(env, capacity_mb, block_bytes)
        self._fifo: "OrderedDict[_GlobalKey, None]" = OrderedDict()
        self.per_vm_cap_blocks = (
            int(per_vm_cap_mb * MB) // block_bytes if per_vm_cap_mb else None
        )
        #: Exclusive mode removes blocks on hit (second-chance semantics);
        #: inclusive mode keeps them (host-page-cache semantics).
        self.exclusive = exclusive

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        pool = self.engine.require_pool(vm_id, pool_id)
        stats = pool.stats
        stats.gets += len(keys)
        found: Set[BlockKey] = set()
        if self.exclusive:
            # Second-chance semantics: a hit removes the block (memory
            # is the baselines' only store).
            hits = pool.remove_many(keys)[0]
            fifo_pop = self._fifo.pop
            for inode, block in hits:
                fifo_pop((pool_id, inode, block), None)
            found.update(hits)
        else:
            add_found = found.add
            lookup = pool.lookup
            for key in keys:
                if lookup(key[0], key[1]) is not None:
                    add_found(key)
        stats.get_hits += len(found)
        if found:
            yield self.env.timeout(self.mem_backend.read_cost(len(found)))
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        pool = self.engine.require_pool(vm_id, pool_id)
        stats = pool.stats
        stats.puts += len(keys)
        capacity = self.capacity_blocks
        per_vm_cap = self.per_vm_cap_blocks
        # The VM's usage, summed once and kept current below: nothing
        # else touches this VM's pools before the batch returns.
        MEMORY = StoreKind.MEMORY
        used = self.used
        vm_used = self.vms[vm_id].used(MEMORY) if per_vm_cap is not None else 0
        evict_one = self._evict_one
        lookup = pool.lookup
        insert = pool.insert
        fifo = self._fifo
        stored = 0
        # One pass when the batch is all new keys and fits both caps as
        # is; otherwise the per-block loop evicts and skips.
        fits = (
            used[MEMORY] + len(keys) <= capacity
            and (per_vm_cap is None or vm_used + len(keys) <= per_vm_cap)
            and pool.insert_new(keys, MEMORY)
        )
        if fits:
            for inode, block in keys:
                fifo[(pool_id, inode, block)] = None
            stored = len(keys)
        for key in () if fits else keys:
            if capacity <= 0:
                stats.put_rejected_capacity += 1
                continue
            while used[MEMORY] + 1 > capacity:
                evicted = evict_one()
                if evicted is None:
                    break
                if evicted == vm_id:
                    vm_used -= 1
            if used[MEMORY] + 1 > capacity:
                stats.put_rejected_capacity += 1
                continue
            if per_vm_cap is not None and vm_used + 1 > per_vm_cap:
                # Per-VM limit: evict this VM's own oldest block.
                evicted = evict_one(vm_filter=vm_id)
                if evicted is None:
                    stats.put_rejected_capacity += 1
                    continue
                if evicted == vm_id:
                    vm_used -= 1
            inode, block = key
            if lookup(inode, block) is None:
                insert(inode, block, MEMORY)
                fifo[(pool_id, inode, block)] = None
                stored += 1
                vm_used += 1
        stats.puts_stored += stored
        if stored:
            yield self.env.timeout(self.mem_backend.write_cost(stored))
        return stored

    def _evict_one(self, vm_filter: Optional[int] = None) -> Optional[int]:
        """Drop the globally-oldest block (optionally of one VM).

        Returns the id of the VM the dropped block was charged to (``0``
        for a stale entry, which frees nothing), or ``None`` when there
        is no candidate.
        """
        if vm_filter is None:
            if not self._fifo:
                return None
            (pool_id, inode, block), _ = self._fifo.popitem(last=False)
        else:
            target = None
            for candidate in self._fifo:
                candidate_pool = self._pools.get(candidate[0])
                if candidate_pool is not None and candidate_pool.vm_id == vm_filter:
                    target = candidate
                    break
            if target is None:
                return None
            del self._fifo[target]
            pool_id, inode, block = target
        pool = self._pools.get(pool_id)
        if pool is None:
            return 0  # stale entry of a destroyed pool
        if pool.remove_key((inode, block)) is None:
            return 0
        pool.stats.evictions += 1
        return pool.vm_id

    def _on_drop(self, pool_id: int, inode: int, block: int) -> None:
        self._fifo.pop((pool_id, inode, block), None)


class StaticPartitionCache(_PoolTableCache):
    """Centralized static partitioning (the Morai++ approximation).

    Every container gets a hard cap; when its partition is full the
    container evicts *its own* oldest block.  There is no redistribution
    of unused capacity and no in-VM policy control — the two flexibilities
    DoubleDecker adds.
    """

    def __init__(
        self, env: Environment, capacity_mb: float, block_bytes: int,
    ) -> None:
        super().__init__(env, capacity_mb, block_bytes)
        self._caps_blocks: Dict[int, int] = {}

    def set_partition(self, pool_id: int, cap_mb: float) -> None:
        """Assign a hard partition size to a pool."""
        if cap_mb < 0:
            raise ValueError(f"cap must be non-negative, got {cap_mb}")
        if pool_id not in self._pools:
            raise KeyError(f"unknown pool_id {pool_id}")
        self._caps_blocks[pool_id] = int(cap_mb * MB) // self.block_bytes

    def partition_of(self, pool_id: int) -> int:
        """The pool's cap in blocks (0 when never assigned)."""
        return self._caps_blocks.get(pool_id, 0)

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        pool = self.engine.require_pool(vm_id, pool_id)
        stats = pool.stats
        stats.gets += len(keys)
        # Partitions are exclusive: a hit always removes the block.
        found: Set[BlockKey] = set(pool.remove_many(keys)[0])
        stats.get_hits += len(found)
        if found:
            yield self.env.timeout(self.mem_backend.read_cost(len(found)))
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        pool = self.engine.require_pool(vm_id, pool_id)
        cap = self._caps_blocks.get(pool_id, 0)
        stats = pool.stats
        stats.puts += len(keys)
        lookup = pool.lookup
        insert = pool.insert
        pop_oldest = pool.pop_oldest
        pool_used = pool.used
        MEMORY = StoreKind.MEMORY
        stored = 0
        # One pass when the batch is all new keys and fits the partition.
        fits = (pool_used[MEMORY] + len(keys) <= cap
                and pool.insert_new(keys, MEMORY))
        if fits:
            stored = len(keys)
        for key in () if fits else keys:
            if cap <= 0:
                stats.put_rejected_capacity += 1
                continue
            while pool_used[MEMORY] + 1 > cap:
                victim = pop_oldest(MEMORY)
                if victim is None:
                    break
                stats.evictions += 1
            if pool_used[MEMORY] + 1 > cap:
                stats.put_rejected_capacity += 1
                continue
            inode, block = key
            if lookup(inode, block) is None:
                insert(inode, block, MEMORY)
                stored += 1
        stats.puts_stored += stored
        if stored:
            yield self.env.timeout(self.mem_backend.write_cost(stored))
        return stored
