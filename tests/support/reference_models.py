"""Brute-force reference models of the three cache semantics.

:class:`ReferenceCache` / :class:`ReferenceGlobalCache` /
:class:`ReferenceStaticCache` re-implement DoubleDecker and the two
baselines with plain dicts and lists — no hoisted hot loops, no
timing.  The differential suite in ``tests/test_audit.py`` drives the
production cache and its reference with the same op stream and requires
*identical* results, occupancy, FIFO order, and counters.  They are test
oracles, not shipped code: the package's own consistency tooling is
:mod:`repro.core.audit`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import CachePolicy, DDConfig, StoreKind
from repro.core.optimizations import content_fingerprint
from repro.core.pools import BlockKey
from repro.storage import MB

__all__ = [
    "ReferenceCache",
    "ReferenceGlobalCache",
    "ReferenceStaticCache",
    "pool_items",
]

_MEMORY = StoreKind.MEMORY
_SSD = StoreKind.SSD
_KINDS = (_MEMORY, _SSD)


def _new_stats() -> Dict[str, int]:
    return {
        "gets": 0, "get_hits": 0, "puts": 0, "puts_stored": 0,
        "flushes": 0, "flush_requests": 0, "evictions": 0,
        "migrated_in": 0, "migrated_out": 0, "migrated_rejected": 0,
        "put_rejected_policy": 0, "put_rejected_capacity": 0,
        "put_rejected_admission": 0, "put_rejected_backpressure": 0,
        "trickle_rejected_admission": 0, "ssd_writes": 0,
    }


class _RefAdmission:
    """Independent restatement of the admission semantics for the
    reference model: a plain-list ghost FIFO (``second_access``) or
    unconditional admit (``admit_all``).  ``write_throttle`` depends on
    the simulation clock, which the reference does not model, so
    differential corners must not select it."""

    def __init__(self, name: str, ghost_blocks: int) -> None:
        if name == "write_throttle":
            raise NotImplementedError(
                "write_throttle is time-based; the untimed reference "
                "model cannot mirror it"
            )
        self.name = name
        self.ghost_blocks = ghost_blocks
        self.ghost: List[BlockKey] = []
        self.attempts = 0
        self.admitted = 0
        self.rejected = 0

    def admit(self, key: BlockKey) -> bool:
        self.attempts += 1
        if self.name == "admit_all":
            self.admitted += 1
            return True
        if key in self.ghost:
            self.ghost.remove(key)
            self.admitted += 1
            return True
        self.ghost.append(key)
        if len(self.ghost) > self.ghost_blocks:
            self.ghost.pop(0)
        self.rejected += 1
        return False


class _RefPool:
    """A pool as two flat structures: a key->store dict and per-store
    insertion-ordered lists (the FIFO)."""

    def __init__(self, pool_id: int, vm_id: int, name: str, policy: CachePolicy) -> None:
        self.pool_id = pool_id
        self.vm_id = vm_id
        self.name = name
        self.policy = policy
        self.blocks: Dict[BlockKey, StoreKind] = {}
        self.order: Dict[StoreKind, List[BlockKey]] = {_MEMORY: [], _SSD: []}
        self.entitlement: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        self.stats = _new_stats()
        self.admission: Optional[_RefAdmission] = None

    def used(self, kind: StoreKind) -> int:
        return len(self.order[kind])

    def insert(self, inode: int, block: int, kind: StoreKind) -> None:
        key = (inode, block)
        previous = self.blocks.get(key)
        if previous is not None:
            self.order[previous].remove(key)
        self.blocks[key] = kind
        self.order[kind].append(key)

    def remove(self, key: BlockKey) -> Optional[StoreKind]:
        kind = self.blocks.pop(key, None)
        if kind is not None:
            self.order[kind].remove(key)
        return kind

    def pop_oldest(self, kind: StoreKind) -> Optional[BlockKey]:
        if not self.order[kind]:
            return None
        key = self.order[kind].pop(0)
        del self.blocks[key]
        return key


class _RefVM:
    def __init__(self, vm_id: int, name: str, weight: float) -> None:
        self.vm_id = vm_id
        self.name = name
        self.weight = weight
        self.pools: Dict[int, _RefPool] = {}

    def used(self, kind: StoreKind) -> int:
        return sum(pool.used(kind) for pool in self.pools.values())

    def weighted_pools(self, kind: StoreKind) -> List[_RefPool]:
        return [
            pool for pool in self.pools.values()
            if pool.policy.weight_for(kind) > 0
        ]


def _alg1_victim(entities: Sequence[Tuple[Any, int, int, float]], batch: int):
    """Algorithm 1 over ``(ref, entitlement, used, weightage)`` tuples —
    an independent re-statement of the ``"exceed"`` arg-max of
    :func:`repro.core.victim.select_victim` (``None`` where that falls
    back to :func:`_max_used_victim`)."""
    overused = []
    cumulative_weight = 0.0
    slack = 0
    for entity in entities:
        if entity[1] < entity[2] + batch:
            overused.append(entity)
            cumulative_weight += entity[3]
        if entity[1] - entity[2] > 2 * batch:
            slack += entity[1] - entity[2]
    candidates = [entity for entity in overused if entity[2] > 0]
    if not candidates:
        return None

    def exceed(entity):
        if cumulative_weight > 0:
            redistributed = slack * entity[3] / cumulative_weight
        else:
            redistributed = 0.0
        return entity[2] + batch - (entity[1] + redistributed)

    best = candidates[0]
    best_exceed = exceed(best)
    for entity in candidates[1:]:
        value = exceed(entity)
        if value > best_exceed:
            best, best_exceed = entity, value
    return best


def _max_used_victim(entities: Sequence[Tuple[Any, int, int, float]]):
    holders = [entity for entity in entities if entity[2] > 0]
    if not holders:
        return None
    return max(holders, key=lambda entity: entity[2])


class ReferenceCache:
    """Brute-force model of :class:`DoubleDeckerCache` semantics.

    Same policies, same Algorithm-1 victim selection, same FIFO eviction,
    hybrid spill, trickle-down, compression units, and dedup refcounts —
    but implemented over plain dicts and lists, with entitlements stored
    per pool and recomputed at the same trigger points as the manager.
    Timing is not modeled; the SSD write buffer is assumed to never
    reject (differential harnesses should build the production cache with
    a large ``stores.SSD_WRITE_BUFFER_MB`` so both sides agree).
    """

    def __init__(self, config: DDConfig, block_bytes: int, has_ssd: bool) -> None:
        self.config = config
        self.block_bytes = block_bytes
        self.has_ssd = has_ssd
        self.capacities: Dict[StoreKind, int] = {
            _MEMORY: int(config.mem_capacity_mb * MB) // block_bytes,
            _SSD: int(config.ssd_capacity_mb * MB) // block_bytes,
        }
        self.used: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        self.compression = config.compression
        self._gran = config.compression.granularity if config.compression else 1
        self._units_capacity = self.capacities[_MEMORY] * self._gran
        self._units_used = 0
        self._fingerprint = config.dedup_fingerprint or content_fingerprint
        self._dedup = bool(config.dedup)
        self._placed: Dict[Tuple[int, int, int], int] = {}
        self._refcounts: Dict[int, int] = {}
        self.vms: Dict[int, _RefVM] = {}
        self.pools: Dict[int, _RefPool] = {}
        self._next_vm_id = 1
        self._next_pool_id = 1
        self._vm_entitlements: Dict[Tuple[int, StoreKind], int] = {}
        self._batch = max(1, int(config.eviction_batch_mb * MB) // block_bytes)

    # -- lifecycle -------------------------------------------------------

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        self.vms[vm_id] = _RefVM(vm_id, name, weight)
        self._recompute()
        return vm_id

    def unregister_vm(self, vm_id: int) -> None:
        vm = self.vms[vm_id]
        for pool_id in list(vm.pools):
            self.destroy_pool(vm_id, pool_id)
        del self.vms[vm_id]
        self._recompute()

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        self.vms[vm_id].weight = weight
        self._recompute()

    def set_capacity(self, kind: StoreKind, capacity_mb: float) -> None:
        if kind is _SSD and not self.has_ssd and capacity_mb > 0:
            raise ValueError("cannot size an SSD store without an SSD device")
        self.capacities[kind] = int(capacity_mb * MB) // self.block_bytes
        if kind is _MEMORY:
            self._units_capacity = self.capacities[kind] * self._gran
        self._recompute()
        if kind is _MEMORY:
            while self._units_used > self._units_capacity:
                if not self._evict_round(kind):
                    break
        else:
            while self.used[kind] > self.capacities[kind]:
                if not self._evict_round(kind):
                    break

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        vm = self.vms[vm_id]
        if policy.ssd_weight > 0 and not self.has_ssd:
            raise ValueError(f"pool {name!r} requests SSD but there is no SSD store")
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        pool = _RefPool(pool_id, vm_id, name, policy)
        pool.admission = self._build_admission(policy)
        vm.pools[pool_id] = pool
        self.pools[pool_id] = pool
        self._recompute()
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self.vms[vm_id].pools[pool_id]
        self._drain_pool(pool)
        del self.vms[vm_id].pools[pool_id]
        del self.pools[pool_id]
        self._recompute()

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        pool = self.vms[vm_id].pools[pool_id]
        if policy.ssd_weight > 0 and not self.has_ssd:
            raise ValueError("policy requests SSD but there is no SSD store")
        # Mirror the manager: an unchanged admission policy keeps the live
        # controller (its ghost survives), a change builds a fresh one.
        old_name = pool.policy.admission or self.config.admission
        new_name = policy.admission or self.config.admission
        pool.policy = policy
        if new_name != old_name:
            pool.admission = self._build_admission(policy)
        self._recompute()
        if not policy.uses_cache and pool.blocks:
            self._drain_pool(pool)

    def _drain_pool(self, pool: _RefPool) -> None:
        for inode, block in list(pool.order[_MEMORY]):
            self._mem_release(pool.vm_id, inode, block)
        for kind in _KINDS:
            self.used[kind] -= pool.used(kind)
        pool.blocks.clear()
        pool.order[_MEMORY].clear()
        pool.order[_SSD].clear()

    # -- data path -------------------------------------------------------

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> Set[BlockKey]:
        pool = self.vms[vm_id].pools[pool_id]
        pool.stats["gets"] += len(keys)
        found: Set[BlockKey] = set()
        for key in keys:
            kind = pool.remove(key)
            if kind is None:
                continue
            self.used[kind] -= 1
            if kind is _MEMORY:
                self._mem_release(vm_id, key[0], key[1])
            found.add(key)
        pool.stats["get_hits"] += len(found)
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        pool.stats["puts"] += len(keys)
        policy = pool.policy
        if not policy.uses_cache:
            pool.stats["put_rejected_policy"] += len(keys)
            return 0
        if policy.is_hybrid:
            fixed_kind = None
        elif policy.mem_weight > 0:
            fixed_kind = _MEMORY
        else:
            fixed_kind = _SSD
        stored = 0
        admission = pool.admission
        for key in keys:
            inode, block = key
            existing = pool.remove(key)
            if existing is not None:
                self.used[existing] -= 1
                if existing is _MEMORY:
                    self._mem_release(vm_id, inode, block)
            kind = fixed_kind
            if kind is None:
                if pool.used(_MEMORY) < pool.entitlement[_MEMORY]:
                    kind = _MEMORY
                else:
                    kind = _SSD
            if kind is _SSD and admission is not None and not admission.admit(key):
                pool.stats["put_rejected_admission"] += 1
                continue
            if not self._make_room(kind, 1):
                pool.stats["put_rejected_capacity"] += 1
                continue
            if kind is _SSD:
                pool.stats["ssd_writes"] += 1
            pool.insert(inode, block, kind)
            self.used[kind] += 1
            if kind is _MEMORY:
                self._mem_charge(vm_id, inode, block)
            stored += 1
        pool.stats["puts_stored"] += stored
        return stored

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        dropped = 0
        for key in keys:
            kind = pool.remove(key)
            if kind is not None:
                self.used[kind] -= 1
                if kind is _MEMORY:
                    self._mem_release(vm_id, key[0], key[1])
                dropped += 1
        pool.stats["flush_requests"] += len(keys)
        pool.stats["flushes"] += dropped
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        keys = [key for key in list(pool.blocks) if key[0] == inode]
        dropped = 0
        for key in keys:
            kind = pool.remove(key)
            self.used[kind] -= 1
            if kind is _MEMORY:
                self._mem_release(vm_id, key[0], key[1])
            dropped += 1
        # Requested semantics, mirroring the manager's flush_inode.
        pool.stats["flush_requests"] += dropped if nblocks is None else nblocks
        pool.stats["flushes"] += dropped
        return dropped

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        source = self.vms[vm_id].pools[from_pool]
        target = self.vms[vm_id].pools[to_pool]
        if from_pool == to_pool:
            return 0
        moves = [(key, kind) for key, kind in pool_items(source) if key[0] == inode]
        moved = 0
        rejected = 0
        for key, kind in moves:
            if target.policy.weight_for(kind) <= 0:
                rejected += 1
                continue
            source.remove(key)
            target.insert(key[0], key[1], kind)
            moved += 1
        if moved:
            source.stats["migrated_out"] += moved
            target.stats["migrated_in"] += moved
        if rejected:
            source.stats["migrated_rejected"] += rejected
        return moved

    # -- internals -------------------------------------------------------

    def _build_admission(self, policy: CachePolicy) -> Optional[_RefAdmission]:
        """Same resolution order and ghost sizing as the manager's
        ``_build_admission``, restated over the reference structures."""
        if not self.has_ssd:
            return None
        name = policy.admission or self.config.admission
        if not name:
            return None
        return _RefAdmission(name, max(1, self.capacities[_SSD]))

    def _units_of(self, fp: int) -> int:
        return 1 if self.compression is None else self.compression.charged_units(fp)

    def _mem_charge(self, vm_id: int, inode: int, block: int) -> None:
        fp = self._fingerprint(vm_id, inode, block)
        if self._dedup:
            key = (vm_id, inode, block)
            if key in self._placed:
                return
            self._placed[key] = fp
            count = self._refcounts.get(fp, 0)
            self._refcounts[fp] = count + 1
            if count:
                return
        self._units_used += self._units_of(fp)

    def _mem_release(self, vm_id: int, inode: int, block: int) -> None:
        fp = self._fingerprint(vm_id, inode, block)
        if self._dedup:
            key = (vm_id, inode, block)
            placed_fp = self._placed.pop(key, None)
            if placed_fp is None:
                return
            count = self._refcounts[placed_fp] - 1
            if count:
                self._refcounts[placed_fp] = count
                return
            del self._refcounts[placed_fp]
            fp = placed_fp
        self._units_used -= self._units_of(fp)

    def _recompute(self) -> None:
        """Entitlements, replicating ``repro.core.policy`` arithmetic."""
        self._vm_entitlements = {}
        for kind in _KINDS:
            capacity = self.capacities[kind]
            active = [
                vm for vm in self.vms.values()
                if vm.weight > 0 and vm.weighted_pools(kind)
            ]
            total_weight = sum(vm.weight for vm in active)
            shares: Dict[int, int] = {}
            if total_weight > 0 and capacity > 0:
                for vm in active:
                    shares[vm.vm_id] = int(capacity * vm.weight / total_weight)
            else:
                for vm in active:
                    shares[vm.vm_id] = 0
            for vm in self.vms.values():
                share = shares.get(vm.vm_id, 0)
                self._vm_entitlements[(vm.vm_id, kind)] = share
                pools = vm.weighted_pools(kind)
                pool_weight_total = sum(
                    pool.policy.weight_for(kind) for pool in pools
                )
                for pool in vm.pools.values():
                    if pool not in pools:
                        pool.entitlement[kind] = 0
                if not pools or pool_weight_total <= 0 or share <= 0:
                    for pool in pools:
                        pool.entitlement[kind] = 0
                    continue
                for pool in pools:
                    fraction = pool.policy.weight_for(kind) / pool_weight_total
                    pool.entitlement[kind] = int(share * fraction)

    def _make_room(self, kind: StoreKind, need: int) -> bool:
        # No round cap: each round frees a block, so the blocks held
        # bound the loop (under dedup a round may free no memory unit).
        capacity = self.capacities[kind]
        if capacity <= 0:
            return False
        if kind is _MEMORY:
            need_units = need * self._gran
            while self._units_used + need_units > self._units_capacity:
                if not self._evict_round(kind):
                    return False
            return True
        while self.used[kind] + need > capacity:
            if not self._evict_round(kind):
                return False
        return True

    def _select_victim(self, entities, batch):
        if not entities:
            return None
        if self.config.victim_policy == "max_used":
            return _max_used_victim(entities)
        victim = _alg1_victim(entities, batch)
        if victim is None:
            victim = _max_used_victim(entities)
        return victim

    def _evict_round(self, kind: StoreKind) -> bool:
        batch = self._batch
        vm_entities = []
        for vm in self.vms.values():
            weighted = bool(vm.weighted_pools(kind))
            used = vm.used(kind)
            if not weighted and used == 0:
                continue
            vm_entities.append((
                vm,
                self._vm_entitlements.get((vm.vm_id, kind), 0),
                used,
                vm.weight if weighted else 0.0,
            ))
        victim_vm = self._select_victim(vm_entities, batch)
        if victim_vm is None:
            return False
        vm = victim_vm[0]
        pool_entities = []
        for pool in vm.pools.values():
            weight = pool.policy.weight_for(kind)
            if weight <= 0 and pool.used(kind) == 0:
                continue
            pool_entities.append(
                (pool, pool.entitlement[kind], pool.used(kind), weight)
            )
        victim_pool = self._select_victim(pool_entities, batch)
        if victim_pool is None:
            return False
        pool = victim_pool[0]
        evicted = 0
        trickle: List[BlockKey] = []
        while evicted < batch and pool.used(kind) > 0:
            key = pool.pop_oldest(kind)
            if key is None:
                break
            self.used[kind] -= 1
            if kind is _MEMORY:
                self._mem_release(pool.vm_id, key[0], key[1])
            evicted += 1
            if (
                kind is _MEMORY
                and self.config.trickle_down
                and self.has_ssd
                and self.capacities[_SSD] > 0
            ):
                trickle.append(key)
        if evicted:
            pool.stats["evictions"] += evicted
            admission = pool.admission
            for key in trickle:
                if admission is not None and not admission.admit(key):
                    pool.stats["trickle_rejected_admission"] += 1
                    continue
                if not self._make_room(_SSD, 1):
                    break
                pool.insert(key[0], key[1], _SSD)
                self.used[_SSD] += 1
                pool.stats["ssd_writes"] += 1
            return True
        return False


def pool_items(pool: _RefPool) -> List[Tuple[BlockKey, StoreKind]]:
    """A reference pool's contents in ascending key order (the order
    ``Pool.items_of_inode`` reports, which ``migrate_objects`` iterates)."""
    return sorted(pool.blocks.items())


class ReferenceGlobalCache:
    """Brute-force model of the tmem-like :class:`GlobalCache` baseline:
    one global FIFO list, per-VM caps, exclusive or inclusive hits."""

    def __init__(
        self,
        capacity_mb: float,
        block_bytes: int,
        per_vm_cap_mb: Optional[float] = None,
        exclusive: bool = True,
    ) -> None:
        self.capacity_blocks = int(capacity_mb * MB) // block_bytes
        self.per_vm_cap_blocks = (
            int(per_vm_cap_mb * MB) // block_bytes if per_vm_cap_mb else None
        )
        self.exclusive = exclusive
        self.used_blocks = 0
        self.vms: Dict[int, _RefVM] = {}
        self.pools: Dict[int, _RefPool] = {}
        self._next_vm_id = 1
        self._next_pool_id = 1
        self._fifo: List[Tuple[int, int, int]] = []

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        self.vms[vm_id] = _RefVM(vm_id, name, weight)
        return vm_id

    def unregister_vm(self, vm_id: int) -> None:
        for pool_id in list(self.vms[vm_id].pools):
            self.destroy_pool(vm_id, pool_id)
        del self.vms[vm_id]

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        pool = _RefPool(pool_id, vm_id, name, CachePolicy.memory(100.0))
        self.vms[vm_id].pools[pool_id] = pool
        self.pools[pool_id] = pool
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self.vms[vm_id].pools[pool_id]
        for inode, block in list(pool.blocks):
            pool.remove((inode, block))
            self.used_blocks -= 1
            self._fifo.remove((pool_id, inode, block))
        del self.vms[vm_id].pools[pool_id]
        del self.pools[pool_id]

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        self.vms[vm_id].pools[pool_id]  # baselines ignore container policy

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        return 0  # baselines key by filesystem; migration is a no-op

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> Set[BlockKey]:
        pool = self.vms[vm_id].pools[pool_id]
        pool.stats["gets"] += len(keys)
        found: Set[BlockKey] = set()
        for key in keys:
            if self.exclusive:
                if pool.remove(key) is not None:
                    found.add(key)
                    entry = (pool_id, key[0], key[1])
                    if entry in self._fifo:
                        self._fifo.remove(entry)
            elif key in pool.blocks:
                found.add(key)
        if self.exclusive:
            self.used_blocks -= len(found)
        pool.stats["get_hits"] += len(found)
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        vm = self.vms[vm_id]
        pool.stats["puts"] += len(keys)
        stored = 0
        for key in keys:
            if self.capacity_blocks <= 0:
                continue
            while self.used_blocks + 1 > self.capacity_blocks:
                if not self._evict_one():
                    break
            if self.used_blocks + 1 > self.capacity_blocks:
                continue
            if (
                self.per_vm_cap_blocks is not None
                and vm.used(_MEMORY) + 1 > self.per_vm_cap_blocks
            ):
                if not self._evict_one(vm_filter=vm_id):
                    continue
            inode, block = key
            if key not in pool.blocks:
                pool.insert(inode, block, _MEMORY)
                self.used_blocks += 1
                self._fifo.append((pool_id, inode, block))
                stored += 1
        pool.stats["puts_stored"] += stored
        return stored

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        dropped = 0
        for key in keys:
            if pool.remove(key) is not None:
                self.used_blocks -= 1
                self._fifo.remove((pool_id, key[0], key[1]))
                dropped += 1
        pool.stats["flush_requests"] += len(keys)
        pool.stats["flushes"] += dropped
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        keys = [key for key in list(pool.blocks) if key[0] == inode]
        for key in keys:
            pool.remove(key)
            self.used_blocks -= 1
            self._fifo.remove((pool_id, key[0], key[1]))
        pool.stats["flush_requests"] += (
            len(keys) if nblocks is None else nblocks)
        pool.stats["flushes"] += len(keys)
        return len(keys)

    def _evict_one(self, vm_filter: Optional[int] = None) -> bool:
        target = None
        if vm_filter is None:
            if self._fifo:
                target = self._fifo[0]
        else:
            for entry in self._fifo:
                pool = self.pools.get(entry[0])
                if pool is not None and pool.vm_id == vm_filter:
                    target = entry
                    break
        if target is None:
            return False
        self._fifo.remove(target)
        pool_id, inode, block = target
        pool = self.pools.get(pool_id)
        if pool is None:
            return True
        if pool.remove((inode, block)) is not None:
            self.used_blocks -= 1
            pool.stats["evictions"] += 1
        return True


class ReferenceStaticCache:
    """Brute-force model of :class:`StaticPartitionCache`: hard per-pool
    caps with self-eviction, no redistribution."""

    def __init__(self, capacity_mb: float, block_bytes: int) -> None:
        self.block_bytes = block_bytes
        self.capacity_blocks = int(capacity_mb * MB) // block_bytes
        self.used_blocks = 0
        self.vms: Dict[int, _RefVM] = {}
        self.pools: Dict[int, _RefPool] = {}
        self._next_vm_id = 1
        self._next_pool_id = 1
        self._caps: Dict[int, int] = {}

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        self.vms[vm_id] = _RefVM(vm_id, name, weight)
        return vm_id

    def unregister_vm(self, vm_id: int) -> None:
        for pool_id in list(self.vms[vm_id].pools):
            self.destroy_pool(vm_id, pool_id)
        del self.vms[vm_id]

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        pool = _RefPool(pool_id, vm_id, name, CachePolicy.memory(100.0))
        self.vms[vm_id].pools[pool_id] = pool
        self.pools[pool_id] = pool
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self.vms[vm_id].pools[pool_id]
        self.used_blocks -= len(pool.blocks)
        del self.vms[vm_id].pools[pool_id]
        del self.pools[pool_id]

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        self.vms[vm_id].pools[pool_id]  # baselines ignore container policy

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        return 0  # baselines key by filesystem; migration is a no-op

    def set_partition(self, pool_id: int, cap_mb: float) -> None:
        self._caps[pool_id] = int(cap_mb * MB) // self.block_bytes

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> Set[BlockKey]:
        pool = self.vms[vm_id].pools[pool_id]
        pool.stats["gets"] += len(keys)
        found: Set[BlockKey] = set()
        for key in keys:
            if pool.remove(key) is not None:
                found.add(key)
        self.used_blocks -= len(found)
        pool.stats["get_hits"] += len(found)
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        cap = self._caps.get(pool_id, 0)
        pool.stats["puts"] += len(keys)
        stored = 0
        for key in keys:
            if cap <= 0:
                continue
            while pool.used(_MEMORY) + 1 > cap:
                victim = pool.pop_oldest(_MEMORY)
                if victim is None:
                    break
                self.used_blocks -= 1
                pool.stats["evictions"] += 1
            if pool.used(_MEMORY) + 1 > cap:
                continue
            if key not in pool.blocks:
                pool.insert(key[0], key[1], _MEMORY)
                self.used_blocks += 1
                stored += 1
        pool.stats["puts_stored"] += stored
        return stored

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        dropped = 0
        for key in keys:
            if pool.remove(key) is not None:
                self.used_blocks -= 1
                dropped += 1
        pool.stats["flush_requests"] += len(keys)
        pool.stats["flushes"] += dropped
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self.vms[vm_id].pools[pool_id]
        keys = [key for key in list(pool.blocks) if key[0] == inode]
        for key in keys:
            pool.remove(key)
            self.used_blocks -= 1
        pool.stats["flush_requests"] += (
            len(keys) if nblocks is None else nblocks)
        pool.stats["flushes"] += len(keys)
        return len(keys)
