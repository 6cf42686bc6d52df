"""The wall-clock DoubleDecker cache: PolicyEngine + DiskStore.

One :class:`ServiceCache` is one host.  Every tenant namespace maps to
its own DD container (a :class:`repro.core.pools.Pool`) under a single
service VM, so the paper's machinery applies unchanged: per-pool
``<T, W>`` weights, entitlements recomputed on every membership change,
Algorithm-1 victim selection at both levels, batch FIFO eviction, and
the :mod:`repro.endurance` admission controllers in front of the disk
store.

The disk store plays the role of the simulator's SSD store
(``StoreKind.SSD``); an entry of ``n`` bytes occupies
``ceil(n / SLOT_BYTES)`` blocks of the capacity budget — the slab's
slot size, so the capacity ledger and ``data.slab`` agree.  The paper's
cache indexes blocks because its guests address blocks; this one's
clients address whole values.  An entry's one record is the store's
(tenant, key, flags, size: :meth:`DiskStore.entry`); the cache keeps
``key -> id`` and, per tenant, an insertion-ordered FIFO of ``id ->
blocks`` (ids only grow, so insertion order is id order is eviction
order), and tells its pool only the block count: ``pool.charge`` moves
``pool.used[SSD]`` — the quantity Algorithm 1 reads — and the host
total ``engine.used[SSD]`` together.  ``Pool.files`` and ``Pool.fifos``
stay empty here: keeping each entry's blocks in them instead (an inode
per entry, ``insert_new`` / ``remove_inode``) was measured and cost
``svc_direct_churn`` a fifth of its throughput and 9 % more peak RSS.
Eviction pops the FIFO head and retires the *whole* entry — partial
values are useless to a memcached client.  The loop is the simulator's,
:meth:`PolicyEngine.make_room`; only the batch callbacks differ.  This
one, ``_evict_batch``, frees *at most* an eviction batch and stops as
soon as the request fits, where the simulator's
``DoubleDeckerCache._evict_round`` drains the whole batch: in the steady
eviction regime a ``set`` evicts what it needs and no more (one victim
selection per evicting ``set``).

Unlike the simulated exclusive cache, a ``get`` hit leaves the entry
resident (the service is the system of record for its values), so
residence order remains pure FIFO.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..core.config import CachePolicy, StoreKind
from ..core.engine import PolicyEngine
from ..core.pools import Pool
from ..endurance import make_admission
from ..metrics import MetricsRegistry
from .store import SLOT_BYTES, DiskStore

__all__ = ["ServiceCache", "SetStatus"]

_SSD = StoreKind.SSD
_MB = 1 << 20
#: Every tenant's ``<T, W>`` weight until a client can set its own.
_TENANT_WEIGHT = 100.0
#: The ``PoolStats`` counters :meth:`ServiceCache.stats` reports per tenant.
_REPORTED = ("gets", "get_hits", "puts", "puts_stored", "evictions",
             "put_rejected_admission", "put_rejected_capacity")


class SetStatus:
    """Outcome of a ``set`` (memcached reply severity encoded by name)."""

    STORED = "stored"
    NOT_STORED = "not_stored"      # admission or eviction refused it
    TOO_LARGE = "too_large"        # exceeds the whole cache capacity


class ServiceCache:
    """Multi-tenant disk cache driven by the extracted policy core."""

    def __init__(
        self,
        store: DiskStore,
        capacity_mb: float = 64.0,
        eviction_batch_mb: float = 2.0,
        admission: Optional[str] = None,
        tracer: Optional[object] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.block_bytes = SLOT_BYTES
        self.capacity_blocks = max(1, int(capacity_mb * _MB) // SLOT_BYTES)
        self._eviction_batch = max(
            1, int(eviction_batch_mb * _MB) // SLOT_BYTES)
        self._admission = admission
        self.registry = MetricsRegistry()
        self._tracer = tracer
        self._clock = clock

        self.engine = PolicyEngine(
            {StoreKind.MEMORY: 0, _SSD: self.capacity_blocks},
            admission_builder=self._build_admission,
            admission_namer=lambda policy: policy.admission or "",
        )
        self._vm_id = self.engine.register_vm("service", weight=100.0)
        #: tenant name -> its DD container: the policy side, told block
        #: counts only (``pool.charge``), never blocks.
        self.tenants: Dict[str, Pool] = {}
        #: tenant name -> entry id -> its blocks, oldest first.
        #: OrderedDict because eviction deletes at the front: a dict's
        #: first key is found by walking the tombstones of every head
        #: popped before.
        self._fifos: Dict[str, "OrderedDict[int, int]"] = {}
        #: (tenant, key) -> entry id; the truth, the store is only told.
        self._ids: Dict[Tuple[str, str], int] = {}
        self._recover()

    # -- construction ---------------------------------------------------

    def _build_admission(self, policy: CachePolicy):
        return make_admission(
            policy.admission,
            block_bytes=self.block_bytes,
            ssd_capacity_blocks=self.capacity_blocks,
        )

    def _recover(self) -> None:
        """Rebuild the index from the store, in id (FIFO) order."""
        for entry in self.store.iter_entries():
            self._remember(self.pool(entry.tenant), entry.entry_id, entry.key,
                           self._blocks_of(entry.size))

    def pool(self, tenant: str) -> Pool:
        """The tenant's container, created on first use."""
        pool = self.tenants.get(tenant)
        if pool is None:
            pool = self.engine.create_pool(
                self._vm_id, tenant,
                CachePolicy(ssd_weight=_TENANT_WEIGHT,
                            admission=self._admission))
            self.tenants[tenant] = pool
            self._fifos[tenant] = OrderedDict()
        return pool

    def _blocks_of(self, size: int) -> int:
        return max(1, (size + self.block_bytes - 1) // self.block_bytes)

    # -- data path ------------------------------------------------------

    def get(self, tenant: str, key: str) -> Optional[Tuple[bytes, int, int]]:
        """``(value, flags, cas_id)`` on a hit, ``None`` on a miss."""
        tracer = self._tracer
        if tracer is None:
            return self._get(tenant, key)
        with tracer.span("svc.get", vm=self._vm_id,
                         pool=self.pool(tenant).pool_id, tenant=tenant,
                         hit=False) as span:
            found = self._get(tenant, key)
            span.note(hit=found is not None)
            return found

    def set(self, tenant: str, key: str, value: bytes,
            flags: int = 0) -> str:
        """Store a value under Algorithm-1 capacity discipline."""
        tracer = self._tracer
        if tracer is None:
            return self._set(tenant, key, value, flags)
        with tracer.span("svc.put", vm=self._vm_id,
                         pool=self.pool(tenant).pool_id, tenant=tenant,
                         status="error", nbytes=len(value)) as span:
            status = self._set(tenant, key, value, flags)
            span.note(status=status)
            return status

    def delete(self, tenant: str, key: str) -> bool:
        """Remove a key; True if it was present."""
        tracer = self._tracer
        if tracer is None:
            return self._delete(tenant, key)
        with tracer.span("svc.delete", vm=self._vm_id,
                         pool=self.pool(tenant).pool_id, tenant=tenant,
                         deleted=False) as span:
            deleted = self._delete(tenant, key)
            span.note(deleted=deleted)
            return deleted

    def _get(self, tenant: str, key: str) -> Optional[Tuple[bytes, int, int]]:
        pool = self.pool(tenant)
        pool.stats.gets += 1
        entry_id = self._ids.get((tenant, key))
        if entry_id is None:
            return None
        value = self.store.get(entry_id)
        if value is None:
            # The value vanished behind the store's back — heal to a miss.
            self._forget(pool, key)
            self.store.delete_entry(entry_id)
            return None
        pool.stats.get_hits += 1
        return value, self.store.entry(entry_id).flags, entry_id

    def _set(self, tenant: str, key: str, value: bytes, flags: int) -> str:
        pool = self.pool(tenant)
        pool.stats.puts += 1
        blocks = self._blocks_of(len(value))
        if blocks > self.capacity_blocks:
            pool.stats.put_rejected_capacity += 1
            return SetStatus.TOO_LARGE
        # A refused overwrite drops the old item too (memcached semantics):
        # acknowledging NOT_STORED and then serving the stale value, or
        # leaving its row on disk for _recover() to resurrect, is worse
        # than a miss.
        old_id = self._ids.get((tenant, key))
        controller = pool.admission
        if controller is not None and not controller.admit(
                (tenant, key), self._clock(), blocks):
            pool.stats.put_rejected_admission += 1
            if old_id is not None:
                self._forget(pool, key)
                self.store.delete_entry(old_id)
            return SetStatus.NOT_STORED

        # Replace-in-place: retire the old copy's blocks first so the
        # eviction pass below sees true occupancy.  Its row stays until
        # DiskStore.set replaces it atomically, or the refusal deletes it.
        if old_id is not None:
            self._forget(pool, key)

        if not self._make_room(blocks):
            pool.stats.put_rejected_capacity += 1
            if old_id is not None:
                self.store.delete_entry(old_id)
            return SetStatus.NOT_STORED

        entry_id = self.store.set(tenant, key, value, flags, old_id)
        self._remember(pool, entry_id, key, blocks)
        pool.stats.puts_stored += 1
        pool.stats.ssd_writes += blocks
        return SetStatus.STORED

    def _delete(self, tenant: str, key: str) -> bool:
        pool = self.pool(tenant)
        pool.stats.flush_requests += 1
        entry_id = self._ids.get((tenant, key))
        if entry_id is None:
            return False
        pool.stats.flushes += self._forget(pool, key)
        self.store.delete_entry(entry_id)
        return True

    def flush_all(self, tenant: Optional[str] = None) -> int:
        """Drop every entry of one tenant (or of all); returns the count."""
        victims = []
        for name, pool in self.tenants.items():
            if tenant not in (None, name):
                continue
            for entry_id in list(self._fifos[name]):
                key = self.store.entry(entry_id).key
                pool.stats.flushes += self._forget(pool, key)
                victims.append(entry_id)
        victims.sort()      # the DEL frame lists ids in order, as it always has
        self.store.delete_entries(victims)
        return len(victims)

    # -- eviction -------------------------------------------------------

    def _make_room(self, blocks_needed: int) -> bool:
        """Evict per Algorithm 1 until ``blocks_needed`` fit."""
        used = self.engine.used
        if used[_SSD] + blocks_needed <= self.capacity_blocks:
            return True     # most sets fit: skip building the callbacks
        over = lambda: used[_SSD] + blocks_needed > self.capacity_blocks
        tracer = self._tracer

        def evict(round_) -> int:
            pool = round_.victim_pool
            if tracer is None:
                return self._evict_batch(pool, over)
            with tracer.span("svc.evict.round", vm=self._vm_id,
                             pool=pool.pool_id, tenant=pool.name,
                             freed=0) as span:
                freed = self._evict_batch(pool, over)
                span.note(freed=freed)
            return freed

        return self.engine.make_room(_SSD, self._eviction_batch, over, evict)

    def _evict_batch(self, pool: Pool, over: Callable[[], bool]) -> int:
        """FIFO-evict whole entries from ``pool`` up to one batch, stopping
        as soon as ``over()`` is false (the request fits); the store
        retires them with one statement."""
        freed = 0
        victims = []
        fifo = self._fifos[pool.name]
        while fifo and freed < self._eviction_batch and over():
            entry_id = next(iter(fifo))
            blocks = self._forget(pool, self.store.entry(entry_id).key)
            victims.append(entry_id)
            pool.stats.evictions += blocks
            freed += blocks
            if self._tracer is not None:
                self._tracer.instant(
                    "service.evict", self._tracer.clock(), vm=self._vm_id,
                    pool=pool.pool_id, tenant=pool.name, blocks=blocks)
        if victims:
            self.store.delete_entries(victims)
        return freed

    def _remember(self, pool: Pool, entry_id: int, key: str,
                  blocks: int) -> None:
        """Queue a new entry at the tail of its tenant's FIFO."""
        self._fifos[pool.name][entry_id] = blocks
        self._ids[(pool.name, key)] = entry_id
        pool.charge(_SSD, blocks)

    def _forget(self, pool: Pool, key: str) -> int:
        """Drop a key's entry from the index and return its blocks (the
        caller deletes its row, or ``DiskStore.set`` replaces it
        atomically)."""
        blocks = self._fifos[pool.name].pop(self._ids.pop((pool.name, key)))
        pool.charge(_SSD, -blocks)
        return blocks

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant counter snapshot plus host-level occupancy."""
        out: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(self.tenants):
            pool = self.tenants[tenant]
            out[tenant] = {field: getattr(pool.stats, field)
                           for field in _REPORTED}
            out[tenant].update(used_blocks=pool.used[_SSD],
                               entitlement_blocks=pool.entitlement[_SSD])
        out["_host"] = {
            "used_blocks": self.engine.used[_SSD],
            "capacity_blocks": self.capacity_blocks,
            "entries": len(self._ids),
        }
        return out

    def close(self) -> None:
        self.store.close()
