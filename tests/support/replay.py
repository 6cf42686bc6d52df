"""Replay differential: the simulator's cache as the service's reference.

:class:`Recorder` records every call a :class:`~repro.experiments.scenarios.Scenario`
makes at ``DoubleDeckerCache``'s driver interface (``put_many``,
``get_many``, ``flush_many``, ``flush_inode``) together with the outcome,
every pool's SSD FIFO and the engine's SSD total after the call.
:func:`replay` plays that stream into a
:class:`~repro.service.ServiceCache` and returns every place where the
two disagree.  The mapping:

* tenant = pool, all created up front in pool-id order with the pools'
  SSD weights set through ``engine.set_pool_policy``;
* key = ``"<inode>:<block>"``;
* one simulator block = one 1-slot value, so capacity and eviction batch
  are the same number of blocks on both sides;
* a ``get`` hit in the exclusive simulator = ``get`` + ``delete``;
* ``flush_inode`` = ``delete`` of every key of that inode the tenant holds.

Both sides select victims with ``PolicyEngine.make_room``.  With every
value one block and a batch of one block, the simulator's drain rule and
the service's stop-when-it-fits rule free the same block, so any
divergence is a bug in one half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.core import CachePolicy, StoreKind
from repro.service import DiskStore, ServiceCache
from repro.service.store import SLOT_BYTES

_SSD = StoreKind.SSD
_MB = 1 << 20

BlockKey = Tuple[int, int]


@dataclass
class Op:
    """One driver call and what the simulator made of it."""

    name: str                    # put | get | flush | flush_inode
    pool_id: int
    keys: Tuple[BlockKey, ...]   # flush_inode: ((inode, 0),)
    hits: FrozenSet[BlockKey] = frozenset()
    #: pool id -> its SSD FIFO, oldest first, once the call has run.
    fifos: Dict[int, Tuple[BlockKey, ...]] = field(default_factory=dict)
    #: ``engine.used[SSD]``, the store-wide total, once the call has run.
    used: int = 0


class Recorder:
    """Wraps a live ``DoubleDeckerCache``; schedule :meth:`attach` as a
    ``Scenario`` event at t=0 so it sees every call."""

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.cache = None

    def attach(self, runtime) -> None:
        cache = self.cache = runtime["cache"]
        for name in ("put_many", "get_many"):
            setattr(cache, name, self._wrap_gen(name[:3], getattr(cache, name)))
        flush_many, flush_inode = cache.flush_many, cache.flush_inode

        def flush_many_rec(vm_id, pool_id, keys):
            self._begin("flush", pool_id, keys)
            return flush_many(vm_id, pool_id, keys)

        def flush_inode_rec(vm_id, pool_id, inode, nblocks=None):
            self._begin("flush_inode", pool_id, [(inode, 0)])
            return flush_inode(vm_id, pool_id, inode, nblocks)

        cache.flush_many = flush_many_rec
        cache.flush_inode = flush_inode_rec

    def _wrap_gen(self, name, method):
        def recorded(vm_id, pool_id, keys):
            op = self._begin(name, pool_id, keys)
            result = yield from method(vm_id, pool_id, keys)
            if name == "get":
                op.hits = frozenset(result)
            return result
        return recorded

    def _begin(self, name, pool_id, keys) -> Op:
        # Only driver calls change the cache here, and each one does so
        # before its first yield, so the state a call starts from is
        # what the previous call left behind.
        self._snapshot()
        op = Op(name, pool_id, tuple(keys))
        self.ops.append(op)
        return op

    def _snapshot(self) -> None:
        if self.ops:
            self.ops[-1].fifos = {
                pool_id: tuple(pool.fifos[_SSD])
                for pool_id, pool in self.cache._pools.items()}
            self.ops[-1].used = self.cache.engine.used[_SSD]

    def finish(self) -> List[Op]:
        """The recorded stream, with the last call's state filled in."""
        self._snapshot()
        return self.ops


def _key(key: BlockKey) -> str:
    return f"{key[0]}:{key[1]}"


def replay(cache, ops: List[Op], store_dir: str) -> List[str]:
    """Play ``ops`` (recorded on the simulated ``cache``) into a fresh
    ``ServiceCache`` on an unsynced ``DiskStore``; returns divergences."""
    blocks = cache.capacities[_SSD]
    batch = cache._eviction_batch
    service = ServiceCache(
        DiskStore(store_dir, sync_writes=False),
        capacity_mb=blocks * SLOT_BYTES / _MB,
        eviction_batch_mb=batch * SLOT_BYTES / _MB)
    try:
        assert service.capacity_blocks == blocks
        assert service._eviction_batch == batch
        names: Dict[int, str] = {}
        for pool_id in sorted(cache._pools):
            pool = cache._pools[pool_id]
            names[pool_id] = pool.name
            tenant = service.pool(pool.name)
            service.engine.set_pool_policy(
                tenant.vm_id, tenant.pool_id,
                CachePolicy(ssd_weight=pool.policy.ssd_weight))
        return [f"op {i} ({op.name} pool {op.pool_id}): {problem}"
                for i, op in enumerate(ops)
                for problem in _apply(service, names, op)]
    finally:
        service.close()


def _apply(service: ServiceCache, names: Dict[int, str], op: Op) -> List[str]:
    tenant = names[op.pool_id]
    problems: List[str] = []
    if op.name == "put":
        for key in op.keys:
            service.set(tenant, _key(key), b"v")
    elif op.name == "get":
        hits = set()
        for key in op.keys:
            if service.get(tenant, _key(key)) is not None:
                hits.add(key)
                service.delete(tenant, _key(key))
        if hits != op.hits:
            problems.append(f"hits {sorted(hits)} != {sorted(op.hits)}")
    elif op.name == "flush":
        for key in op.keys:
            service.delete(tenant, _key(key))
    else:
        prefix = f"{op.keys[0][0]}:"
        for entry_id in list(service._fifos[tenant]):
            key = service.store.entry(entry_id).key
            if key.startswith(prefix):
                service.delete(tenant, key)
    if service.engine.used[_SSD] != op.used:
        problems.append(f"store total {service.engine.used[_SSD]} != {op.used}")
    for pool_id, fifo in op.fifos.items():
        pool = service.tenants[names[pool_id]]
        if pool.used[_SSD] != len(fifo):
            problems.append(f"{names[pool_id]} used {pool.used[_SSD]} != "
                            f"{len(fifo)}")
        held = [service.store.entry(entry_id).key
                for entry_id in service._fifos[names[pool_id]]]
        if held != [_key(key) for key in fifo]:
            problems.append(f"{names[pool_id]} FIFO differs")
    return problems
