"""The guest-side cleancache layer.

Sits between the guest page cache and the hypervisor cache, exactly as
Linux ``cleancache`` does: exclusive get on page-cache miss, put on clean
eviction, flush on invalidation — extended per the paper with per-cgroup
pools and the CREATE/SET_WEIGHT/MIGRATE/DESTROY/GET_STATS events.

All data-path methods are generators; they charge hypercall costs through
the :class:`~repro.cleancache.hypercall.HypercallChannel` and then
delegate to whichever :class:`~repro.core.interface.HypervisorCacheBase`
implementation the host runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import CachePolicy
from ..core.interface import HypervisorCacheBase
from ..core.pools import BlockKey
from ..core.stats import PoolStats
from ..obs import tracer as _obs
from ..simkernel import Environment
from .hypercall import HypercallChannel

__all__ = ["CleancacheClient"]


class CleancacheClient:
    """Per-VM cleancache front-end."""

    def __init__(
        self,
        env: Environment,
        hvcache: HypervisorCacheBase,
        vm_id: int,
        block_bytes: int,
    ) -> None:
        self.env = env
        self.hvcache = hvcache
        self.vm_id = vm_id
        self.block_bytes = block_bytes
        self.channel = HypercallChannel(env)

    # -- control path (cgroup events) ------------------------------------------

    def create_pool(self, name: str, policy: CachePolicy) -> int:
        """CREATE_CGROUP → new pool id."""
        return self.hvcache.create_pool(self.vm_id, name, policy)

    def destroy_pool(self, pool_id: int) -> None:
        """DESTROY_CGROUP."""
        self.hvcache.destroy_pool(self.vm_id, pool_id)

    def set_policy(self, pool_id: int, policy: CachePolicy) -> None:
        """SET_CG_WEIGHT."""
        self.hvcache.set_policy(self.vm_id, pool_id, policy)

    def get_stats(self, pool_id: int) -> PoolStats:
        """GET_STATS."""
        return self.hvcache.pool_stats(self.vm_id, pool_id)

    def migrate(self, from_pool: int, to_pool: int, inode: int) -> int:
        """MIGRATE_OBJECT for one shared file."""
        return self.hvcache.migrate_objects(self.vm_id, from_pool, to_pool, inode)

    # -- data path ---------------------------------------------------------------

    # Each data-path op is one top-level span ("op.get", "op.put", ...)
    # covering the manager work *and* the hypercall charge, closed after
    # the last yield so the recorded duration is the guest-visible
    # latency; the same duration feeds the per-op/VM/pool histograms.

    def get_many(self, pool_id: Optional[int], keys: Sequence[BlockKey]):
        """Exclusive lookup; generator returning the found key set."""
        if pool_id is None or not keys:
            return set()
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        found = yield from self.hvcache.get_many(self.vm_id, pool_id, keys)
        payload = len(found) * self.block_bytes
        yield from self.channel.charge_data(len(keys), payload)
        if tracer is not None:
            tracer.op_span("get", self.vm_id, pool_id, t0, self.env.now,
                           keys=len(keys), hits=len(found))
        return found

    def put_many(self, pool_id: Optional[int], keys: Sequence[BlockKey]):
        """Best-effort store of clean evicted blocks; returns #stored."""
        if pool_id is None or not keys:
            return 0
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        stored = yield from self.hvcache.put_many(self.vm_id, pool_id, keys)
        payload = stored * self.block_bytes
        yield from self.channel.charge_data(len(keys), payload)
        if tracer is not None:
            tracer.op_span("put", self.vm_id, pool_id, t0, self.env.now,
                           keys=len(keys), stored=stored)
        return stored

    def flush_many(self, pool_id: Optional[int], keys: Sequence[BlockKey]):
        """Invalidate specific blocks; returns #dropped."""
        if pool_id is None or not keys:
            return 0
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        dropped = self.hvcache.flush_many(self.vm_id, pool_id, keys)
        yield from self.channel.charge_control(len(keys))
        if tracer is not None:
            tracer.op_span("flush", self.vm_id, pool_id, t0, self.env.now,
                           keys=len(keys), dropped=dropped)
        return dropped

    def flush_inode(self, pool_id: Optional[int], inode: int,
                    nblocks: Optional[int] = None):
        """Invalidate a whole file; returns #dropped.

        ``nblocks`` (the file's size as the guest knows it) feeds the
        requested-flush accounting; see ``HypervisorCacheBase.flush_inode``.
        """
        if pool_id is None:
            return 0
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        dropped = self.hvcache.flush_inode(self.vm_id, pool_id, inode,
                                           nblocks=nblocks)
        yield from self.channel.charge_control(1)
        if tracer is not None:
            tracer.op_span("flush_inode", self.vm_id, pool_id, t0,
                           self.env.now, inode=inode, dropped=dropped)
        return dropped
