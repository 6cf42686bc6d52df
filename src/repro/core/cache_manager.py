"""The DoubleDecker hypervisor cache manager.

This is the paper's contribution: an exclusive second-chance cache with

* per-VM weighted partitioning (hypervisor-level policy),
* per-container ``<T, W>`` partitioning within each VM's share
  (guest-level policy, delivered over the cleancache/hypercall path),
* two storage backends (memory, SSD) with hybrid and trickle-down modes,
* *resource-conservative* enforcement: blocks are evicted only when a
  store is full, using Algorithm 1 at the VM level and again at the
  container level, in small batches (2 MB by default), FIFO within the
  victim pool (the LRU-equivalent for an exclusive cache).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..endurance import default_admission, make_admission
from ..obs import tracer as _obs
from ..simkernel import Environment
from ..storage import MB, MemSpec, SSD
from .audit import global_audit_interval, start_periodic_audit
from .config import CachePolicy, DDConfig, StoreKind
from .engine import PolicyEngine
from .interface import HypervisorCacheBase
from .optimizations import DedupIndex, content_fingerprint
from .pools import BlockKey, Pool, VMEntry
from .stats import PoolStats, StoreStats
from .stores import MemBackend, SSDBackend, contiguous_runs
from .victim import exceed_value

__all__ = ["DoubleDeckerCache"]


class DoubleDeckerCache(HypervisorCacheBase):
    """Container-aware, two-level weighted hypervisor cache."""

    def __init__(
        self,
        env: Environment,
        config: DDConfig,
        block_bytes: int,
        ssd_device: Optional[SSD] = None,
        mem_spec: Optional[MemSpec] = None,
        name: str = "ddecker",
    ) -> None:
        if config.ssd_capacity_mb > 0 and ssd_device is None:
            raise ValueError("SSD capacity configured but no SSD device supplied")
        self.env = env
        self.config = config
        self.block_bytes = block_bytes
        self.name = name

        self.capacities: Dict[StoreKind, int] = {
            StoreKind.MEMORY: int(config.mem_capacity_mb * MB) // block_bytes,
            StoreKind.SSD: int(config.ssd_capacity_mb * MB) // block_bytes,
        }
        self.used: Dict[StoreKind, int] = {StoreKind.MEMORY: 0, StoreKind.SSD: 0}

        # -- remote-memory lending (fleet cooperation) ----------------
        # ``capacities`` is the *effective* size; the audited invariant is
        # capacities[k] == _base_capacity[k] + lend_in[k] - lend_out[k].
        # Grants are re-derived by a fleet coordinator and applied as
        # absolute values via :meth:`set_lending`; a cache outside a
        # fleet never lends and the three always agree trivially.
        self._base_capacity: Dict[StoreKind, int] = dict(self.capacities)
        self.lend_in: Dict[StoreKind, int] = {StoreKind.MEMORY: 0, StoreKind.SSD: 0}
        self.lend_out: Dict[StoreKind, int] = {StoreKind.MEMORY: 0, StoreKind.SSD: 0}

        self.mem_backend = MemBackend(block_bytes, mem_spec)
        self.ssd_backend: Optional[SSDBackend] = None
        if ssd_device is not None:
            self.ssd_backend = SSDBackend(
                env, ssd_device, write_buffer_mb=config.ssd_write_buffer_mb
            )

        # -- memory-store optimizations (compression / dedup) ---------
        # The memory store is accounted in sub-block *units* so compressed
        # blocks charge their real footprint; without compression the
        # granularity is 1 and units coincide with blocks.
        self.compression = config.compression
        self._mem_gran = (
            self.compression.granularity if self.compression else 1
        )
        self._mem_units_capacity = (
            self.capacities[StoreKind.MEMORY] * self._mem_gran
        )
        self._mem_units_used = 0
        self._fingerprint = config.dedup_fingerprint or content_fingerprint
        self.dedup: Optional[DedupIndex] = (
            DedupIndex(self._fingerprint) if config.dedup else None
        )

        # The policy core: registry, entitlements, and Algorithm-1
        # selection live in the extracted engine; this class remains the
        # storage/clock driver.  ``vms`` / ``_pools`` alias the engine's
        # live dicts so the auditor and tests read one source of truth.
        self.engine = PolicyEngine(
            self.capacities,
            victim_policy=config.victim_policy,
            admission_builder=self._build_admission,
            admission_namer=self._admission_name,
        )
        self.vms: Dict[int, VMEntry] = self.engine.vms
        self._pools: Dict[int, Pool] = self.engine.pools  # global pool-id -> Pool
        self._eviction_batch = max(1, int(config.eviction_batch_mb * MB) // block_bytes)

        self.store_counters: Dict[StoreKind, StoreStats] = {
            StoreKind.MEMORY: StoreStats(kind="memory"),
            StoreKind.SSD: StoreStats(kind="ssd"),
        }

        #: ``ssd_writes`` of pools that no longer exist, so the auditor's
        #: pool-vs-backend write reconciliation survives destroy_pool.
        self._ssd_writes_destroyed = 0
        #: Same idea for the pool-vs-store-counter reconciliations: the
        #: destroyed pools' evictions and put-rejection buckets, so the
        #: monotone ``store_counters`` ledger stays exactly accounted
        #: across pool lifetimes (DD014 auditor coverage).
        self._evictions_destroyed = 0
        self._put_rejected_destroyed = 0
        self._put_rejected_admission_destroyed = 0
        self._put_rejected_backpressure_destroyed = 0

        # Decision-provenance label: unique per cache instance so traces
        # from experiments that build several caches (whose pool ids all
        # restart at 1) never mix.  None when built untraced — the
        # auditor's ledger cross-check skips such caches.
        tracer = _obs.ACTIVE
        self._obs_label: Optional[str] = (
            tracer.register_cache(name) if tracer is not None else None
        )

        # Opt-in shadow accounting: per-config interval wins, else the
        # process-wide switch installed by ``--audit`` / the test fixture.
        audit_interval = config.audit_interval or global_audit_interval()
        if audit_interval > 0:
            start_periodic_audit(env, self, audit_interval)

    # ------------------------------------------------------------------
    # VM lifecycle (hypervisor-level policy controller)
    # ------------------------------------------------------------------

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self.engine.register_vm(name, weight)
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.note_vm(self._obs_label, vm_id, name)
            tracer.instant("vm.register", self.env.now, vm=vm_id,
                           cache=self._obs_label, vm_name=name, weight=weight)
        return vm_id

    def unregister_vm(self, vm_id: int) -> None:
        vm = self._require_vm(vm_id)
        for pool_id in list(vm.pools):
            self.destroy_pool(vm_id, pool_id)
        self.engine.unregister_vm(vm_id)

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        self.engine.set_vm_weight(vm_id, weight)

    def set_capacity(self, kind: StoreKind, capacity_mb: float) -> None:
        """Dynamically resize a store (the paper grows the memory store
        from 2 GB to 4 GB in the dynamic-VM experiment)."""
        if capacity_mb < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_mb}")
        if kind is StoreKind.SSD and self.ssd_backend is None and capacity_mb > 0:
            raise ValueError("cannot size an SSD store without an SSD device")
        self._base_capacity[kind] = int(capacity_mb * MB) // self.block_bytes
        self._apply_capacity(kind)

    def set_lending(self, kind: StoreKind, lend_in: int = 0,
                    lend_out: int = 0) -> None:
        """Apply re-derived lend grants (absolute block counts, idempotent).

        ``lend_out`` exports part of this cache's own store to another
        host; ``lend_in`` admits borrowed remote capacity.  A store never
        does both at once (the fleet coordinator nets grants out), and it
        cannot lend more than it owns.  Shrinking grants evict through the
        normal path so resource conservation holds across a re-derivation.
        """
        if lend_in < 0 or lend_out < 0:
            raise ValueError(
                f"lend grants must be non-negative, got in={lend_in} "
                f"out={lend_out}"
            )
        if lend_in and lend_out:
            raise ValueError("a store cannot lend and borrow simultaneously")
        if lend_out > self._base_capacity[kind]:
            raise ValueError(
                f"cannot lend {lend_out} of {self._base_capacity[kind]} "
                f"owned blocks"
            )
        if (lend_in == self.lend_in[kind]
                and lend_out == self.lend_out[kind]):
            return
        self.lend_in[kind] = lend_in
        self.lend_out[kind] = lend_out
        self._apply_capacity(kind)
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.instant("lend.apply", self.env.now, cache=self._obs_label,
                           kind=kind.name.lower(), lend_in=lend_in,
                           lend_out=lend_out,
                           capacity=self.capacities[kind])

    def _apply_capacity(self, kind: StoreKind) -> None:
        """Recompute the effective store size from base + lend grants."""
        self.capacities[kind] = (
            self._base_capacity[kind]
            + self.lend_in[kind] - self.lend_out[kind]
        )
        if kind is StoreKind.MEMORY:
            self._mem_units_capacity = self.capacities[kind] * self._mem_gran
        self._recompute()
        self._shrink_to_fit(kind)

    # ------------------------------------------------------------------
    # Pool lifecycle (guest-level policy controller)
    # ------------------------------------------------------------------

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        self._require_vm(vm_id)
        if policy.ssd_weight > 0 and self.ssd_backend is None:
            raise ValueError(
                f"pool {name!r} requests SSD but the cache has no SSD store"
            )
        pool = self.engine.create_pool(vm_id, name, policy)
        pool_id = pool.pool_id
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.note_pool(self._obs_label, pool_id, name)
            tracer.instant("pool.create", self.env.now, vm=vm_id, pool=pool_id,
                           cache=self._obs_label, pool_name=name,
                           mem_weight=policy.mem_weight,
                           ssd_weight=policy.ssd_weight)
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self._require_pool(vm_id, pool_id)
        self._drain_pool(pool)
        # Keep the write and rejection reconciliations exact across pool
        # lifetimes.
        self._ssd_writes_destroyed += pool.stats.ssd_writes
        self._evictions_destroyed += pool.stats.evictions
        self._put_rejected_destroyed += (
            pool.stats.put_rejected_policy
            + pool.stats.put_rejected_capacity
            + pool.stats.put_rejected_admission
            + pool.stats.put_rejected_backpressure
        )
        self._put_rejected_admission_destroyed += pool.stats.put_rejected_admission
        self._put_rejected_backpressure_destroyed += (
            pool.stats.put_rejected_backpressure)
        self.engine.destroy_pool(vm_id, pool_id)
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.instant("pool.destroy", self.env.now, vm=vm_id,
                           pool=pool_id, cache=self._obs_label)

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        pool = self._require_pool(vm_id, pool_id)
        if policy.ssd_weight > 0 and self.ssd_backend is None:
            raise ValueError("policy requests SSD but the cache has no SSD store")
        # The engine keeps the live admission controller when the resolved
        # policy name is unchanged (its ghost/bucket state and ledger
        # survive a weight change) and builds a fresh one on a switch.
        new_name = self.engine.set_pool_policy(vm_id, pool_id, policy)
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.instant("policy.set", self.env.now, vm=vm_id, pool=pool_id,
                           cache=self._obs_label,
                           mem_weight=policy.mem_weight,
                           ssd_weight=policy.ssd_weight,
                           admission=new_name)
        # A container switched away from a store keeps already-cached
        # blocks there (they age out FIFO under pressure) unless it no
        # longer uses the cache at all, in which case they are dropped.
        if not policy.uses_cache and len(pool):
            self._drain_pool(pool)

    def _drain_pool(self, pool: Pool) -> None:
        """Release every cached block of ``pool`` from manager accounting."""
        for inode, block in list(pool.fifos[StoreKind.MEMORY]):
            self._mem_release(pool.vm_id, inode, block)
        counts = pool.drain()
        for kind, count in counts.items():
            self.used[kind] -= count

    def pool_stats(self, vm_id: int, pool_id: int) -> PoolStats:
        return self._require_pool(vm_id, pool_id).snapshot_stats()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        """Exclusive lookup; generator returning the set of found keys."""
        pool = self._require_pool(vm_id, pool_id)
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        # Hot path: every guest page-cache miss funnels through here.  The
        # pool drops the whole batch in one call; only memory hits need
        # per-key work afterwards (the dedup/compression accounting is
        # inherently per block).
        stats = pool.stats
        stats.gets += len(keys)
        mem_keys, ssd_keys = pool.remove_many(keys)
        mem_hits = len(mem_keys)
        if mem_hits:
            self.used[StoreKind.MEMORY] -= mem_hits
            release = self._mem_release
            for inode, block in mem_keys:
                release(vm_id, inode, block)
        if ssd_keys:
            self.used[StoreKind.SSD] -= len(ssd_keys)
        found: Set[BlockKey] = set(mem_keys)
        found.update(ssd_keys)
        stats.get_hits += len(found)
        # Ledger before the trailing yields (mirrors the stats updates, so
        # the auditor reconciles even if the generator never resumes);
        # the span closes after them so its duration is the real latency.
        if tracer is not None and self._obs_label is not None:
            tracer.ledger_update(self._obs_label, pool_id,
                                 gets=len(keys), get_hits=len(found))
        if mem_hits:
            cost = self.mem_backend.read_cost(mem_hits)
            if self.compression is not None:
                cost += self.compression.decompress_cost(mem_hits)
            yield self.env.timeout(cost)
        if ssd_keys:
            assert self.ssd_backend is not None
            yield from self.ssd_backend.read_runs(contiguous_runs(ssd_keys))
        if tracer is not None:
            tracer.span_end("cache.get", t0, self.env.now, vm=vm_id,
                            pool=pool_id, keys=len(keys), hits=len(found),
                            mem_hits=mem_hits, ssd_hits=len(ssd_keys))
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        """Best-effort store of clean evicted blocks; returns #stored."""
        pool = self._require_pool(vm_id, pool_id)
        stats = pool.stats
        stats.puts += len(keys)
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        # The policy cannot change mid-batch (nothing yields inside the
        # loop), so the uses-cache and store-choice branches are decided
        # once; only the hybrid mode re-checks per key (its spill point
        # depends on occupancy, which the loop itself advances).
        policy = pool.policy
        if not policy.uses_cache:
            stats.put_rejected_policy += len(keys)
            self.store_counters[StoreKind.MEMORY].rejected_puts += len(keys)
            if tracer is not None:
                if self._obs_label is not None:
                    tracer.ledger_update(self._obs_label, pool_id,
                                         puts=len(keys),
                                         put_rejected_policy=len(keys))
                    tracer.instant("put.outcome", self.env.now, vm=vm_id,
                                   pool=pool_id, cache=self._obs_label,
                                   puts=len(keys), stored=0,
                                   rejected_policy=len(keys),
                                   rejected_capacity=0, rejected_admission=0,
                                   rejected_backpressure=0, ssd=0)
                tracer.span_end("cache.put", t0, self.env.now, vm=vm_id,
                                pool=pool_id, keys=len(keys), stored=0)
            return 0
        if tracer is not None:
            # Deltas, not absolutes: eviction triggered by this very batch
            # can touch other counters of the same pool mid-loop.
            rej_capacity0 = stats.put_rejected_capacity
            rej_admission0 = stats.put_rejected_admission
            rej_backpressure0 = stats.put_rejected_backpressure
        MEMORY = StoreKind.MEMORY
        SSD = StoreKind.SSD
        if policy.is_hybrid:
            fixed_kind = None
        elif policy.mem_weight > 0:
            fixed_kind = MEMORY
        else:
            fixed_kind = SSD
        stored = 0
        mem_stores = 0
        used = self.used
        pool_used = pool.used
        entitlement = pool.entitlement
        remove = pool.remove_key
        insert = pool.insert
        release = self._mem_release
        charge = self._mem_charge
        make_room = self._make_room
        counters = self.store_counters
        ssd_backend = self.ssd_backend
        # Admission is consulted only for SSD-destined keys; with no
        # controller configured the hook costs one hoisted None-check per
        # batch, keeping the disabled path byte-identical to the
        # pre-endurance data path.  Nothing yields inside the loop, so
        # the clock is constant and hoisted for the time-based policies.
        admission = pool.admission
        now = self.env.now
        for key in keys:
            inode, block = key
            # Duplicate put: drop the stale copy first so accounting
            # (manager used / memory units) stays exact.  ``remove``
            # folds the former lookup+remove pair into one descent.
            existing = remove(key)
            if existing is not None:
                used[existing] -= 1
                if existing is MEMORY:
                    release(vm_id, inode, block)
            kind = fixed_kind
            if kind is None:  # hybrid spills to SSD past the memory share
                kind = MEMORY if pool_used[MEMORY] < entitlement[MEMORY] else SSD
            if kind is SSD and admission is not None and not admission.admit(key, now):
                stats.put_rejected_admission += 1
                counters[SSD].rejected_puts += 1
                counters[SSD].rejected_admission += 1
                continue
            if not make_room(kind, 1):
                stats.put_rejected_capacity += 1
                counters[kind].rejected_puts += 1
                continue
            if kind is SSD:
                assert ssd_backend is not None
                if not ssd_backend.enqueue_write(1):
                    stats.put_rejected_backpressure += 1
                    counters[kind].rejected_puts += 1
                    counters[kind].rejected_backpressure += 1
                    continue
                stats.ssd_writes += 1
            insert(inode, block, kind)
            used[kind] += 1
            if kind is MEMORY:
                charge(vm_id, inode, block)
                mem_stores += 1
            stored += 1
        stats.puts_stored += stored
        if tracer is not None:
            rejected_capacity = stats.put_rejected_capacity - rej_capacity0
            rejected_admission = stats.put_rejected_admission - rej_admission0
            rejected_backpressure = (
                stats.put_rejected_backpressure - rej_backpressure0
            )
            if self._obs_label is not None:
                # Put-path SSD writes are ``stored - mem_stores`` (not a
                # counter delta: trickle-down during this batch's own
                # evictions may bump the same pool's ``ssd_writes`` and
                # ledgers those itself).
                tracer.ledger_update(
                    self._obs_label, pool_id,
                    puts=len(keys), puts_stored=stored,
                    put_rejected_capacity=rejected_capacity,
                    put_rejected_admission=rejected_admission,
                    put_rejected_backpressure=rejected_backpressure,
                    ssd_writes=stored - mem_stores,
                )
                tracer.instant("put.outcome", self.env.now, vm=vm_id,
                               pool=pool_id, cache=self._obs_label,
                               puts=len(keys), stored=stored,
                               rejected_policy=0,
                               rejected_capacity=rejected_capacity,
                               rejected_admission=rejected_admission,
                               rejected_backpressure=rejected_backpressure,
                               ssd=stored - mem_stores)
        if mem_stores:
            cost = self.mem_backend.write_cost(mem_stores)
            if self.compression is not None:
                cost += self.compression.compress_cost(mem_stores)
            yield self.env.timeout(cost)
        if tracer is not None:
            tracer.span_end("cache.put", t0, self.env.now, vm=vm_id,
                            pool=pool_id, keys=len(keys), stored=stored)
        return stored

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        pool = self._require_pool(vm_id, pool_id)
        mem_keys, ssd_keys = pool.remove_many(keys)
        if mem_keys:
            self.used[StoreKind.MEMORY] -= len(mem_keys)
            release = self._mem_release
            for inode, block in mem_keys:
                release(vm_id, inode, block)
        if ssd_keys:
            self.used[StoreKind.SSD] -= len(ssd_keys)
        dropped = len(mem_keys) + len(ssd_keys)
        # ``flushes`` counts blocks actually dropped (same as flush_inode);
        # ``flush_requests`` counts blocks the guest asked about, so the
        # miss rate of flushes stays observable without skewing drop stats.
        pool.stats.flush_requests += len(keys)
        pool.stats.flushes += dropped
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.ledger_update(self._obs_label, pool_id,
                                 flush_requests=len(keys), flushes=dropped)
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self._require_pool(vm_id, pool_id)
        mem_blocks = pool.mem_blocks_of_inode(inode)
        counts = pool.remove_inode(inode)
        for block in mem_blocks:
            self._mem_release(vm_id, inode, block)
        dropped = 0
        for kind, count in counts.items():
            self.used[kind] -= count
            dropped += count
        # ``flush_requests`` uses the same *requested* semantics as
        # flush_many: the guest passes the file's block count via
        # ``nblocks`` so whole-file flushes report asks, not drops.  When
        # the caller doesn't know the file size, the resident count is
        # the only request size observable here.
        requested = dropped if nblocks is None else nblocks
        pool.stats.flush_requests += requested
        pool.stats.flushes += dropped
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.ledger_update(self._obs_label, pool_id,
                                 flush_requests=requested, flushes=dropped)
        return dropped

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        """Re-home one file's cached blocks between two pools of one VM.

        Only the key mapping changes; block data stays where it is, so the
        operation is metadata-only (as in the paper's MIGRATE_OBJECT).
        Self-migration is a no-op (a remove/insert cycle would reset the
        blocks' FIFO residence order, making them artificially youngest).
        Blocks whose current store the target policy gives zero weight are
        rejected — they stay in the source pool — so migration cannot
        manufacture the stranded-block class ``_evict_round`` guards
        against.  Rejections are counted into the source pool's
        ``migrated_rejected`` (and the obs ledger / ``migrate`` instant),
        so a partial migration is distinguishable from a full one.
        """
        source = self._require_pool(vm_id, from_pool)
        target = self._require_pool(vm_id, to_pool)
        if from_pool == to_pool:
            return 0
        # Ascending block order: the target-FIFO insertion order feeds
        # future evictions, so it is part of the deterministic contract.
        items = source.items_of_inode(inode)
        if not items:
            return 0
        target_policy = target.policy
        moved = 0
        rejected = 0
        for block, kind in items:
            if target_policy.weight_for(kind) <= 0:
                rejected += 1
                continue
            source.remove_key((inode, block))
            target.insert(inode, block, kind)
            moved += 1
        if moved:
            source.stats.migrated_out += moved
            target.stats.migrated_in += moved
        if rejected:
            source.stats.migrated_rejected += rejected
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            if moved or rejected:
                tracer.ledger_update(self._obs_label, from_pool,
                                     migrated_out=moved,
                                     migrated_rejected=rejected)
                tracer.ledger_update(self._obs_label, to_pool,
                                     migrated_in=moved)
            tracer.instant("migrate", self.env.now, vm=vm_id, pool=from_pool,
                           cache=self._obs_label, from_pool=from_pool,
                           to_pool=to_pool, inode=inode, moved=moved,
                           rejected=rejected)
        return moved

    # ------------------------------------------------------------------
    # Fleet cooperation: cross-host VM migration
    # ------------------------------------------------------------------

    def export_vm_blocks(
        self, vm_id: int
    ) -> List[Tuple[str, CachePolicy, List[Tuple[int, int, StoreKind]]]]:
        """Hand one VM's cached blocks off for cross-host live migration.

        The fleet-level analogue of ``MIGRATE_OBJECT``: returns one
        ``(pool name, policy, [(inode, block, kind), ...])`` entry per
        pool, pools in id order and blocks in ascending ``(inode, block)``
        order, so the receiving cache's FIFO insertion order — and with it
        every future eviction — is deterministic.  Every exported block
        counts as ``migrated_out`` on its source pool (it leaves this
        cache either way); whether the target accepts it is accounted
        there, so across a migration
        ``source.migrated_out == target.migrated_in + target.migrated_rejected``.

        The caller still tears the VM down afterwards (``unregister_vm``
        or ``Host.destroy_vm``); this method only snapshots and accounts.
        """
        vm = self._require_vm(vm_id)
        tracer = _obs.ACTIVE
        exported: List[Tuple[str, CachePolicy, List[Tuple[int, int, StoreKind]]]] = []
        for pool_id in sorted(vm.pools):
            pool = vm.pools[pool_id]
            items: List[Tuple[int, int, StoreKind]] = []
            for inode in sorted(pool.files):
                for block, kind in pool.items_of_inode(inode):
                    items.append((inode, block, kind))
            exported.append((pool.name, pool.policy, items))
            if items:
                pool.stats.migrated_out += len(items)
            if tracer is not None and self._obs_label is not None:
                if items:
                    tracer.ledger_update(self._obs_label, pool_id,
                                         migrated_out=len(items))
                tracer.instant("migrate.cross_host", self.env.now, vm=vm_id,
                               pool=pool_id, cache=self._obs_label,
                               direction="out", moved=len(items),
                               rejected=0)
        return exported

    def adopt_blocks(
        self, vm_id: int, pool_id: int,
        items: Sequence[Tuple[int, int, StoreKind]],
    ) -> Tuple[int, int]:
        """Adopt blocks exported by another host's cache; ``(accepted,
        rejected)``.

        Live migration ships the memory store with the VM: memory blocks
        are accepted while the target policy weights the memory store and
        free capacity remains (adoption never evicts the host's own warm
        blocks to make room for a cold import).  SSD-resident blocks are
        always rejected — the source host's local SSD does not travel,
        and charging them here would falsify the SSD write
        reconciliation.  Rejections land in the target pool's
        ``migrated_rejected``.
        """
        pool = self._require_pool(vm_id, pool_id)
        MEMORY = StoreKind.MEMORY
        mem_ok = pool.policy.weight_for(MEMORY) > 0
        accepted = 0
        rejected = 0
        for inode, block, kind in items:
            if (kind is not MEMORY or not mem_ok
                    or pool.lookup(inode, block) is not None
                    or self._mem_units_used + self._mem_gran
                    > self._mem_units_capacity):
                rejected += 1
                continue
            pool.insert(inode, block, MEMORY)
            self.used[MEMORY] += 1
            self._mem_charge(vm_id, inode, block)
            accepted += 1
        if accepted:
            pool.stats.migrated_in += accepted
        if rejected:
            pool.stats.migrated_rejected += rejected
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            if accepted or rejected:
                tracer.ledger_update(self._obs_label, pool_id,
                                     migrated_in=accepted,
                                     migrated_rejected=rejected)
            tracer.instant("migrate.cross_host", self.env.now, vm=vm_id,
                           pool=pool_id, cache=self._obs_label,
                           direction="in", moved=accepted, rejected=rejected)
        return accepted, rejected

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def store_stats(self) -> Dict[StoreKind, StoreStats]:
        for kind, counters in self.store_counters.items():
            counters.capacity_blocks = self.capacities[kind]
            counters.used_blocks = self.used[kind]
        return self.store_counters

    def vm_used_blocks(self, vm_id: int, kind: Optional[StoreKind] = None) -> int:
        vm = self._require_vm(vm_id)
        if kind is not None:
            return vm.used(kind)
        return vm.used(StoreKind.MEMORY) + vm.used(StoreKind.SSD)

    def pool_used_mb(self, pool_id: int, kind: Optional[StoreKind] = None) -> float:
        """Occupancy of a pool in MB (the quantity Figures 8-13 plot)."""
        pool = self._pools.get(pool_id)
        if pool is None:
            return 0.0
        if kind is not None:
            blocks = pool.used[kind]
        else:
            blocks = len(pool)
        return blocks * self.block_bytes / MB

    def vm_used_mb(self, vm_id: int, kind: Optional[StoreKind] = None) -> float:
        """Occupancy of a VM in MB."""
        vm = self.vms.get(vm_id)
        if vm is None:
            return 0.0
        if kind is not None:
            return vm.used(kind) * self.block_bytes / MB
        return (vm.used(StoreKind.MEMORY) + vm.used(StoreKind.SSD)) * self.block_bytes / MB

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mem_charge(self, vm_id: int, inode: int, block: int) -> None:
        """Account a block entering the memory store (units/dedup).

        The content fingerprint is only needed to size compressed blocks,
        and only for blocks that actually consume capacity — so hash after
        the dedup early-return, and not at all without compression.
        """
        dedup = self.dedup
        if dedup is not None and not dedup.insert(vm_id, inode, block):
            return  # duplicate content: no new capacity consumed
        compression = self.compression
        if compression is None:
            self._mem_units_used += 1
        else:
            self._mem_units_used += compression.charged_units(
                self._fingerprint(vm_id, inode, block)
            )

    def _mem_release(self, vm_id: int, inode: int, block: int) -> None:
        """Account a block leaving the memory store."""
        dedup = self.dedup
        if dedup is not None and not dedup.remove(vm_id, inode, block):
            return  # other references keep the content resident
        compression = self.compression
        if compression is None:
            self._mem_units_used -= 1
        else:
            self._mem_units_used -= compression.charged_units(
                self._fingerprint(vm_id, inode, block)
            )

    @property
    def mem_physical_mb(self) -> float:
        """Real memory consumed by the store (after compression/dedup)."""
        blocks = self._mem_units_used / self._mem_gran
        return blocks * self.block_bytes / MB

    @property
    def _vm_entitlements(self) -> Dict[Tuple[int, StoreKind], int]:
        """Per-``(vm_id, store)`` VM-level entitlements (engine-owned)."""
        return self.engine.vm_entitlements

    def _require_vm(self, vm_id: int) -> VMEntry:
        return self.engine.require_vm(vm_id)

    def _require_pool(self, vm_id: int, pool_id: int) -> Pool:
        return self.engine.require_pool(vm_id, pool_id)

    def _recompute(self) -> None:
        self.engine.recompute()

    def _admission_name(self, policy: CachePolicy) -> str:
        """The admission-policy name ``policy`` resolves to: per-pool
        ``CachePolicy.admission``, then ``DDConfig.admission``, then the
        process-wide default (the CLI ``--admission`` flag)."""
        return policy.admission or self.config.admission or default_admission()

    def _build_admission(self, policy: CachePolicy):
        """Resolve (:meth:`_admission_name`) and build a pool's SSD
        admission controller.  Without an SSD store there is nothing to
        protect, so no controller is built and the hook stays a strict
        no-op.
        """
        if self.ssd_backend is None:
            return None
        return make_admission(
            self._admission_name(policy),
            block_bytes=self.block_bytes,
            ssd_capacity_blocks=self.capacities[StoreKind.SSD],
            ghost_mb=self.config.admission_ghost_mb,
            write_mb_s=self.config.admission_write_mb_s,
            burst_mb=self.config.admission_burst_mb,
        )

    def _make_room(self, kind: StoreKind, need: int) -> bool:
        """Ensure ``need`` free blocks in store ``kind``; False on failure.

        The memory store is checked in compressed units (worst-case
        charge per incoming block) so compression genuinely increases the
        number of blocks that fit."""
        capacity = self.capacities[kind]
        if capacity <= 0:
            return False
        guard = 0
        if kind is StoreKind.MEMORY:
            need_units = need * self._mem_gran
            while self._mem_units_used + need_units > self._mem_units_capacity:
                if not self._evict_round(kind):
                    return False
                guard += 1
                if guard > capacity:  # pragma: no cover - safety net
                    return False
            return True
        while self.used[kind] + need > capacity:
            if not self._evict_round(kind):
                return False
            guard += 1
            if guard > capacity:  # pragma: no cover - safety net
                return False
        return True

    def _evict_round(self, kind: StoreKind) -> bool:
        """One Algorithm-1 round: pick victim VM, then pool, evict a batch.

        The selection (candidate enumeration by occupancy, Algorithm-1
        scoring, the fallback rules) lives in
        :meth:`PolicyEngine.select_eviction`; this driver evicts the
        batch FIFO from the winning pool and owns all storage accounting
        (manager ``used``, memory units, trickle-down, tracing).
        """
        batch = self._eviction_batch
        selection = self.engine.select_eviction(kind, batch)
        if selection is None:
            return False
        pool = selection.victim_pool
        evicted = 0
        trickle: List[BlockKey] = []
        while evicted < batch and pool.used[kind] > 0:
            key = pool.pop_oldest(kind)
            if key is None:
                break
            self.used[kind] -= 1
            if kind is StoreKind.MEMORY:
                self._mem_release(pool.vm_id, key[0], key[1])
            evicted += 1
            if (
                kind is StoreKind.MEMORY
                and self.config.trickle_down
                and self.ssd_backend is not None
                and self.capacities[StoreKind.SSD] > 0
            ):
                trickle.append(key)
        if evicted:
            pool.stats.evictions += evicted
            counters = self.store_counters[kind]
            counters.evictions += evicted
            counters.eviction_rounds += 1
            tracer = _obs.ACTIVE
            if tracer is not None and self._obs_label is not None:
                tracer.ledger_update(self._obs_label, pool.pool_id,
                                     evictions=evicted)
                # Each candidate's Algorithm-1 exceed value, from the rows
                # and (slack, weight) state the selection itself scored, so
                # the trace shows *why* this entity lost.
                tracer.instant(
                    "evict.round", self.env.now, vm=pool.vm_id,
                    pool=pool.pool_id, cache=self._obs_label,
                    store=kind.value, batch=batch, evicted=evicted,
                    trickled=len(trickle),
                    victim_vm=selection.victim_vm.vm_id,
                    victim_pool=pool.pool_id,
                    vm_candidates=[
                        [e[0].name, exceed_value(e, batch, *selection.vm_state)]
                        for e in selection.vm_entities
                    ],
                    pool_candidates=[
                        [e[0].name, exceed_value(e, batch, *selection.pool_state)]
                        for e in selection.pool_entities
                    ],
                )
            if trickle:
                self._trickle_down(pool, trickle)
            return True
        return False

    def _trickle_down(self, pool: Pool, keys: List[BlockKey]) -> None:
        """Third-chance path: re-home memory-evicted blocks on the SSD.

        The admission controller guards this entrance to the flash store
        too — a trickled block is an SSD write like any other — but its
        rejections are tracked separately (``trickle_rejected_admission``)
        because trickles are internal migrations, not guest puts, so they
        must stay out of the put ledger.  An admission rejection skips
        one key; store-full / buffer-full still abort the batch.
        """
        assert self.ssd_backend is not None
        admission = pool.admission
        now = self.env.now
        tracer = _obs.ACTIVE
        if tracer is not None:
            # Counter snapshots are safe here: nested SSD eviction rounds
            # (via ``_make_room``) never touch these two fields.
            rejected0 = pool.stats.trickle_rejected_admission
            writes0 = pool.stats.ssd_writes
        for key in keys:
            if admission is not None and not admission.admit(key, now):
                pool.stats.trickle_rejected_admission += 1
                continue
            if not self._make_room(StoreKind.SSD, 1):
                break
            if not self.ssd_backend.enqueue_write(1):
                break
            inode, block = key
            pool.insert(inode, block, StoreKind.SSD)
            self.used[StoreKind.SSD] += 1
            pool.stats.ssd_writes += 1
        if tracer is not None and self._obs_label is not None:
            written = pool.stats.ssd_writes - writes0
            rejected = pool.stats.trickle_rejected_admission - rejected0
            tracer.ledger_update(self._obs_label, pool.pool_id,
                                 ssd_writes=written,
                                 trickle_rejected_admission=rejected)
            tracer.instant("trickle.down", self.env.now, vm=pool.vm_id,
                           pool=pool.pool_id, cache=self._obs_label,
                           candidates=len(keys), written=written,
                           rejected_admission=rejected)

    def _shrink_to_fit(self, kind: StoreKind) -> None:
        """After a capacity reduction, evict until within the new limit."""
        if kind is StoreKind.MEMORY:
            while self._mem_units_used > self._mem_units_capacity:
                if not self._evict_round(kind):
                    break
            return
        while self.used[kind] > self.capacities[kind]:
            if not self._evict_round(kind):
                break
