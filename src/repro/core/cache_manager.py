"""The DoubleDecker hypervisor cache manager.

This is the paper's contribution: an exclusive second-chance cache with

* per-VM weighted partitioning (hypervisor-level policy),
* per-container ``<T, W>`` partitioning within each VM's share
  (guest-level policy, delivered over the cleancache/hypercall path),
* two storage backends (memory, SSD) with hybrid and trickle-down modes,
  the memory store optionally compressed and/or deduplicated and then
  accounted in sub-block units (``mem_units``, which the pools charge),
* *resource-conservative* enforcement: blocks are evicted only when a
  store is full, using Algorithm 1 at the VM level and again at the
  container level, in small batches (2 MB by default), FIFO within the
  victim pool (the LRU-equivalent for an exclusive cache).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..endurance import make_admission
from ..obs import tracer as _obs
from ..simkernel import Environment
from ..storage import MB, SSD, block_runs
from .audit import global_audit_interval, start_periodic_audit
from .config import CachePolicy, DDConfig, StoreKind
from .engine import EvictionRound, PolicyEngine
from .interface import HypervisorCacheBase
from .optimizations import DedupIndex, MemoryUnits
from .pools import BlockKey, Pool, VMEntry
from .stats import PoolStats
from .stores import MemBackend, SSDBackend
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

        self.mem_backend = MemBackend(block_bytes)
        self.ssd_backend: Optional[SSDBackend] = None
        if ssd_device is not None:
            self.ssd_backend = SSDBackend(env, ssd_device)

        # -- memory-store optimizations (compression / dedup) ---------
        # With either on, the pools charge memory blocks in sub-block
        # units; without, a block is a unit and ``used`` suffices.
        self.compression = config.compression
        self.mem_units: Optional[MemoryUnits] = (
            MemoryUnits(config.compression, config.dedup,
                        config.dedup_fingerprint)
            if config.compression is not None or config.dedup else None
        )
        self.dedup: Optional[DedupIndex] = self.mem_units.dedup if self.mem_units else None

        # The policy core: registry, entitlements, and Algorithm-1
        # selection live in the extracted engine; this class remains the
        # storage/clock driver.  ``vms`` / ``_pools`` / ``used`` alias the
        # engine's live dicts so the auditor and tests read one source of
        # truth; the pools alone write ``used``.
        self.engine = PolicyEngine(
            self.capacities,
            victim_policy=config.victim_policy,
            admission_builder=self._build_admission,
            admission_namer=self._admission_name,
        )
        self.vms: Dict[int, VMEntry] = self.engine.vms
        self._pools: Dict[int, Pool] = self.engine.pools  # global pool-id -> Pool
        self.used: Dict[StoreKind, int] = self.engine.used
        self._eviction_batch = max(1, int(config.eviction_batch_mb * MB) // block_bytes)
        #: ``(store, need)`` -> :meth:`_make_room`'s callbacks, built once
        #: because every put asks for room.
        self._room = {(kind, need): self._room_callbacks(kind, need)
                      for kind in StoreKind for need in (0, 1)}

        #: ``ssd_writes`` of pools that no longer exist, so the auditor's
        #: pool-vs-backend write reconciliation survives destroy_pool.
        self._ssd_writes_destroyed = 0

        # Decision-provenance label: unique per cache instance so traces
        # from experiments that build several caches (whose pool ids all
        # restart at 1) never mix.  None when built untraced: such a
        # cache records no provenance.
        tracer = _obs.ACTIVE
        self._obs_label: Optional[str] = (
            tracer.register_cache(name) if tracer is not None else None
        )

        # Opt-in shadow accounting: the process-wide switch installed by
        # ``--audit`` / the test fixture.
        audit_interval = global_audit_interval()
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
        vm = self.engine.require_vm(vm_id)
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
        self.capacities[kind] = int(capacity_mb * MB) // self.block_bytes
        self.engine.recompute()
        self._make_room(kind, 0)

    # ------------------------------------------------------------------
    # Pool lifecycle (guest-level policy controller)
    # ------------------------------------------------------------------

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        self.engine.require_vm(vm_id)
        if policy.ssd_weight > 0 and self.ssd_backend is None:
            raise ValueError(
                f"pool {name!r} requests SSD but the cache has no SSD store"
            )
        pool = self.engine.create_pool(vm_id, name, policy)
        pool.units = self.mem_units
        pool_id = pool.pool_id
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.note_pool(self._obs_label, pool)
            tracer.instant("pool.create", self.env.now, vm=vm_id, pool=pool_id,
                           cache=self._obs_label, pool_name=name,
                           mem_weight=policy.mem_weight,
                           ssd_weight=policy.ssd_weight)
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pool = self.engine.require_pool(vm_id, pool_id)
        pool.drain()
        # Keep the write reconciliation exact across pool lifetimes.
        self._ssd_writes_destroyed += pool.stats.ssd_writes
        self.engine.destroy_pool(vm_id, pool_id)
        tracer = _obs.ACTIVE
        if tracer is not None and self._obs_label is not None:
            tracer.instant("pool.destroy", self.env.now, vm=vm_id,
                           pool=pool_id, cache=self._obs_label)

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        pool = self.engine.require_pool(vm_id, pool_id)
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
            pool.drain()

    def pool_stats(self, vm_id: int, pool_id: int) -> PoolStats:
        return self.engine.require_pool(vm_id, pool_id).snapshot_stats()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        """Exclusive lookup; generator returning the set of found keys."""
        pool = self.engine.require_pool(vm_id, pool_id)
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.span_begin()
            t0 = self.env.now
        # Hot path: every guest page-cache miss funnels through here.  The
        # pool drops the whole batch in one call.
        stats = pool.stats
        stats.gets += len(keys)
        mem_keys, ssd_keys = pool.remove_many(keys)
        mem_hits = len(mem_keys)
        found: Set[BlockKey] = set(mem_keys)
        found.update(ssd_keys)
        stats.get_hits += len(found)
        # The span closes after the trailing yields, so its duration is
        # the real latency.
        if mem_hits:
            cost = self.mem_backend.read_cost(mem_hits)
            if self.compression is not None:
                cost += self.compression.decompress_cost(mem_hits)
            yield self.env.timeout(cost)
        if ssd_keys:
            assert self.ssd_backend is not None
            # One device request per run of adjacent blocks of one file.
            runs: List[Tuple[int, int]] = []
            for _, keys_of_file in groupby(sorted(ssd_keys), itemgetter(0)):
                runs += block_runs([block for _, block in keys_of_file])
            yield from self.ssd_backend.read_runs(runs)
        if tracer is not None:
            tracer.span_end("cache.get", t0, self.env.now, vm=vm_id,
                            pool=pool_id, keys=len(keys), hits=len(found),
                            mem_hits=mem_hits, ssd_hits=len(ssd_keys))
        return found

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        """Best-effort store of clean evicted blocks; returns #stored."""
        pool = self.engine.require_pool(vm_id, pool_id)
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
            if tracer is not None:
                if self._obs_label is not None:
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
        pool_used = pool.used
        entitlement = pool.entitlement
        remove = pool.remove_key
        insert = pool.insert
        make_room = self._make_room
        ssd_backend = self.ssd_backend
        # Admission is consulted only for SSD-destined keys; with no
        # controller configured the hook costs one hoisted None-check per
        # batch, keeping the disabled path byte-identical to the
        # pre-endurance data path.  Nothing yields inside the loop, so
        # the clock is constant and hoisted for the time-based policies.
        admission = pool.admission
        now = self.env.now
        # The common case, one pass: a fixed-store batch of new keys that
        # fits as is needs no eviction, replacement, unit accounting
        # (memory) or admission and backpressure (SSD).  Any other batch
        # runs the per-block loop, which does all of them.
        n = len(keys)
        fits = (
            fixed_kind is not None and n > 0
            and self.used[fixed_kind] + n <= self.capacities[fixed_kind]
            and (self.mem_units is None if fixed_kind is MEMORY
                 else admission is None and ssd_backend is not None
                 and ssd_backend.has_room(n))
            and pool.insert_new(keys, fixed_kind)
        )
        if fits:
            stored = n
            if fixed_kind is MEMORY:
                mem_stores = n
            else:
                assert ssd_backend is not None
                ssd_backend.enqueue_write(n)
                stats.ssd_writes += n
        for key in () if fits else keys:
            inode, block = key
            # Duplicate put: drop the stale copy before making room for
            # the new one.
            remove(key)
            kind = fixed_kind
            if kind is None:  # hybrid spills to SSD past the memory share
                kind = MEMORY if pool_used[MEMORY] < entitlement[MEMORY] else SSD
            if kind is SSD and admission is not None and not admission.admit(key, now):
                stats.put_rejected_admission += 1
                continue
            if not make_room(kind, 1):
                stats.put_rejected_capacity += 1
                continue
            if kind is SSD:
                assert ssd_backend is not None
                if not ssd_backend.enqueue_write(1):
                    stats.put_rejected_backpressure += 1
                    continue
                stats.ssd_writes += 1
            insert(inode, block, kind)
            if kind is MEMORY:
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
                # reports those in its own instant).
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
        pool = self.engine.require_pool(vm_id, pool_id)
        mem_keys, ssd_keys = pool.remove_many(keys)
        dropped = len(mem_keys) + len(ssd_keys)
        # ``flushes`` counts blocks actually dropped (same as flush_inode);
        # ``flush_requests`` counts blocks the guest asked about, so the
        # miss rate of flushes stays observable without skewing drop stats.
        pool.stats.flush_requests += len(keys)
        pool.stats.flushes += dropped
        return dropped

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        pool = self.engine.require_pool(vm_id, pool_id)
        dropped = sum(pool.remove_inode(inode).values())
        # ``flush_requests`` uses the same *requested* semantics as
        # flush_many: the guest passes the file's block count via
        # ``nblocks`` so whole-file flushes report asks, not drops.  When
        # the caller doesn't know the file size, the resident count is
        # the only request size observable here.
        requested = dropped if nblocks is None else nblocks
        pool.stats.flush_requests += requested
        pool.stats.flushes += dropped
        return dropped

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        """Re-home one file's cached blocks between two pools of one VM.

        Only the key mapping changes; block data stays where it is, so the
        operation is metadata-only (as in the paper's MIGRATE_OBJECT).
        Self-migration is a no-op (a remove/insert cycle would reset the
        blocks' FIFO residence order, making them artificially youngest).
        A block the target already holds replaces the target's copy (the
        pools release and charge the memory units as blocks move).
        Blocks whose current store the target policy gives zero weight are
        rejected — they stay in the source pool — so migration cannot
        manufacture the stranded-block class ``_evict_round`` guards
        against.  Rejections are counted into the source pool's
        ``migrated_rejected`` (and the ``migrate`` instant),
        so a partial migration is distinguishable from a full one.
        """
        source = self.engine.require_pool(vm_id, from_pool)
        target = self.engine.require_pool(vm_id, to_pool)
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
            tracer.instant("migrate", self.env.now, vm=vm_id, pool=from_pool,
                           cache=self._obs_label, from_pool=from_pool,
                           to_pool=to_pool, inode=inode, moved=moved,
                           rejected=rejected)
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def vm_used_blocks(self, vm_id: int, kind: Optional[StoreKind] = None) -> int:
        vm = self.engine.require_vm(vm_id)
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

    @property
    def mem_physical_mb(self) -> float:
        """Real memory consumed by the store (after compression/dedup)."""
        units = self.mem_units
        blocks = (self.used[StoreKind.MEMORY] if units is None
                  else units.used / units.granularity)
        return blocks * self.block_bytes / MB

    def _admission_name(self, policy: CachePolicy) -> Optional[str]:
        """The admission-policy name ``policy`` resolves to: per-pool
        ``CachePolicy.admission``, else ``DDConfig.admission``."""
        return policy.admission or self.config.admission

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
        )

    def _make_room(self, kind: StoreKind, need: int) -> bool:
        """Ensure ``need`` (0 or 1) free blocks in store ``kind``; False on
        failure.  ``need=0`` evicts down to a shrunk capacity."""
        if need > self.capacities[kind]:
            return False
        over, evict = self._room[kind, need]
        return self.engine.make_room(kind, self._eviction_batch, over, evict)

    def _room_callbacks(
        self, kind: StoreKind, need: int,
    ) -> Tuple[Callable[[], bool], Callable[[EvictionRound], int]]:
        """The ``over`` / ``evict`` pair :meth:`PolicyEngine.make_room`
        runs for ``need`` blocks of store ``kind``.

        With compression or dedup the memory store is checked in units
        (worst-case charge per incoming block) so both genuinely increase
        the number of blocks that fit."""
        mem_units = self.mem_units
        if kind is StoreKind.MEMORY and mem_units is not None:
            gran = mem_units.granularity
            over = lambda: (mem_units.used + need * gran
                            > self.capacities[kind] * gran)
        else:
            over = lambda: self.used[kind] + need > self.capacities[kind]
        return over, lambda selection: self._evict_round(kind, selection)

    def _evict_round(self, kind: StoreKind, selection: EvictionRound) -> int:
        """Evict one round's batch FIFO from its victim pool; returns the
        blocks freed.

        The round drains the whole batch even once the request fits (the
        service's ``_evict_batch`` stops there instead).  The selection
        itself (candidate enumeration by occupancy, Algorithm-1 scoring,
        the fallback rules) is :meth:`PolicyEngine.select_eviction`'s;
        this driver owns trickle-down and tracing for the evicted blocks;
        ``pop_oldest`` moves the occupancy counts and memory units.
        """
        batch = self._eviction_batch
        pool = selection.victim_pool
        evicted = 0
        trickle: List[BlockKey] = []
        while evicted < batch and pool.used[kind] > 0:
            key = pool.pop_oldest(kind)
            if key is None:
                break
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
            tracer = _obs.ACTIVE
            if tracer is not None and self._obs_label is not None:
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
        return evicted

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
            pool.stats.ssd_writes += 1
        if tracer is not None and self._obs_label is not None:
            written = pool.stats.ssd_writes - writes0
            rejected = pool.stats.trickle_rejected_admission - rejected0
            tracer.instant("trickle.down", self.env.now, vm=pool.vm_id,
                           pool=pool.pool_id, cache=self._obs_label,
                           candidates=len(keys), written=written,
                           rejected_admission=rejected)
