"""Shadow accounting: cross-layer invariant auditing and reference models.

Multi-level virtualized caches live or die on exact partition accounting.
This module provides the correctness tooling that catches bookkeeping
drift mechanically instead of by luck:

* :func:`check_cache` / :func:`assert_consistent` — recompute ground
  truth from first principles (pool FIFO lengths vs ``pool.used`` vs
  the file index vs the block-slab ``kind`` plane vs ``manager.used``
  vs memory units / dedup refcounts vs backend occupancy vs freshly
  recomputed entitlements) and report every cross-layer inconsistency.  Works on :class:`DoubleDeckerCache`
  and both baselines; side-effect free, so it can run mid-simulation.
* :func:`start_periodic_audit` — a simulation process that re-audits a
  cache every N simulated seconds.  Wired up automatically by
  ``DDConfig.audit_interval`` (per cache) or
  :func:`set_audit_interval` (globally, used by the experiment CLI's
  ``--audit`` flag).
* :class:`ReferenceCache` / :class:`ReferenceGlobalCache` /
  :class:`ReferenceStaticCache` — brute-force dict-based re-implementations
  of the three cache semantics (plain dicts and lists, no slab, no
  hoisted hot loops, no timing).  Differential tests drive the production
  cache and its reference with the same op stream and require *identical*
  results, occupancy, FIFO order, and counters.

Auditing is safe at any event boundary: the data-path generators only
yield at points where the accounting they touched is already consistent.

The dedup placement contract: the memory store's dedup index keys
placements by ``(vm_id, inode, block)``, which is unique because each VM
has one filesystem (one inode space).  The auditor asserts this
uniqueness whenever dedup is enabled — violating it (by driving the
manager directly with colliding inodes across pools of one VM) would
silently corrupt unit accounting, and is reported instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .config import CachePolicy, DDConfig, StoreKind
from .optimizations import content_fingerprint
from .policy import recompute_entitlements
from .pools import CODE_OF as _CODE_OF
from .pools import KIND_OF as _CODE_KINDS
from .pools import BlockKey
from ..endurance import default_admission
from ..storage import MB

__all__ = [
    "InvariantViolation",
    "check_cache",
    "check_host",
    "assert_consistent",
    "assert_host_clean",
    "set_audit_interval",
    "global_audit_interval",
    "start_periodic_audit",
    "ReferenceCache",
    "ReferenceGlobalCache",
    "ReferenceStaticCache",
]

_MEMORY = StoreKind.MEMORY
_SSD = StoreKind.SSD
_KINDS = (_MEMORY, _SSD)


class InvariantViolation(AssertionError):
    """Raised by :func:`assert_consistent` with the full violation report."""


# ----------------------------------------------------------------------
# Global audit switch (the CLI's --audit flag and the pytest fixture)
# ----------------------------------------------------------------------

_global_interval = 0.0


def set_audit_interval(seconds: float) -> None:
    """Globally opt every *subsequently constructed* cache into periodic
    self-auditing (0 turns the default back off).  Per-cache
    ``DDConfig.audit_interval`` takes precedence when set."""
    global _global_interval
    if seconds < 0:
        raise ValueError(f"audit interval must be non-negative, got {seconds}")
    _global_interval = float(seconds)


def global_audit_interval() -> float:
    """The interval installed by :func:`set_audit_interval` (0 = off)."""
    return _global_interval


def start_periodic_audit(env, cache, interval: float):
    """Run :func:`assert_consistent` on ``cache`` every ``interval``
    simulated seconds; returns the auditing process."""
    if interval <= 0:
        raise ValueError(f"audit interval must be positive, got {interval}")

    def loop():
        while True:
            yield env.timeout(interval)
            assert_consistent(cache, where=f"t={env.now:.1f}s")

    name = getattr(cache, "name", type(cache).__name__)
    return env.process(loop(), name=f"audit:{name}")


# ----------------------------------------------------------------------
# The invariant checker
# ----------------------------------------------------------------------

def check_cache(cache) -> List[str]:
    """Audit ``cache``; returns a list of violation descriptions (empty =
    consistent).  Dispatches on the cache implementation; caches with no
    shared accounting (e.g. ``NullCache``) audit trivially clean."""
    from .baselines import _PoolTableCache
    from .cache_manager import DoubleDeckerCache

    if isinstance(cache, DoubleDeckerCache):
        return _check_doubledecker(cache)
    if isinstance(cache, _PoolTableCache):
        return _check_pool_table(cache)
    return []


def assert_consistent(cache, where: str = "") -> None:
    """Raise :class:`InvariantViolation` listing every violated invariant."""
    violations = check_cache(cache)
    if violations:
        header = f"cache audit failed ({where})" if where else "cache audit failed"
        body = "\n".join(f"  - {violation}" for violation in violations)
        raise InvariantViolation(f"{header}:\n{body}")


def check_host(host) -> List[str]:
    """Host-level residue audit: destroyed VMs must leave zero residue.

    Checks (duck-typed so :mod:`repro.core` needs no hypervisor import):

    * the hypervisor cache knows exactly the host's live VMs — a
      destroyed VM's registration (pools, FIFO slabs, dedup charges)
      must be gone, a live one's must exist;
    * every cached per-VM RNG stream belongs to a live VM — the
      ``vm.<name>.reclaim`` entry is dropped with the VM;
    * virtual-disk address space is conserved: live VMs plus the
      free-list of retired region bases account for every region the
      allocator ever handed out, with no base issued twice.

    Includes a full :func:`check_cache` of the installed cache, so a
    create/destroy churn loop can assert the whole stack in one call.
    """
    violations = check_cache(host.hvcache)
    live_ids = {vm.vm_id for vm in host.vms.values()}
    registered = getattr(host.hvcache, "vms", None)
    if isinstance(registered, dict):
        ghost = sorted(set(registered) - live_ids)
        missing = sorted(live_ids - set(registered))
        if ghost:
            violations.append(
                f"hypervisor cache still registers destroyed vm ids {ghost}"
            )
        if missing:
            violations.append(
                f"live vm ids {missing} missing from the hypervisor cache"
            )
    live_names = set(host.vms)
    for stream_name in host.streams._streams:
        if not stream_name.startswith("vm."):
            continue
        owner = stream_name[3:].rsplit(".", 1)[0]
        if owner not in live_names:
            violations.append(
                f"RNG stream {stream_name!r} survives its destroyed VM"
            )
    live_bases = {vm.disk_base_block for vm in host.vms.values()}
    free_bases = set(host._free_disk_bases)
    if len(host._free_disk_bases) != len(free_bases):
        violations.append("virtual-disk free list holds duplicate bases")
    if live_bases & free_bases:
        violations.append(
            f"virtual-disk bases {sorted(live_bases & free_bases)} are "
            f"both live and on the free list"
        )
    if len(live_bases) + len(free_bases) != host._vm_count:
        violations.append(
            f"virtual-disk regions leak: {host._vm_count} allocated but "
            f"{len(live_bases)} live + {len(free_bases)} free"
        )
    return violations


def assert_host_clean(host, where: str = "") -> None:
    """Raise :class:`InvariantViolation` on any host-level residue."""
    violations = check_host(host)
    if violations:
        header = f"host audit failed ({where})" if where else "host audit failed"
        body = "\n".join(f"  - {violation}" for violation in violations)
        raise InvariantViolation(f"{header}:\n{body}")


def _check_pool_structures(pool, violations: List[str]) -> Dict[BlockKey, StoreKind]:
    """Pool-internal coherence: file index vs block slab vs FIFOs vs
    ``pool.used``.

    The pool's per-file dicts hold integer handles into the flat
    :class:`~repro.core.radix.BlockTable`; every handle must be in range,
    point at a live slot, and agree with the slot's recorded identity.
    FIFO walks are bounded by the slab size (via ``fifo_handles``), so a
    tampered link cycle shows up as a length mismatch instead of hanging
    the auditor.

    Returns the pool's index contents so callers can cross-check further.
    """
    label = f"pool {pool.pool_id} ({pool.name!r})"
    table = pool.table
    slots = len(table.kind)
    index: Dict[BlockKey, StoreKind] = {}
    seen_handles: Dict[int, BlockKey] = {}
    for inode, tree in pool.files.items():
        if not tree:
            violations.append(f"{label}: empty block index left behind for inode {inode}")
        for block, handle in tree.items():
            key = (inode, block)
            if not 0 <= handle < slots:
                violations.append(
                    f"{label}: index entry {key} holds out-of-range "
                    f"handle {handle} (slab has {slots} slots)"
                )
                continue
            code = table.kind[handle]
            if code == 0 or code >= len(_CODE_KINDS):
                violations.append(
                    f"{label}: index entry {key} points at slot {handle} "
                    f"with store code {code} (free or unknown)"
                )
                continue
            if table.inode[handle] != inode or table.block[handle] != block:
                violations.append(
                    f"{label}: slab slot {handle} records identity "
                    f"({table.inode[handle]}, {table.block[handle]}) but "
                    f"the index filed it under {key}"
                )
            other = seen_handles.get(handle)
            if other is not None:
                violations.append(
                    f"{label}: handle {handle} indexed twice "
                    f"({other} and {key})"
                )
            seen_handles[handle] = key
            index[key] = _CODE_KINDS[code]
    for kind in _KINDS:
        fifo = pool.fifos[kind]
        if len(fifo) != pool.used[kind]:
            violations.append(
                f"{label}: {kind} FIFO holds {len(fifo)} keys but "
                f"pool.used[{kind}] is {pool.used[kind]}"
            )
        if pool.used[kind] < 0:
            violations.append(f"{label}: negative pool.used[{kind}] = {pool.used[kind]}")
        for key in fifo:
            indexed = index.get(key)
            if indexed is not kind:
                violations.append(
                    f"{label}: FIFO key {key} in the {kind} queue but the "
                    f"block index says {indexed}"
                )
    fifo_total = sum(len(pool.fifos[kind]) for kind in _KINDS)
    if len(index) != fifo_total:
        violations.append(
            f"{label}: block index holds {len(index)} blocks but the FIFOs "
            f"hold {fifo_total}"
        )
    # Independent third record: sweep the slab's kind plane and compare
    # per-store occupancy against the pool's usage counters.
    occupancy = table.occupancy()
    for kind in _KINDS:
        code = _CODE_OF[kind]
        counted = occupancy[code] if code < len(occupancy) else 0
        if counted != pool.used[kind]:
            violations.append(
                f"{label}: slab sweep counts {counted} live {kind} slots "
                f"but pool.used[{kind}] is {pool.used[kind]}"
            )
    return index


def _check_registry(cache, violations: List[str]) -> None:
    """``_pools`` (the flat id map) must mirror the per-VM pool tables."""
    via_vms = {}
    for vm_id, vm in cache.vms.items():
        for pool_id, pool in vm.pools.items():
            via_vms[pool_id] = pool
            if pool.vm_id != vm_id:
                violations.append(
                    f"pool {pool_id} registered under VM {vm_id} but "
                    f"carries vm_id {pool.vm_id}"
                )
            if not pool.active:
                violations.append(f"pool {pool_id} is registered but inactive")
    if via_vms.keys() != cache._pools.keys():
        violations.append(
            f"pool registry mismatch: VMs know {sorted(via_vms)} but the "
            f"flat map knows {sorted(cache._pools)}"
        )
    for pool_id, pool in cache._pools.items():
        if via_vms.get(pool_id) is not pool:
            violations.append(f"pool {pool_id}: flat map and VM table disagree")


def _check_doubledecker(cache) -> List[str]:
    violations: List[str] = []
    _check_registry(cache, violations)

    # -- per-pool structures + per-store sums ---------------------------
    totals = {kind: 0 for kind in _KINDS}
    for pool in cache._pools.values():
        _check_pool_structures(pool, violations)
        for kind in _KINDS:
            totals[kind] += pool.used[kind]
    for kind in _KINDS:
        if cache.used[kind] != totals[kind]:
            violations.append(
                f"manager.used[{kind}] = {cache.used[kind]} but pools hold "
                f"{totals[kind]}"
            )
        if cache.used[kind] < 0:
            violations.append(f"negative manager.used[{kind}] = {cache.used[kind]}")

    # -- capacity bounds ------------------------------------------------
    if cache.used[_SSD] > cache.capacities[_SSD]:
        violations.append(
            f"SSD store over capacity: {cache.used[_SSD]} > "
            f"{cache.capacities[_SSD]} blocks"
        )
    if cache._mem_units_used > cache._mem_units_capacity:
        violations.append(
            f"memory store over capacity: {cache._mem_units_used} > "
            f"{cache._mem_units_capacity} units"
        )
    if cache.compression is None and cache.dedup is None:
        if cache.used[_MEMORY] > cache.capacities[_MEMORY]:
            violations.append(
                f"memory store over capacity: {cache.used[_MEMORY]} > "
                f"{cache.capacities[_MEMORY]} blocks"
            )

    # -- lending conservation -------------------------------------------
    # The effective store size must equal owned capacity adjusted by the
    # fleet coordinator's grants; outside a fleet all grants are zero and
    # this reduces to capacities == _base_capacity.
    for kind in _KINDS:
        lend_in = cache.lend_in[kind]
        lend_out = cache.lend_out[kind]
        expected = cache._base_capacity[kind] + lend_in - lend_out
        if cache.capacities[kind] != expected:
            violations.append(
                f"lending accounting broken for {kind}: effective capacity "
                f"{cache.capacities[kind]} != base "
                f"{cache._base_capacity[kind]} + in {lend_in} - out {lend_out}"
            )
        if lend_in < 0 or lend_out < 0 or lend_out > cache._base_capacity[kind]:
            violations.append(
                f"lend grants out of range for {kind}: in {lend_in}, "
                f"out {lend_out} of base {cache._base_capacity[kind]}"
            )

    # -- memory units / dedup ground truth ------------------------------
    resident: List[Tuple[int, int, int]] = []
    for pool in cache._pools.values():
        for inode, block in pool.fifos[_MEMORY]:
            resident.append((pool.vm_id, inode, block))
    fingerprint = cache._fingerprint
    compression = cache.compression

    def units_of(fp: int) -> int:
        return 1 if compression is None else compression.charged_units(fp)

    dedup = cache.dedup
    if dedup is None:
        expected_units = sum(
            units_of(fingerprint(vm_id, inode, block))
            for vm_id, inode, block in resident
        )
    else:
        if len(set(resident)) != len(resident):
            duplicated = [key for key, count in Counter(resident).items() if count > 1]
            violations.append(
                "dedup placement contract violated: (inode, block) keys "
                f"cached twice within one VM: {sorted(duplicated)[:5]}"
            )
        placed = set(dedup._placed)
        if placed != set(resident):
            missing = sorted(set(resident) - placed)[:5]
            stale = sorted(placed - set(resident))[:5]
            violations.append(
                f"dedup index out of sync: missing={missing} stale={stale}"
            )
        if dedup.logical_blocks != len(resident):
            violations.append(
                f"dedup logical_blocks = {dedup.logical_blocks} but "
                f"{len(resident)} blocks are memory-resident"
            )
        recomputed = Counter(
            fingerprint(vm_id, inode, block) for vm_id, inode, block in set(resident)
        )
        if dict(recomputed) != dedup._refcounts:
            violations.append(
                f"dedup refcounts diverge from recomputed fingerprints "
                f"({len(dedup._refcounts)} tracked vs {len(recomputed)} recomputed)"
            )
        expected_units = sum(units_of(fp) for fp in recomputed)
    if cache._mem_units_used != expected_units:
        violations.append(
            f"_mem_units_used = {cache._mem_units_used} but ground truth "
            f"recomputes {expected_units} units"
        )

    # -- put-outcome ledger (endurance accounting) ----------------------
    # Every put is stored or lands in exactly one rejection bucket, so
    # admission/backpressure rejections can never be silently dropped.
    for pool in cache._pools.values():
        stats = pool.stats
        accounted = (
            stats.puts_stored
            + stats.put_rejected_policy
            + stats.put_rejected_capacity
            + stats.put_rejected_admission
            + stats.put_rejected_backpressure
        )
        if stats.puts != accounted:
            violations.append(
                f"pool {pool.pool_id} ({pool.name!r}): put ledger leaks — "
                f"{stats.puts} puts but {accounted} accounted "
                f"(stored {stats.puts_stored}, policy "
                f"{stats.put_rejected_policy}, capacity "
                f"{stats.put_rejected_capacity}, admission "
                f"{stats.put_rejected_admission}, backpressure "
                f"{stats.put_rejected_backpressure})"
            )
        admission = pool.admission
        if admission is not None:
            if admission.attempts != admission.admitted + admission.rejected:
                violations.append(
                    f"pool {pool.pool_id}: admission ledger leaks — "
                    f"{admission.attempts} attempts but "
                    f"{admission.admitted} admitted + "
                    f"{admission.rejected} rejected"
                )
            # The controller says no exactly when a put/trickle admission
            # rejection is recorded; the pool counters can only exceed the
            # live controller's if set_policy swapped in a fresh one.
            pool_rejects = (
                stats.put_rejected_admission + stats.trickle_rejected_admission
            )
            if pool_rejects < admission.rejected:
                violations.append(
                    f"pool {pool.pool_id}: admission controller counted "
                    f"{admission.rejected} rejections but the pool only "
                    f"recorded {pool_rejects}"
                )

    # -- SSD backend occupancy + write reconciliation -------------------
    backend = cache.ssd_backend
    if backend is not None:
        if not 0 <= backend.pending_blocks <= backend._buffer_capacity_blocks:
            violations.append(
                f"SSD write buffer occupancy out of bounds: "
                f"{backend.pending_blocks} of {backend._buffer_capacity_blocks}"
            )
        if backend.writes_enqueued != backend.blocks_written + backend.pending_blocks:
            violations.append(
                f"SSD write buffer leaks blocks: {backend.writes_enqueued} "
                f"enqueued but {backend.blocks_written} written + "
                f"{backend.pending_blocks} pending"
            )
        pool_writes = sum(
            pool.stats.ssd_writes for pool in cache._pools.values()
        ) + cache._ssd_writes_destroyed
        if pool_writes != backend.writes_enqueued:
            violations.append(
                f"per-pool SSD writes do not reconcile with the store: "
                f"pools enqueued {pool_writes} blocks but the backend "
                f"counted {backend.writes_enqueued}"
            )
        device = backend.device
        wear = device.wear
        if wear is not None:
            if wear.host_bytes_written != device.stats.bytes_written:
                violations.append(
                    f"wear model out of sync with device stats: "
                    f"{wear.host_bytes_written} wear bytes vs "
                    f"{device.stats.bytes_written} device bytes written"
                )
        if device.stats.bytes_written != device.stats.blocks_written * device.block_bytes:
            violations.append(
                f"device byte/block counters diverge: "
                f"{device.stats.bytes_written} bytes vs "
                f"{device.stats.blocks_written} blocks x {device.block_bytes}"
            )

    # -- store-counter ledger (per-kind monotone counters) --------------
    # Every StoreStats counter reconciles against the per-pool ledger or
    # an internal shape invariant, so drift in the per-store aggregates
    # is caught exactly like drift in the pool counters (DD014).
    store_counters = cache.store_counters
    for kind in _KINDS:
        counters = store_counters[kind]
        # A round is counted only when it evicted at least one block.
        if counters.evictions < counters.eviction_rounds:
            violations.append(
                f"{counters.kind} store: {counters.eviction_rounds} "
                f"eviction rounds but only {counters.evictions} evictions "
                f"(every counted round evicts at least one block)"
            )
        if counters.evictions > 0 and counters.eviction_rounds == 0:
            violations.append(
                f"{counters.kind} store: {counters.evictions} evictions "
                f"recorded outside any eviction round"
            )
        if (counters.rejected_admission + counters.rejected_backpressure
                > counters.rejected_puts):
            violations.append(
                f"{counters.kind} store: rejection sub-buckets exceed "
                f"rejected_puts ({counters.rejected_admission} admission + "
                f"{counters.rejected_backpressure} backpressure > "
                f"{counters.rejected_puts})"
            )
    store_evictions = sum(store_counters[kind].evictions for kind in _KINDS)
    pool_evictions = sum(
        pool.stats.evictions for pool in cache._pools.values()
    ) + cache._evictions_destroyed
    if store_evictions != pool_evictions:
        violations.append(
            f"per-store evictions do not reconcile with the pools: "
            f"stores counted {store_evictions} but pools recorded "
            f"{pool_evictions}"
        )
    store_rejected = sum(store_counters[kind].rejected_puts for kind in _KINDS)
    pool_rejected = sum(
        pool.stats.put_rejected_policy
        + pool.stats.put_rejected_capacity
        + pool.stats.put_rejected_admission
        + pool.stats.put_rejected_backpressure
        for pool in cache._pools.values()
    ) + cache._put_rejected_destroyed
    if store_rejected != pool_rejected:
        violations.append(
            f"per-store rejected_puts do not reconcile with the pool "
            f"put-outcome ledger: stores counted {store_rejected} but "
            f"pools recorded {pool_rejected}"
        )
    store_rejected_admission = sum(
        store_counters[kind].rejected_admission for kind in _KINDS)
    pool_rejected_admission = sum(
        pool.stats.put_rejected_admission for pool in cache._pools.values()
    ) + cache._put_rejected_admission_destroyed
    if store_rejected_admission != pool_rejected_admission:
        violations.append(
            f"per-store rejected_admission does not reconcile: stores "
            f"counted {store_rejected_admission} but pools recorded "
            f"{pool_rejected_admission}"
        )
    store_rejected_backpressure = sum(
        store_counters[kind].rejected_backpressure for kind in _KINDS)
    pool_rejected_backpressure = sum(
        pool.stats.put_rejected_backpressure for pool in cache._pools.values()
    ) + cache._put_rejected_backpressure_destroyed
    if store_rejected_backpressure != pool_rejected_backpressure:
        violations.append(
            f"per-store rejected_backpressure does not reconcile: stores "
            f"counted {store_rejected_backpressure} but pools recorded "
            f"{pool_rejected_backpressure}"
        )

    # -- entitlement freshness (shadow recompute, then restore) ---------
    pool_snapshot = {
        (pool.pool_id, kind): pool.entitlement[kind]
        for pool in cache._pools.values()
        for kind in _KINDS
    }
    try:
        expected_vm = recompute_entitlements(cache.vms, cache.capacities)
        if expected_vm != cache._vm_entitlements:
            violations.append(
                "stale VM entitlements: a configuration change was not "
                "followed by _recompute()"
            )
        for pool in cache._pools.values():
            for kind in _KINDS:
                stale = pool_snapshot[(pool.pool_id, kind)]
                if pool.entitlement[kind] != stale:
                    violations.append(
                        f"pool {pool.pool_id}: stale {kind} entitlement "
                        f"{stale}, recompute gives {pool.entitlement[kind]}"
                    )
    finally:
        # The auditor must be side-effect free even when it finds drift.
        for pool in cache._pools.values():
            for kind in _KINDS:
                pool.entitlement[kind] = pool_snapshot[(pool.pool_id, kind)]

    # -- decision-provenance ledger (observability cross-check) ---------
    # Two independent records of the same ops: the tracer's per-pool
    # provenance ledger must equal the shadow-accounted pool counters.
    from ..obs import tracer as _obs
    tracer = _obs.ACTIVE
    if tracer is not None:
        violations.extend(_obs.ledger_violations(tracer, cache))

    return violations


def _check_pool_table(cache) -> List[str]:
    """Shared checks for the memory-backed baselines."""
    from .baselines import GlobalCache

    violations: List[str] = []
    _check_registry(cache, violations)
    total = 0
    indexes: Dict[int, Dict[BlockKey, StoreKind]] = {}
    for pool in cache._pools.values():
        index = _check_pool_structures(pool, violations)
        indexes[pool.pool_id] = index
        if pool.used[_SSD]:
            violations.append(
                f"pool {pool.pool_id}: baseline caches are memory-backed "
                f"but {pool.used[_SSD]} SSD blocks are recorded"
            )
        total += len(pool)
    if cache.used_blocks != total:
        violations.append(
            f"used_blocks = {cache.used_blocks} but pools hold {total}"
        )
    if not 0 <= cache.used_blocks <= max(0, cache.capacity_blocks):
        violations.append(
            f"used_blocks = {cache.used_blocks} outside "
            f"[0, {cache.capacity_blocks}]"
        )
    if isinstance(cache, GlobalCache):
        live_fifo = 0
        for pool_id, inode, block in cache._fifo:
            index = indexes.get(pool_id)
            if index is None:
                continue  # stale entry of a destroyed pool (tolerated)
            live_fifo += 1
            if (inode, block) not in index:
                violations.append(
                    f"global FIFO entry ({pool_id}, {inode}, {block}) "
                    f"missing from its pool"
                )
        if live_fifo != total:
            violations.append(
                f"global FIFO tracks {live_fifo} live blocks but pools "
                f"hold {total} — untracked blocks can never be evicted"
            )
    return violations


# ----------------------------------------------------------------------
# Reference models (brute-force, dict-based, no timing)
# ----------------------------------------------------------------------

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
    an independent re-statement of :func:`repro.core.victim.get_victim`."""
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
    reject (differential harnesses should configure the production cache
    with a large ``ssd_write_buffer_mb`` so both sides agree).
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
        self._base_capacity: Dict[StoreKind, int] = dict(self.capacities)
        self.lend_in: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
        self.lend_out: Dict[StoreKind, int] = {_MEMORY: 0, _SSD: 0}
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
        self._base_capacity[kind] = int(capacity_mb * MB) // self.block_bytes
        self._apply_capacity(kind)

    def set_lending(self, kind: StoreKind, lend_in: int = 0,
                    lend_out: int = 0) -> None:
        if lend_in < 0 or lend_out < 0:
            raise ValueError("lend grants must be non-negative")
        if lend_in and lend_out:
            raise ValueError("a store cannot lend and borrow simultaneously")
        if lend_out > self._base_capacity[kind]:
            raise ValueError("cannot lend more than the owned capacity")
        if (lend_in == self.lend_in[kind]
                and lend_out == self.lend_out[kind]):
            return
        self.lend_in[kind] = lend_in
        self.lend_out[kind] = lend_out
        self._apply_capacity(kind)

    def _apply_capacity(self, kind: StoreKind) -> None:
        self.capacities[kind] = (
            self._base_capacity[kind]
            + self.lend_in[kind] - self.lend_out[kind]
        )
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
        old_name = pool.policy.admission or self.config.admission or default_admission()
        new_name = policy.admission or self.config.admission or default_admission()
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
        name = policy.admission or self.config.admission or default_admission()
        if not name:
            return None
        if self.config.admission_ghost_mb > 0:
            ghost_blocks = max(
                1, int(self.config.admission_ghost_mb * MB) // self.block_bytes
            )
        else:
            ghost_blocks = max(1, self.capacities[_SSD])
        return _RefAdmission(name, ghost_blocks)

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
        capacity = self.capacities[kind]
        if capacity <= 0:
            return False
        guard = 0
        if kind is _MEMORY:
            need_units = need * self._gran
            while self._units_used + need_units > self._units_capacity:
                if not self._evict_round(kind):
                    return False
                guard += 1
                if guard > capacity:
                    return False
            return True
        while self.used[kind] + need > capacity:
            if not self._evict_round(kind):
                return False
            guard += 1
            if guard > capacity:
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
