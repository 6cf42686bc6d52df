"""Shadow accounting: cross-layer invariant auditing.

Multi-level virtualized caches live or die on exact partition accounting.
This module provides the correctness tooling that catches bookkeeping
drift mechanically instead of by luck:

* :func:`check_cache` / :func:`assert_consistent` — recompute ground
  truth from first principles (pool FIFO lengths vs ``pool.used`` vs
  the file index vs the engine's store totals (``manager.used``, which
  ``Pool`` alone writes) vs ``mem_units`` (the pools charge it) / dedup
  refcounts vs backend occupancy vs freshly recomputed entitlements) and
  report every cross-layer inconsistency.  Works on :class:`DoubleDeckerCache`
  and both baselines; side-effect free, so it can run mid-simulation.
* :func:`start_periodic_audit` — a simulation process that re-audits a
  cache every N simulated seconds.  Wired up automatically for every
  cache built while :func:`set_audit_interval` is on (the experiment
  CLI's ``--audit`` flag, the test fixture, ``bench``).

The brute-force reference models the differential suite compares the
caches against (``ReferenceCache`` and the two baselines' twins) are test
oracles and live in ``tests/support/reference_models.py``.

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

import math
from collections import Counter
from typing import Dict, List, Tuple

from .config import StoreKind
from .policy import recompute_entitlements
from .pools import BlockKey
from .stats import put_ledger_problems

__all__ = [
    "InvariantViolation",
    "check_cache",
    "check_host",
    "assert_consistent",
    "assert_host_clean",
    "set_audit_interval",
    "global_audit_interval",
    "start_periodic_audit",
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
    self-auditing (0 turns it back off)."""
    global _global_interval
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(
            f"audit interval must be finite and non-negative, got {seconds}")
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
      destroyed VM's registration (pools, FIFOs, dedup charges)
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
    """Pool-internal coherence: file index vs FIFOs vs ``pool.used``.

    Together these checks prove that the index and the FIFOs describe one
    block set.  Every FIFO key must be indexed under the FIFO's own store,
    so no key sits in both FIFOs and each maps into the index; an
    ``OrderedDict`` cannot hold a key twice; and the FIFO totals must
    equal both the index size and ``pool.used``, so nothing is indexed
    without being queued.

    Returns the pool's index contents so callers can cross-check further.
    """
    label = f"pool {pool.pool_id} ({pool.name!r})"
    index: Dict[BlockKey, StoreKind] = {}
    for inode, tree in pool.files.items():
        if not tree:
            violations.append(f"{label}: empty block index left behind for inode {inode}")
        for block, kind in tree.items():
            index[(inode, block)] = kind
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
    units = cache.mem_units
    if units is None:
        if cache.used[_MEMORY] > cache.capacities[_MEMORY]:
            violations.append(
                f"memory store over capacity: {cache.used[_MEMORY]} > "
                f"{cache.capacities[_MEMORY]} blocks"
            )
    else:
        capacity = cache.capacities[_MEMORY] * units.granularity
        if units.used > capacity:
            violations.append(
                f"memory store over capacity: {units.used} > {capacity} units")
        # -- memory units / dedup ground truth --------------------------
        resident: List[Tuple[int, int, int]] = []
        for pool in cache._pools.values():
            for inode, block in pool.fifos[_MEMORY]:
                resident.append((pool.vm_id, inode, block))
        fingerprint = units.fingerprint
        compression = units.compression

        def units_of(fp: int) -> int:
            return 1 if compression is None else compression.charged_units(fp)

        dedup = units.dedup
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
        if units.used != expected_units:
            violations.append(
                f"mem_units.used = {units.used} but ground truth "
                f"recomputes {expected_units} units"
            )

    # -- put-outcome ledger (endurance accounting) ----------------------
    for pool in cache._pools.values():
        stats = pool.stats
        violations.extend(put_ledger_problems(stats))
        # Lookup / flush / migration ledger.  No counter runs backwards; a
        # lookup hits at most what it asked for and a flush drops at most
        # what it asked about; and a block leaves the pool (exclusive hit,
        # flush, eviction, migration out) or still sits in it only after
        # entering by a stored put, a trickle-down write or a migration
        # in.  The flow bound is loose by design: ``ssd_writes`` also
        # counts SSD-destined puts, and a re-put of a resident block
        # drops the old copy uncounted.  (``migrate_objects`` adds each
        # moved block to the source's ``migrated_out`` and the target's
        # ``migrated_in`` alike; ``migrated_rejected`` counts blocks it
        # left where they were, which no other counter mirrors, so it
        # gets the sign check alone.)
        for field in ("gets", "get_hits", "flush_requests", "flushes",
                      "migrated_in", "migrated_out", "migrated_rejected"):
            value = getattr(stats, field)
            if value < 0:
                violations.append(
                    f"pool {pool.pool_id} ({pool.name!r}): counter "
                    f"{field} = {value} ran backwards"
                )
        if stats.get_hits > stats.gets:
            violations.append(
                f"pool {pool.pool_id} ({pool.name!r}): {stats.get_hits} "
                f"hits out of only {stats.gets} lookups"
            )
        if stats.flushes > stats.flush_requests:
            violations.append(
                f"pool {pool.pool_id} ({pool.name!r}): flushes dropped "
                f"{stats.flushes} blocks but only {stats.flush_requests} "
                f"were asked about"
            )
        entered = stats.puts_stored + stats.ssd_writes + stats.migrated_in
        left = (stats.get_hits + stats.flushes + stats.evictions
                + stats.migrated_out)
        if left + len(pool) > entered:
            violations.append(
                f"pool {pool.pool_id} ({pool.name!r}): block flow leaks — "
                f"{left} blocks left (hits {stats.get_hits}, flushes "
                f"{stats.flushes}, evictions {stats.evictions}, migrated "
                f"out {stats.migrated_out}) and {len(pool)} reside, but "
                f"only {entered} ever entered (stored {stats.puts_stored}, "
                f"SSD writes {stats.ssd_writes}, migrated in "
                f"{stats.migrated_in})"
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

    # -- entitlement freshness (shadow recompute, then restore) ---------
    pool_snapshot = {
        (pool.pool_id, kind): pool.entitlement[kind]
        for pool in cache._pools.values()
        for kind in _KINDS
    }
    try:
        expected_vm = recompute_entitlements(cache.vms, cache.capacities)
        if expected_vm != cache.engine.vm_entitlements:
            violations.append(
                "stale VM entitlements: a configuration change was not "
                "followed by engine.recompute()"
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
    used = cache.engine.used[_MEMORY]
    if used != total:
        violations.append(f"used_blocks = {used} but pools hold {total}")
    if not 0 <= used <= max(0, cache.capacity_blocks):
        violations.append(
            f"used_blocks = {used} outside [0, {cache.capacity_blocks}]"
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
