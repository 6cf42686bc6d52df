"""First-principles consistency checker for the live cache service.

:func:`check_service` is to :class:`~repro.service.cache.ServiceCache`
what :func:`repro.core.audit.check_cache` is to the simulated caches:
it trusts no counter and recomputes every quantity from the structures
that are supposed to agree —

* the index: ``_ids`` and ``_entries`` are inverse maps;
* the policy side: every entry's blocks sit in its tenant's pool FIFO,
  contiguous and in id order; ``pool.used`` and ``used_blocks`` equal
  the recounted block sums and stay within capacity;
* the disk side, read straight from ``meta.db`` and ``data.slab``
  rather than through :class:`~repro.service.store.DiskStore` methods:
  one row per entry with the same identity and size; every row's value
  in its ``value`` column or in the slab run its ``slot`` column names,
  never both, readable at exactly the recorded size; no two runs
  overlapping, none past the end of the file;
* the store's allocation state against the slot map recomputed from
  the rows alone: the same slots in use, the same id → slot map, and a
  file exactly as long as the map.

It is meant to run between operations (tests call it every N ops); a
store caught mid-``set`` is not a state it describes.
"""

from __future__ import annotations

import os
from typing import Dict, List

from ..core.config import StoreKind
from .store import SLOT_BYTES, slots_of

__all__ = ["check_service"]

_SSD = StoreKind.SSD


def check_service(cache) -> List[str]:
    """Audit ``cache``; returns violation descriptions (empty = clean)."""
    violations: List[str] = []
    entries = cache._entries

    # -- index -----------------------------------------------------------
    for (tenant, key), entry_id in cache._ids.items():
        entry = entries.get(entry_id)
        if entry is None or (entry[0], entry[1]) != (tenant, key):
            violations.append(
                f"_ids[{tenant!r}, {key!r}] -> {entry_id}, but _entries "
                f"has {entry and entry[:2]!r} there")
    if len(cache._ids) != len(entries):
        violations.append(f"{len(cache._ids)} keys in _ids but "
                          f"{len(entries)} entries in _entries")

    # -- pools -----------------------------------------------------------
    owed: Dict[str, int] = {}
    for entry_id, entry in entries.items():
        tenant, _, blocks, size = entry[:4]
        expected = max(1, -(-size // cache.block_bytes))
        if blocks != expected:
            violations.append(f"entry {entry_id}: {blocks} blocks recorded "
                              f"for {size} bytes, expected {expected}")
        owed[tenant] = owed.get(tenant, 0) + blocks
    for tenant in sorted(set(owed) - set(cache.tenants)):
        violations.append(f"entries of tenant {tenant!r} without a pool")
    for tenant, pool in sorted(cache.tenants.items()):
        runs: List[List[int]] = []          # [inode, blocks seen] in FIFO order
        for inode, block in pool.fifos[_SSD]:
            if runs and runs[-1][0] == inode and runs[-1][1] == block:
                runs[-1][1] += 1
            elif block == 0:
                runs.append([inode, 1])
            else:
                violations.append(f"pool {tenant!r}: block ({inode}, {block}) "
                                  "out of sequence in the FIFO")
        inodes = [inode for inode, _ in runs]
        if inodes != sorted(set(inodes)):
            violations.append(f"pool {tenant!r}: FIFO order is not id order")
        for inode, seen in runs:
            entry = entries.get(inode)
            if entry is None or entry[0] != tenant:
                violations.append(f"pool {tenant!r}: FIFO holds inode {inode} "
                                  "that is not an entry of this tenant")
            elif entry[2] != seen:
                violations.append(f"pool {tenant!r}: entry {inode} has {seen} "
                                  f"blocks queued, {entry[2]} recorded")
        queued = sum(seen for _, seen in runs)
        if not (queued == owed.get(tenant, 0) == pool.used[_SSD]):
            violations.append(
                f"pool {tenant!r}: {queued} blocks queued, {owed.get(tenant, 0)}"
                f" owed by its entries, pool.used says {pool.used[_SSD]}")
        if pool.used[StoreKind.MEMORY]:
            violations.append(f"pool {tenant!r}: blocks in the memory store")
    total = sum(owed.values())
    if total != cache.used_blocks:
        violations.append(f"used_blocks is {cache.used_blocks}, the entries "
                          f"add up to {total}")
    if total > cache.capacity_blocks:
        violations.append(f"{total} blocks used of {cache.capacity_blocks}")

    # -- disk ------------------------------------------------------------
    store = cache.store
    slab = os.open(os.path.join(store.directory, "data.slab"), os.O_RDONLY)
    try:
        slab_bytes = os.fstat(slab).st_size
        cursor = store._db.execute("SELECT * FROM entries ORDER BY id")
        columns = [column[0] for column in cursor.description]
        seen_ids = set()
        claimed: Dict[int, int] = {}        # slot -> id of the row claiming it
        first_slots: Dict[int, int] = {}    # id -> first slot, from the rows
        for values in cursor.fetchall():
            row = dict(zip(columns, values))
            entry_id, size = row["id"], row["size"]
            seen_ids.add(entry_id)
            entry = entries.get(entry_id)
            identity = (row["tenant"], row["key"], size)
            if entry is None:
                violations.append(f"row {entry_id} {identity!r} is not indexed")
            elif ((entry[0], entry[1], entry[3]) != identity
                  or entry[4] != row["flags"]):
                violations.append(f"row {entry_id} is {identity!r} flags "
                                  f"{row['flags']}, the index says {entry!r}")
            stored, slot = row["value"], row["slot"]
            if (stored is None) == (slot is None):
                violations.append(
                    f"row {entry_id} has " + ("neither an inline value nor "
                    "a slot" if slot is None else "an inline value and a slot"))
                continue
            if slot is not None:
                first_slots[entry_id] = slot
                run = range(slot, slot + slots_of(size))
                for at in run:
                    if claimed.setdefault(at, entry_id) != entry_id:
                        violations.append(f"rows {claimed[at]} and {entry_id} "
                                          f"overlap at slot {at}")
                        break
                if run.stop * SLOT_BYTES > slab_bytes:
                    violations.append(
                        f"row {entry_id}: slots {run.start}..{run.stop - 1} "
                        f"reach past the end of data.slab ({slab_bytes} bytes)")
                stored = os.pread(slab, size, slot * SLOT_BYTES)
            if len(stored) != size:
                violations.append(f"row {entry_id}: {len(stored)} bytes stored,"
                                  f" size column says {size}")
    finally:
        os.close(slab)
    for entry_id in sorted(set(entries) - seen_ids):
        violations.append(f"entry {entry_id} {entries[entry_id][:2]!r} "
                          "has no row")
    # The store's in-memory allocation state against the rows alone.
    used = store._map.used
    for at in sorted(set(claimed) | {at for at, taken in enumerate(used)
                                     if taken}):
        if at not in claimed:
            violations.append(f"slot {at} is marked used, no row claims it")
        elif at >= len(used) or not used[at]:
            violations.append(f"slot {at} is marked free, row {claimed[at]} "
                              "claims it")
    if store._slots != first_slots:
        odd = sorted(set(store._slots.items()) ^ set(first_slots.items()))
        violations.append(f"the store's id -> slot map and the rows disagree "
                          f"on {odd[:6]}")
    if slab_bytes != len(used) * SLOT_BYTES:
        violations.append(f"data.slab is {slab_bytes} bytes, the slot map "
                          f"spans {len(used)} slots of {SLOT_BYTES}")
    return violations
