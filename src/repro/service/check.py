"""First-principles consistency checker for the live cache service.

:func:`check_service` is to :class:`~repro.service.cache.ServiceCache`
what :func:`repro.core.audit.check_cache` is to the simulated caches:
it trusts no counter and recomputes every quantity from the structures
that are supposed to agree —

* the index: every tenant's FIFO queues its ids in id order, ``_ids``
  names each queued id once and nothing else, each under the tenant and
  key of its live ``PUT`` frame, every live frame is queued, and each
  queued block count is what the frame's size takes;
* the policy side: ``pool.used[SSD]`` is the block sum of the tenant's
  FIFO (the pool is told counts through ``pool.charge``, never blocks:
  ``pool.files``, ``pool.fifos`` and its memory store stay empty), the
  engine's store total ``engine.used[SSD]`` is the sum over tenants and
  stays within capacity, and every put was stored or rejected once
  (:func:`~repro.core.stats.put_ledger_problems`);
* the disk side, read straight from ``log/*.seg`` and ``data.slab``
  with a frame parser of its own (:func:`read_journal`) rather than
  through :class:`~repro.service.store.DiskStore` methods: one live
  ``PUT`` per entry with the same identity and size; every value whole
  in its frame or in the slab run its frame names; no two runs
  overlapping, none past the end of the file; every segment whole and
  opening with a ``LEASE``; the journal within its reclaim budget;
* the store's memory against the frames alone: the same slots in use,
  the same record per id (its first slot included), the same per-tenant
  and byte counters, and a slab exactly as long as the slot map.

It is meant to run between operations (tests call it every N ops); a
store caught mid-``set`` is not a state it describes.

``python -m repro.service.check DIR`` is the offline inspector: it takes
a *stopped* store's lock (a served directory answers "locked"), changes
nothing, prints what the directory holds and exits 1 on any violation of
the disk-side checks.
"""

from __future__ import annotations

import fcntl
import os
import struct
import sys
import zlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.config import StoreKind
from ..core.stats import put_ledger_problems
from .store import (INLINE_BYTES, LAYOUT_VERSION, SLOT_BYTES, log_budget,
                    slots_of)

__all__ = ["check_service", "read_journal", "main"]

_SSD = StoreKind.SSD


class Row(NamedTuple):
    """One live ``PUT`` frame, as the bytes of ``log/`` give it."""
    tenant: str
    key: str
    flags: int
    size: int
    slot: Optional[int]     # first slab slot; None: the value is in the frame
    inline: int             # ... and this many bytes of it are there
    segment: str            # path of the segment holding the frame
    at: int                 # offset of the frame in it
    length: int             # bytes of the frame, header included


class Journal(NamedTuple):
    rows: Dict[int, Row]                    # id -> its live PUT
    segments: List[Tuple[str, int, int]]    # path, bytes, live PUT bytes
    high_water: int                         # highest id leased
    torn: int                               # bytes after the last whole frame
    violations: List[str]


def read_journal(directory: str) -> Journal:
    """Re-derive the live rows from the segment bytes: frames are
    ``[u32 length][u32 crc32][payload]``, the payload's first byte is 1
    ``PUT`` (id u64, flags u64, size u32, slot u32, the value when slot
    is 0xFFFFFFFF, u16 tenant length, tenant, key), 2 ``DEL`` (ids, u64
    each) or 3 ``LEASE`` (version u8, high water u64); a ``DEL`` drops
    ids, the highest id of a (tenant, key) retires the lower ones, a
    repeated id takes the later frame."""
    log = os.path.join(directory, "log")
    names = sorted((name for name in os.listdir(log) if name.endswith(".seg")),
                   key=lambda name: int(name[:-4]))
    rows: Dict[int, Row] = {}
    newest: Dict[Tuple[str, str], int] = {}
    sizes: Dict[str, int] = {}
    violations: List[str] = []
    high_water = torn = 0
    for name in names:
        path = os.path.join(log, name)
        with open(path, "rb") as handle:
            data = handle.read()
        sizes[path] = len(data)
        at = 0
        while len(data) - at >= 8:
            length, crc = struct.unpack_from("<II", data, at)
            payload = data[at + 8:at + 8 + length]
            if not length or len(payload) < length \
                    or zlib.crc32(payload) != crc:
                break
            kind = payload[0]
            if at == 0 and kind != 3:
                violations.append(f"{path} does not open with a LEASE frame")
            if kind == 1:
                entry_id, flags, size, slot = struct.unpack_from(
                    "<QQII", payload, 1)
                inline = (len(payload[25:25 + size])
                          if slot == 0xFFFFFFFF else 0)
                rest = payload[25 + inline:]
                owner = rest[2:2 + int.from_bytes(rest[:2], "little")]
                tenant = owner.decode("utf-8", "backslashreplace")
                key = rest[2 + len(owner):].decode("utf-8", "backslashreplace")
                older = newest.get((tenant, key))
                if older is None or older <= entry_id:
                    newest[(tenant, key)] = entry_id
                    if older != entry_id:
                        rows.pop(older, None)
                    rows[entry_id] = Row(
                        tenant, key, flags, size,
                        None if slot == 0xFFFFFFFF else slot, inline,
                        path, at, 8 + length)
            elif kind == 2:
                for (entry_id,) in struct.iter_unpack("<Q", payload[1:]):
                    rows.pop(entry_id, None)
            elif kind == 3:
                version, mark = struct.unpack_from("<BQ", payload, 1)
                if version != LAYOUT_VERSION:
                    violations.append(f"{path} offset {at}: LEASE of layout "
                                      f"version {version}")
                high_water = max(high_water, mark)
            else:
                violations.append(f"{path} offset {at}: frame of unknown "
                                  f"kind {kind}")
            at += 8 + length
        if at < len(data):
            if name != names[-1]:
                violations.append(
                    f"{path} is damaged at offset {at}: {len(data) - at} "
                    "bytes of a sealed segment are not frames")
            else:
                torn = len(data) - at
    live = dict.fromkeys(sizes, 0)
    for row in rows.values():
        live[row.segment] += row.length
    for entry_id in sorted(rows):
        if entry_id > high_water:
            violations.append(f"row {entry_id} is above the lease "
                              f"high-water mark {high_water}")
    segments = [(path, sizes[path], live[path]) for path in sizes]
    total, alive = sum(sizes.values()), sum(live.values())
    if total > log_budget(alive):
        violations.append(
            f"log/ holds {total} bytes for {alive} live: over the reclaim "
            f"budget of {log_budget(alive)}")
    return Journal(rows, segments, high_water, torn, violations)


def _recount(rows: Dict[int, Row]) -> Dict[str, List[int]]:
    """tenant -> [entries, bytes of value], from the rows alone."""
    totals: Dict[str, List[int]] = {}
    for row in rows.values():
        account = totals.setdefault(row.tenant, [0, 0])
        account[0] += 1
        account[1] += row.size
    return totals


def _check_rows(rows: Dict[int, Row], slab: int,
                violations: List[str]) -> Dict[int, int]:
    """Every row's value against its size, every run against the others
    and the file.  Returns slot -> id of the row claiming it, from the
    rows alone."""
    slab_bytes = os.fstat(slab).st_size
    claimed: Dict[int, int] = {}
    for entry_id, row in sorted(rows.items()):
        size, slot, stored = row.size, row.slot, row.inline
        if (slot is None) != (size <= INLINE_BYTES):
            violations.append(
                f"row {entry_id} of {size} bytes is "
                + ("inline" if slot is None else f"in slot {slot}")
                + f": INLINE_BYTES is {INLINE_BYTES}")
        if slot is not None:
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
            stored = len(os.pread(slab, size, slot * SLOT_BYTES))
        if stored != size:
            violations.append(f"row {entry_id}: {stored} bytes stored,"
                              f" its frame says {size}")
    return claimed


def check_service(cache) -> List[str]:
    """Audit ``cache``; returns violation descriptions (empty = clean)."""
    violations: List[str] = []
    store = cache.store
    journal = read_journal(store.directory)
    rows = journal.rows
    violations.extend(journal.violations)

    # -- index -----------------------------------------------------------
    #: id -> the tenant queueing it, from the FIFOs alone.
    queued: Dict[int, str] = {}
    for tenant, fifo in sorted(cache._fifos.items()):
        if list(fifo) != sorted(fifo):
            violations.append(f"pool {tenant!r}: FIFO order is not id order")
        for entry_id, blocks in fifo.items():
            if entry_id in queued:
                violations.append(f"id {entry_id} is queued by tenants "
                                  f"{queued[entry_id]!r} and {tenant!r}")
            queued[entry_id] = tenant
            row = rows.get(entry_id)
            expected = None if row is None else max(1, slots_of(row.size))
            if expected not in (None, blocks):
                violations.append(f"entry {entry_id}: {blocks} blocks queued "
                                  f"for {row.size} bytes, expected {expected}")
    for (tenant, key), entry_id in sorted(cache._ids.items()):
        if queued.get(entry_id) != tenant:
            violations.append(
                f"_ids[{tenant!r}, {key!r}] -> {entry_id}, which tenant "
                f"{tenant!r} has not queued")
        row = rows.get(entry_id)
        if row is None:
            violations.append(f"entry {entry_id} {(tenant, key)!r} has no row")
        elif (row.tenant, row.key) != (tenant, key):
            violations.append(
                f"_ids[{tenant!r}, {key!r}] -> {entry_id}, whose row is "
                f"{(row.tenant, row.key)!r}")
    for entry_id in sorted(set(queued) - set(cache._ids.values())):
        violations.append(f"id {entry_id} is queued by tenant "
                          f"{queued[entry_id]!r}, no key in _ids names it")
    if len(cache._ids) != len(queued):
        violations.append(f"{len(cache._ids)} keys in _ids but "
                          f"{len(queued)} entries queued")
    for entry_id in sorted(set(rows) - set(queued)):
        row = rows[entry_id]
        violations.append(f"row {entry_id} {(row.tenant, row.key)!r} is "
                          "not indexed")

    # -- pools -----------------------------------------------------------
    if cache._fifos.keys() != cache.tenants.keys():
        violations.append(f"FIFOs of {sorted(cache._fifos)}, pools of "
                          f"{sorted(cache.tenants)}")
    total = 0
    for tenant, pool in sorted(cache.tenants.items()):
        blocks = sum(cache._fifos.get(tenant, {}).values())
        total += blocks
        if blocks != pool.used[_SSD]:
            violations.append(f"pool {tenant!r}: {blocks} blocks queued, "
                              f"pool.used says {pool.used[_SSD]}")
        # The service tells its pools counts, never blocks.
        if pool.files or pool.used[StoreKind.MEMORY]:
            violations.append(f"pool {tenant!r}: holds blocks of its own "
                              f"({len(pool.files)} inodes, "
                              f"{pool.used[StoreKind.MEMORY]} in memory)")
        violations.extend(put_ledger_problems(pool.stats))
    host_used = cache.engine.used[_SSD]
    if total != host_used:
        violations.append(f"used_blocks is {host_used}, the entries "
                          f"add up to {total}")
    if total > cache.capacity_blocks:
        violations.append(f"{total} blocks used of {cache.capacity_blocks}")

    # -- disk ------------------------------------------------------------
    if journal.torn:
        violations.append(f"{journal.torn} bytes after the last whole frame "
                          "of a store that is open")
    slab = os.open(os.path.join(store.directory, "data.slab"), os.O_RDONLY)
    try:
        slab_bytes = os.fstat(slab).st_size
        claimed = _check_rows(rows, slab, violations)
    finally:
        os.close(slab)
    # The store's memory against the frames alone.
    used = store._map.used
    for at in sorted(set(claimed) | {at for at, taken in enumerate(used)
                                     if taken}):
        if at not in claimed:
            violations.append(f"slot {at} is marked used, no row claims it")
        elif at >= len(used) or not used[at]:
            violations.append(f"slot {at} is marked free, row {claimed[at]} "
                              "claims it")
    if slab_bytes != len(used) * SLOT_BYTES:
        violations.append(f"data.slab is {slab_bytes} bytes, the slot map "
                          f"spans {len(used)} slots of {SLOT_BYTES}")
    paths = {segment.fd: segment.path for segment in store._segments}
    held = {entry_id: (entry.entry_id, paths.get(entry.fd), entry.at,
                       entry.length, entry.tenant, entry.key, entry.flags,
                       entry.size, entry.slot)
            for entry_id, entry in store._where.items()}
    framed = {entry_id: (entry_id, row.segment, row.at, row.length,
                         row.tenant, row.key, row.flags, row.size, row.slot)
              for entry_id, row in rows.items()}
    if held != framed:
        odd = sorted(set(held.items()) ^ set(framed.items()))
        violations.append(f"the store's id -> entry map and the frames "
                          f"disagree on {odd[:4]}")
    recount = _recount(rows)
    running = {tenant: account for tenant, account in store._tenants.items()
               if account != [0, 0]}
    if running != recount:
        violations.append(f"the store's tenant counters say {running}, the "
                          f"frames add up to {recount}")
    counted = (sum(size for _, size, _ in journal.segments),
               sum(live for _, _, live in journal.segments))
    if (store._log_bytes, store._live_bytes) != counted:
        violations.append(
            f"the store counts {store._log_bytes} log bytes and "
            f"{store._live_bytes} live, the segments hold {counted}")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    """Inspect the stopped store in ``argv[0]``; 0 if it is clean."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.service.check DIR", file=sys.stderr)
        return 2
    directory = os.path.abspath(argv[0])
    try:
        slab = os.open(os.path.join(directory, "data.slab"), os.O_RDONLY)
    except FileNotFoundError:
        print(f"{directory} holds no store of layout version "
              f"{LAYOUT_VERSION} (no data.slab)", file=sys.stderr)
        return 1
    try:
        try:
            fcntl.flock(slab, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"{directory} is locked: a server holds it; stop it, or "
                  "read `stats` / /metrics", file=sys.stderr)
            return 1
        journal = read_journal(directory)
        violations = list(journal.violations)
        claimed = _check_rows(journal.rows, slab, violations)
        slab_bytes = os.fstat(slab).st_size
    finally:
        os.close(slab)
    print(f"{directory}: layout {LAYOUT_VERSION}, {len(journal.rows)} entries, "
          f"ids leased up to {journal.high_water}")
    for tenant, (count, total) in sorted(_recount(journal.rows).items()):
        print(f"  tenant {tenant}: {count} entries, {total} bytes")
    for path, size, live in journal.segments:
        print(f"  log/{os.path.basename(path)}: {size} bytes, {live} live, "
              f"{size - live} dead")
    print(f"  torn tail: {journal.torn} bytes (cut off at the next open)")
    span = max(claimed) + 1 if claimed else 0
    print(f"  data.slab: {slab_bytes} bytes, {span} slots spanned, "
          f"{span - len(claimed)} free within, "
          f"{max(0, slab_bytes - span * SLOT_BYTES)} bytes beyond (cut off "
          "at the next open)")
    for line in violations:
        print(f"VIOLATION {line}")
    print(f"{len(violations)} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
