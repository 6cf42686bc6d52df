"""Disk-backed value store: SQLite is the recovery log, not the index.

One SQLite row per entry.  A value of at most :data:`INLINE_BYTES`
lives in the row's ``value`` column; a larger one takes
``ceil(size / SLOT_BYTES)`` contiguous slots of the single file
``data.slab`` and the row's ``slot`` column names the first — cache
space addressed by block, as the paper's SSD store is, with no file,
inode or directory entry per value.  The store is never asked *whether*
a key exists: :class:`~repro.service.cache.ServiceCache`'s index is the
truth while the process runs and addresses entries by id; the table is
what :meth:`iter_entries` rebuilds that index from after a restart.
Which slots are free is memory only (:class:`SlotMap`), rebuilt from
the rows at open.  A ``set`` is two steps:

1. Take a fresh id and, for a large value, a free run (a hole of
   exactly its length if there is one, else the lowest that fits, else
   the end of the file) and write it there: one ``pwrite``, one
   ``fsync``.
2. Commit **one** ``INSERT OR REPLACE`` carrying id and slot.  The
   ``UNIQUE (tenant, key)`` conflict retires an overwritten row in the
   same atomic statement; only then is the old run marked free.

Deletion is one ``DELETE`` — one for a whole eviction batch or flush —
and then the runs are marked free, the file cut back when the last one
ended it.  The crash rule is **a slot is written only while no
committed row claims it**: a run becomes reusable after the statement
that removed its row has committed, never before.  A torn write can
therefore only damage bytes no row claims, a row exists only if its
value is durable, and a crash leaves no debris: :meth:`recover` marks
what the rows claim and cuts off what lies beyond.  SQLite runs in WAL
mode, every statement its own commit, and holds the database's file
lock for as long as the store is open — a directory has one server.

Entry ids strictly increase and are never reused, across restarts too:
they are leased :data:`_LEASE` at a time, the lease's high-water mark
commits before any id under it is used, and a reopened store starts
above it whatever was deleted since.  So a ``gets`` cas token never
comes to name another value, and id order is FIFO residence order.
"""

from __future__ import annotations

import errno
import os
import sqlite3
import time
from typing import (Callable, Dict, Iterator, NamedTuple, Optional, Sequence,
                    Tuple)

__all__ = ["DiskStore", "SlotMap", "StoredEntry", "slots_of", "INLINE_BYTES",
           "SLOT_BYTES", "LAYOUT_VERSION"]

#: Values up to this size are stored in their row, larger ones in the slab.
INLINE_BYTES = 1024
#: Allocation unit of ``data.slab``.
SLOT_BYTES = 4096
#: ``PRAGMA user_version`` of this layout (1 never existed; 2 kept each
#: large value in a file of its own under ``data/``).
LAYOUT_VERSION = 3
_LEASE = 1024  # ids per committed high-water mark: one UPDATE per 1024 sets

_SCHEMA = f"""
BEGIN;
CREATE TABLE entries (
    id INTEGER PRIMARY KEY,
    tenant TEXT NOT NULL,
    key TEXT NOT NULL,
    flags INTEGER NOT NULL,
    size INTEGER NOT NULL,
    value BLOB,
    slot INTEGER,
    UNIQUE (tenant, key)
);
CREATE TABLE lease (high_water INTEGER NOT NULL);
INSERT INTO lease VALUES (0);
PRAGMA user_version = {LAYOUT_VERSION};
COMMIT;
"""


class StoredEntry(NamedTuple):
    """Metadata of one committed value, as recovery iterates them."""
    entry_id: int
    tenant: str
    key: str
    flags: int
    size: int


def slots_of(size: int) -> int:
    """Slots a slab value of ``size`` bytes occupies."""
    return -(-size // SLOT_BYTES)


class SlotMap:
    """Which slots of the slab are taken: one byte each, 1 = in use.
    The map ends at the last slot in use, and so does the file."""

    def __init__(self) -> None:
        self.used = bytearray()

    def find(self, count: int) -> int:
        """First slot of a free run for ``count`` slots: the lowest hole
        of exactly that length between two slots in use, else the lowest
        run that fits, else the end of the map.  (Lowest fit alone lets
        small values nibble the holes large ones left and need again.)"""
        free = bytes(count)
        hole = self.used.find(b"\1" + free + b"\1")
        if hole >= 0:
            return hole + 1
        slot = self.used.find(free)
        return slot if slot >= 0 else len(self.used)

    def claim(self, slot: int, count: int) -> None:
        """Mark a run in use, growing the map to reach it."""
        used = self.used
        if slot + count > len(used):
            used.extend(bytes(slot + count - len(used)))
        used[slot:slot + count] = b"\1" * count

    def release(self, slot: int, count: int) -> None:
        """Mark a run free and drop the free slots that end the map."""
        used = self.used
        used[slot:slot + count] = bytes(count)
        if slot + count == len(used):
            del used[used.rfind(1) + 1:]


class DiskStore:
    """Crash-safe persistent store of ``(tenant, key, flags, value)``
    entries addressed by id."""

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._sync_writes = sync_writes
        self._db = sqlite3.connect(
            os.path.join(self.directory, "meta.db"),
            isolation_level=None,  # autocommit: one statement, one commit
            check_same_thread=False,
            timeout=0,  # the lock is held for good or not at all: never wait
        )
        try:
            self._db.execute("PRAGMA locking_mode=EXCLUSIVE")
            found = self._db.execute("PRAGMA user_version").fetchone()[0]
            fresh = not self._db.execute(
                "SELECT COUNT(*) FROM sqlite_master").fetchone()[0]
            if not fresh and found != LAYOUT_VERSION:
                raise RuntimeError(
                    f"{self.directory} holds store layout version {found}; "
                    f"this build reads and writes version {LAYOUT_VERSION} "
                    "only and does not migrate: serve it with the build that "
                    "wrote it")
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute(
                "PRAGMA synchronous=" + ("FULL" if sync_writes else "NORMAL"))
            if fresh:
                self._db.executescript(_SCHEMA)
            self._next_id = self._leased = self._db.execute(
                "SELECT high_water FROM lease").fetchone()[0] + 1
        except sqlite3.OperationalError as error:
            self._db.close()
            if error.sqlite_errorcode != sqlite3.SQLITE_BUSY:
                raise
            raise RuntimeError(
                f"{self.directory} is locked: another server (or an open "
                "sqlite3 shell) holds its meta.db, and a directory has one "
                "owner") from error
        except BaseException:
            self._db.close()
            raise
        self._slab = os.open(os.path.join(self.directory, "data.slab"),
                             os.O_RDWR | os.O_CREAT, 0o644)
        if sync_writes:  # the slab's directory entry: once, not per value
            handle = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(handle)
            finally:
                os.close(handle)
        #: Optional I/O timing hook, ``probe(op, t0_ns, t1_ns, nbytes)``,
        #: called once per data-path op with ``time.monotonic_ns`` stamps
        #: (see :func:`repro.obs.live.bind_store_probe`).  ``None`` keeps
        #: the data path one attribute read from the un-instrumented code.
        self.probe: Optional[Callable[[str, int, int, int], None]] = None
        self.recover()

    def recover(self) -> None:
        """Rebuild the slot map from the rows and cut off what a crash
        left beyond them (a torn append, a cut-back that never ran)."""
        self._map = SlotMap()
        #: id -> first slot of every slab-backed entry.
        self._slots: Dict[int, int] = {}
        for entry_id, slot, size in self._db.execute(
                "SELECT id, slot, size FROM entries "
                "WHERE value IS NULL").fetchall():
            self._map.claim(slot, slots_of(size))
            self._slots[entry_id] = slot
        self._cut_back()

    # -- data path ------------------------------------------------------

    def set(self, tenant: str, key: str, value: bytes, flags: int = 0,
            replaces: Optional[Tuple[int, int]] = None) -> int:
        """Store ``value`` under a fresh id and return the id.
        ``replaces`` is the ``(id, size)`` the caller's index holds for
        this key, if any: that row goes in the statement that commits
        the new one, so no crash point shows two values for a key, or
        none."""
        if self.probe is None:
            return self._set(tenant, key, value, flags, replaces)
        return self._probed("set", len(value), self._set,
                            tenant, key, value, flags, replaces)

    def _set(self, tenant, key, value, flags, replaces) -> int:
        entry_id = self._next_id
        if entry_id == self._leased:
            self._leased += _LEASE
            self._db.execute("UPDATE lease SET high_water = ?",
                             (self._leased - 1,))
        self._next_id += 1
        size = len(value)
        slot = None
        if size > INLINE_BYTES:
            count = slots_of(size)
            slot = self._map.find(count)
            if slot == len(self._map.used):
                # Appending: whole slots, so the file ends where the map does.
                value = value + bytes(count * SLOT_BYTES - size)
            if os.pwrite(self._slab, value, slot * SLOT_BYTES) != len(value):
                raise OSError(errno.ENOSPC, "short write to data.slab")
            if self._sync_writes:
                os.fsync(self._slab)
            value = None
        self._db.execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?, ?)",
            (entry_id, tenant, key, flags, size, value, slot))
        if slot is not None:
            self._map.claim(slot, count)
            self._slots[entry_id] = slot
        if replaces is not None:
            self._release((replaces,))
        return entry_id

    def get(self, entry_id: int, size: int) -> Optional[bytes]:
        """The value of a committed entry of ``size`` bytes (``None`` if
        its row has vanished behind the store's back, or the slab no
        longer holds all of it)."""
        if self.probe is None:
            return self._get(entry_id, size)
        return self._probed("get", None, self._get, entry_id, size)

    def _get(self, entry_id: int, size: int) -> Optional[bytes]:
        if size <= INLINE_BYTES:
            row = self._db.execute("SELECT value FROM entries WHERE id = ?",
                                   (entry_id,)).fetchone()
            return row[0] if row is not None else None
        slot = self._slots.get(entry_id)
        if slot is None:
            return None
        value = os.pread(self._slab, size, slot * SLOT_BYTES)
        return value if len(value) == size else None

    def delete_entry(self, entry_id: int, size: int) -> None:
        """Delete one entry.  The row removal commits before its slots
        can be handed out again."""
        if self.probe is None:
            return self._delete_entry(entry_id, size)
        self._probed("delete", 0, self._delete_entry, entry_id, size)

    def _delete_entry(self, entry_id: int, size: int) -> None:
        self._db.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
        self._release(((entry_id, size),))

    def delete_entries(self, victims: Sequence[Tuple[int, int]]) -> None:
        """Delete ``(id, size)`` entries — an eviction batch, a flush —
        with one statement, then free their slots (same crash rule)."""
        if self.probe is None:
            return self._delete_entries(victims)
        self._probed("delete", 0, self._delete_entries, victims)

    def _delete_entries(self, victims: Sequence[Tuple[int, int]]) -> None:
        for start in range(0, len(victims), 10_000):  # SQL length limit
            ids = ",".join(str(entry_id) for entry_id, _
                           in victims[start:start + 10_000])
            self._db.execute(f"DELETE FROM entries WHERE id IN ({ids})")
        self._release(victims)

    # -- accounting / recovery iteration --------------------------------

    def iter_entries(self) -> Iterator[StoredEntry]:
        """Committed entries in id order — FIFO residence order."""
        cur = self._db.execute(
            "SELECT id, tenant, key, flags, size FROM entries ORDER BY id")
        return map(StoredEntry._make, cur.fetchall())

    def tenant_bytes(self) -> Dict[str, int]:
        """Per-tenant committed bytes (size accounting)."""
        cur = self._db.execute(
            "SELECT tenant, SUM(size) FROM entries "
            "GROUP BY tenant ORDER BY tenant")
        return {tenant: total for tenant, total in cur.fetchall()}

    def count(self) -> int:
        """Number of committed entries."""
        return self._db.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def close(self) -> None:
        """Idempotent, as ``sqlite3``'s own ``close`` is."""
        self._db.close()
        if self._slab >= 0:
            os.close(self._slab)
            self._slab = -1

    # -- internals ------------------------------------------------------

    def _probed(self, op: str, nbytes: Optional[int], impl, *args):
        """Run ``impl(*args)`` and report its wall time to the probe.
        ``nbytes=None`` reports the size of the value a ``get`` found."""
        t0 = time.monotonic_ns()
        result = impl(*args)
        t1 = time.monotonic_ns()
        if nbytes is None:
            nbytes = len(result) if result is not None else 0
        self.probe(op, t0, t1, nbytes)
        return result

    def _release(self, entries: Sequence[Tuple[int, int]]) -> None:
        """Free the runs of ``(id, size)`` entries whose rows are gone."""
        before = len(self._map.used)
        for entry_id, size in entries:
            slot = self._slots.pop(entry_id, None)
            if slot is not None:
                self._map.release(slot, slots_of(size))
        if len(self._map.used) < before:
            self._cut_back()

    def _cut_back(self) -> None:
        """Truncate the slab to the map's span.  Never lengthen it: bytes
        a row claims that are not there must read short, not as zeros."""
        span = len(self._map.used) * SLOT_BYTES
        if os.fstat(self._slab).st_size > span:
            os.ftruncate(self._slab, span)
