"""Disk-backed value store: SQLite is the recovery log, not the index.

The layout follows python-diskcache (SNIPPETS.md 1–2): one SQLite row
per entry; a value of at most :data:`INLINE_BYTES` lives in the row's
``value`` column, a larger one in ``data/<id>.val`` so big bodies never
travel through the SQL layer.  The store is never asked *whether* a key
exists: :class:`~repro.service.cache.ServiceCache`'s index is the truth
while the process runs and addresses entries by id; the table is what
:meth:`iter_entries` rebuilds that index from after a restart.  A
``set`` is two steps:

1. Take a fresh id and, for a large value, write ``<id>.val`` (flush,
   ``fsync``).  Nothing references the id yet, so the path is private:
   no temporary name, no rename.
2. Commit **one** ``INSERT OR REPLACE`` carrying the id.  The ``UNIQUE
   (tenant, key)`` conflict retires an overwritten row in the same
   atomic statement; its blob is unlinked afterwards.

A row therefore exists only if its value is durable.  Deletion is one
``DELETE`` — one for a whole eviction batch or flush — and then the
unlinks.  A crash before step 2, or between a committed ``DELETE`` or
replace and its unlinks, leaves blobs no row references, and only
those; :meth:`recover` sweeps them.  SQLite runs in WAL mode, every
statement its own commit.

Entry ids strictly increase and are never reused, across restarts too:
they are leased :data:`_LEASE` at a time, the lease's high-water mark
commits before any id under it is used, and a reopened store starts
above it whatever was deleted since.  So a ``gets`` cas token never
comes to name another value, and id order is FIFO residence order.
"""

from __future__ import annotations

import os
import sqlite3
import time
from typing import (Callable, Dict, Iterator, NamedTuple, Optional, Sequence,
                    Tuple)

__all__ = ["DiskStore", "StoredEntry", "INLINE_BYTES", "LAYOUT_VERSION"]

#: Values up to this size are stored in their row, larger ones as files.
INLINE_BYTES = 1024
#: ``PRAGMA user_version`` of this layout (the pre-inline one never set it).
LAYOUT_VERSION = 2
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


class DiskStore:
    """Crash-safe persistent store of ``(tenant, key, flags, value)``
    entries addressed by id."""

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        self.directory = os.path.abspath(directory)
        self._data_dir = os.path.join(self.directory, "data")
        os.makedirs(self._data_dir, exist_ok=True)
        self._sync_writes = sync_writes
        self._db = sqlite3.connect(
            os.path.join(self.directory, "meta.db"),
            isolation_level=None,  # autocommit: one statement, one commit
            check_same_thread=False,
        )
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(
            "PRAGMA synchronous=" + ("FULL" if sync_writes else "NORMAL"))
        found = self._db.execute("PRAGMA user_version").fetchone()[0]
        if not self._db.execute(
                "SELECT COUNT(*) FROM sqlite_master").fetchone()[0]:
            self._db.executescript(_SCHEMA)
        elif found != LAYOUT_VERSION:
            self._db.close()
            raise RuntimeError(
                f"{self.directory} holds store layout version {found}; this "
                f"build reads and writes version {LAYOUT_VERSION} only and does "
                "not migrate: serve it with the build that wrote it")
        self._next_id = self._leased = self._db.execute(
            "SELECT high_water FROM lease").fetchone()[0] + 1
        self.recovered_orphans = 0
        #: Optional I/O timing hook, ``probe(op, t0_ns, t1_ns, nbytes)``,
        #: called once per data-path op with ``time.monotonic_ns`` stamps
        #: (see :func:`repro.obs.live.bind_store_probe`).  ``None`` keeps
        #: the data path one attribute read from the un-instrumented code.
        self.probe: Optional[Callable[[str, int, int, int], None]] = None
        self.recover()

    def recover(self) -> None:
        """Sweep the only debris a crash can leave: blobs no row uses."""
        live = {row[0] for row in self._db.execute(
            "SELECT id FROM entries WHERE value IS NULL").fetchall()}
        for name in sorted(os.listdir(self._data_dir)):
            stem, _, ext = name.partition(".")
            if ext == "val" and stem.isdigit() and int(stem) not in live:
                os.unlink(os.path.join(self._data_dir, name))
                self.recovered_orphans += 1

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
        inline = len(value) <= INLINE_BYTES
        if not inline:
            with open(self._blob_path(entry_id), "wb") as blob:
                blob.write(value)
                if self._sync_writes:
                    blob.flush()
                    os.fsync(blob.fileno())
        self._db.execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?)",
            (entry_id, tenant, key, flags, len(value),
             value if inline else None))
        if replaces is not None:
            self._unlink_blobs((replaces,))
        return entry_id

    def get(self, entry_id: int, size: int) -> Optional[bytes]:
        """The value of a committed entry of ``size`` bytes (``None`` if
        its row or blob has vanished behind the store's back)."""
        if self.probe is None:
            return self._get(entry_id, size)
        return self._probed("get", None, self._get, entry_id, size)

    def _get(self, entry_id: int, size: int) -> Optional[bytes]:
        if size <= INLINE_BYTES:
            row = self._db.execute("SELECT value FROM entries WHERE id = ?",
                                   (entry_id,)).fetchone()
            return row[0] if row is not None else None
        try:
            with open(self._blob_path(entry_id), "rb") as blob:
                return blob.read()
        except FileNotFoundError:
            return None

    def delete_entry(self, entry_id: int, size: int) -> None:
        """Delete one entry.  The row removal commits before the unlink:
        a crash in between leaves an orphan blob, never a blobless row."""
        if self.probe is None:
            return self._delete_entry(entry_id, size)
        self._probed("delete", 0, self._delete_entry, entry_id, size)

    def _delete_entry(self, entry_id: int, size: int) -> None:
        self._db.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
        self._unlink_blobs(((entry_id, size),))

    def delete_entries(self, victims: Sequence[Tuple[int, int]]) -> None:
        """Delete ``(id, size)`` entries — an eviction batch, a flush —
        with one statement and one unlink sweep (same crash rule)."""
        if self.probe is None:
            return self._delete_entries(victims)
        self._probed("delete", 0, self._delete_entries, victims)

    def _delete_entries(self, victims: Sequence[Tuple[int, int]]) -> None:
        for start in range(0, len(victims), 10_000):  # SQL length limit
            ids = ",".join(str(entry_id) for entry_id, _
                           in victims[start:start + 10_000])
            self._db.execute(f"DELETE FROM entries WHERE id IN ({ids})")
        self._unlink_blobs(victims)

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
        self._db.close()

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

    def _blob_path(self, entry_id: int) -> str:
        return os.path.join(self._data_dir, f"{entry_id}.val")

    def _unlink_blobs(self, entries: Sequence[Tuple[int, int]]) -> None:
        for entry_id, size in entries:
            if size > INLINE_BYTES:
                try:
                    os.unlink(self._blob_path(entry_id))
                except FileNotFoundError:
                    pass
