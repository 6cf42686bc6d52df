"""Disk-backed value store: SQLite metadata + one blob file per entry.

The layout follows python-diskcache (SNIPPETS.md 1–2): a small SQLite
database holds the metadata rows and the values live as individual files
next to it, so large bodies never travel through the SQL layer.  The
write protocol makes every state crash-recoverable without a journal of
its own:

1. ``INSERT`` the row with ``ready = 0`` and commit — the id allocated
   here names the blob file, so filenames need no randomness.
2. Write the blob to its final path, flush, ``fsync``.
3. ``UPDATE ... SET ready = 1`` and commit.

A crash between any two steps leaves either a ``ready = 0`` row (swept
at :meth:`recover`, its half-written blob unlinked) or a committed row
whose blob is already durable.  Deletion commits the row removal first
and unlinks after, so a crash can only leave an orphan blob — also swept
at recovery.  SQLite runs in WAL mode, giving readers-and-one-writer
process safety across server restarts and concurrent tools.

Entry ids are monotonically increasing and never reused, so iterating
rows in id order at recovery rebuilds the FIFO residence order the
eviction policy depends on.
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

__all__ = ["DiskStore", "StoredEntry"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant TEXT NOT NULL,
    key TEXT NOT NULL,
    flags INTEGER NOT NULL DEFAULT 0,
    size INTEGER NOT NULL,
    ready INTEGER NOT NULL DEFAULT 0,
    UNIQUE (tenant, key)
);
"""


@dataclass(frozen=True)
class StoredEntry:
    """Metadata of one committed value, as recovery iterates them."""

    entry_id: int
    tenant: str
    key: str
    flags: int
    size: int


class DiskStore:
    """Crash-safe persistent ``(tenant, key) -> bytes`` store."""

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        self.directory = os.path.abspath(directory)
        self._data_dir = os.path.join(self.directory, "data")
        os.makedirs(self._data_dir, exist_ok=True)
        self._sync_writes = sync_writes
        self._db = sqlite3.connect(
            os.path.join(self.directory, "meta.db"),
            isolation_level=None,  # explicit BEGIN/COMMIT below
            check_same_thread=False,
        )
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(
            "PRAGMA synchronous=" + ("FULL" if sync_writes else "NORMAL"))
        self._db.execute(_SCHEMA)
        self.recovered_rows = 0
        self.recovered_orphans = 0
        #: Optional I/O timing hook, ``probe(op, t0_ns, t1_ns, nbytes)``,
        #: called once per data-path op with ``time.monotonic_ns`` stamps
        #: (see :func:`repro.obs.live.bind_store_probe`).  ``None`` keeps
        #: the data path one attribute read from the un-instrumented code.
        self.probe: Optional[Callable[[str, int, int, int], None]] = None
        self.recover()

    # -- recovery -------------------------------------------------------

    def recover(self) -> None:
        """Sweep the debris a crash can leave: half-written rows first
        (with their blobs), then blobs no committed row references."""
        cur = self._db.execute("SELECT id FROM entries WHERE ready = 0")
        pending = [row[0] for row in cur.fetchall()]
        for entry_id in pending:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
            self._db.execute("COMMIT")
            self._unlink_quietly(self._blob_path(entry_id))
        self.recovered_rows += len(pending)

        live = {row[0] for row in
                self._db.execute("SELECT id FROM entries").fetchall()}
        for name in sorted(os.listdir(self._data_dir)):
            stem, _, ext = name.partition(".")
            if ext != "val" or not stem.isdigit():
                continue
            if int(stem) not in live:
                self._unlink_quietly(os.path.join(self._data_dir, name))
                self.recovered_orphans += 1

    # -- data path ------------------------------------------------------

    def set(self, tenant: str, key: str, value: bytes,
            flags: int = 0) -> int:
        """Store ``value``; returns the new entry id.

        Replacing an existing key deletes the old row in the same
        transaction that inserts the new one, so no crash point can show
        two committed values for one key.
        """
        if self.probe is None:
            return self._set(tenant, key, value, flags)
        return self._probed("set", len(value), self._set,
                            tenant, key, value, flags)

    def _set(self, tenant: str, key: str, value: bytes,
             flags: int = 0) -> int:
        old = self._row_of(tenant, key)
        self._db.execute("BEGIN IMMEDIATE")
        if old is not None:
            self._db.execute("DELETE FROM entries WHERE id = ?", (old[0],))
        cur = self._db.execute(
            "INSERT INTO entries (tenant, key, flags, size, ready) "
            "VALUES (?, ?, ?, ?, 0)",
            (tenant, key, flags, len(value)))
        entry_id = cur.lastrowid
        assert entry_id is not None
        self._db.execute("COMMIT")

        path = self._blob_path(entry_id)
        with open(path, "wb") as blob:
            blob.write(value)
            blob.flush()
            if self._sync_writes:
                os.fsync(blob.fileno())

        self._db.execute("BEGIN IMMEDIATE")
        self._db.execute(
            "UPDATE entries SET ready = 1 WHERE id = ?", (entry_id,))
        self._db.execute("COMMIT")
        if old is not None:
            self._unlink_quietly(self._blob_path(old[0]))
        return entry_id

    def get(self, tenant: str, key: str) -> Optional[Tuple[bytes, int, int]]:
        """``(value, flags, entry_id)`` of a committed key, else ``None``."""
        if self.probe is None:
            return self._get(tenant, key)
        return self._probed("get", None, self._get, tenant, key)

    def _get(self, tenant: str, key: str) -> Optional[Tuple[bytes, int, int]]:
        row = self._row_of(tenant, key, ready_only=True)
        if row is None:
            return None
        entry_id, flags = row
        try:
            with open(self._blob_path(entry_id), "rb") as blob:
                return (blob.read(), flags, entry_id)
        except FileNotFoundError:
            # Cannot happen under the write protocol; self-heal anyway.
            self.delete_entry(entry_id)
            return None

    def delete_entry(self, entry_id: int) -> None:
        """Delete one entry by id (the evictor's path).

        Row removal commits before the unlink: a crash in between leaves
        an orphan blob for :meth:`recover`, never a row without a blob.
        """
        if self.probe is None:
            return self._delete_entry(entry_id)
        self._probed("delete", 0, self._delete_entry, entry_id)

    def _delete_entry(self, entry_id: int) -> None:
        self._db.execute("BEGIN IMMEDIATE")
        self._db.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
        self._db.execute("COMMIT")
        self._unlink_quietly(self._blob_path(entry_id))

    # -- accounting / recovery iteration --------------------------------

    def iter_entries(self) -> Iterator[StoredEntry]:
        """Committed entries in id order — FIFO residence order."""
        cur = self._db.execute(
            "SELECT id, tenant, key, flags, size FROM entries "
            "WHERE ready = 1 ORDER BY id")
        for entry_id, tenant, key, flags, size in cur.fetchall():
            yield StoredEntry(entry_id, tenant, key, flags, size)

    def tenant_bytes(self) -> Dict[str, int]:
        """Per-tenant committed bytes (size accounting)."""
        cur = self._db.execute(
            "SELECT tenant, COALESCE(SUM(size), 0) FROM entries "
            "WHERE ready = 1 GROUP BY tenant ORDER BY tenant")
        return {tenant: total for tenant, total in cur.fetchall()}

    def count(self) -> int:
        """Number of committed entries."""
        cur = self._db.execute(
            "SELECT COUNT(*) FROM entries WHERE ready = 1")
        return int(cur.fetchone()[0])

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
            nbytes = len(result[0]) if result is not None else 0
        self.probe(op, t0, t1, nbytes)
        return result

    def _blob_path(self, entry_id: int) -> str:
        return os.path.join(self._data_dir, f"{entry_id}.val")

    def _row_of(self, tenant: str, key: str,
                ready_only: bool = False) -> Optional[Tuple[int, int]]:
        sql = "SELECT id, flags FROM entries WHERE tenant = ? AND key = ?"
        if ready_only:
            sql += " AND ready = 1"
        row = self._db.execute(sql, (tenant, key)).fetchone()
        return (row[0], row[1]) if row is not None else None

    @staticmethod
    def _unlink_quietly(path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
