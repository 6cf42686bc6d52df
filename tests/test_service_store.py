"""DiskStore: semantics, enumerated crash points, kill-and-restart safety."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

from repro.service import DiskStore, ServiceCache, SetStatus
from repro.service import store as store_module
from repro.service.check import check_service
from repro.service.store import INLINE_BYTES, LAYOUT_VERSION

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SMALL = b"s" * INLINE_BYTES            # the largest value kept in its row
LARGE = b"L" * (INLINE_BYTES + 1)      # the smallest kept as a blob file


class DiskStoreBasicsTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(self._tmp.cleanup)
        self.addCleanup(self.store.close)

    def test_set_get_round_trip(self):
        for value in (b"", b"hello", SMALL, LARGE, b"x" * 100_000):
            entry_id = self.store.set("t0", f"k{len(value)}", value, flags=7)
            self.assertEqual(self.store.get(entry_id, len(value)), value)
            self.assertEqual(os.path.exists(self.store._blob_path(entry_id)),
                             len(value) > INLINE_BYTES)
        flags = {entry.key: entry.flags for entry in self.store.iter_entries()}
        self.assertEqual(set(flags.values()), {7})

    def test_tenants_are_disjoint_namespaces(self):
        zero_id = self.store.set("t0", "k", b"zero")
        one_id = self.store.set("t1", "k", b"one")
        self.assertEqual(self.store.get(zero_id, 4), b"zero")
        self.assertEqual(self.store.get(one_id, 3), b"one")
        self.store.delete_entry(zero_id, 4)
        self.assertIsNone(self.store.get(zero_id, 4))
        self.assertEqual(self.store.get(one_id, 3), b"one")

    def test_replace_allocates_new_id_and_drops_old_blob(self):
        first = self.store.set("t0", "k", LARGE)
        second = self.store.set("t0", "k", LARGE + b"!",
                                replaces=(first, len(LARGE)))
        self.assertGreater(second, first)
        self.assertEqual(self.store.get(second, len(LARGE) + 1), LARGE + b"!")
        self.assertFalse(os.path.exists(self.store._blob_path(first)))
        self.assertEqual(self.store.count(), 1)

    def test_iter_entries_in_fifo_id_order(self):
        for i in range(5):
            self.store.set("t0", f"k{i}", b"x" * (i + 1))
        ids = [entry.entry_id for entry in self.store.iter_entries()]
        self.assertEqual(ids, sorted(ids))
        sizes = [entry.size for entry in self.store.iter_entries()]
        self.assertEqual(sizes, [1, 2, 3, 4, 5])

    def test_tenant_bytes_accounting(self):
        self.store.set("t0", "a", b"x" * 10)
        self.store.set("t0", "b", b"x" * 3000)
        self.store.set("t1", "a", b"x" * 5)
        self.assertEqual(self.store.tenant_bytes(), {"t0": 3010, "t1": 5})

    def test_delete_entries_is_one_statement_for_the_whole_batch(self):
        victims = [(self.store.set("t0", f"k{i}", value), len(value))
                   for i, value in enumerate((SMALL, LARGE, b"", LARGE))]
        keep = self.store.set("t0", "keep", LARGE)
        statements = []
        self.store._db.set_trace_callback(statements.append)
        self.store.delete_entries(victims)
        self.store._db.set_trace_callback(None)
        self.assertEqual(len(statements), 1, statements)
        self.assertEqual([e.entry_id for e in self.store.iter_entries()],
                         [keep])
        self.assertEqual(os.listdir(os.path.join(self._tmp.name, "data")),
                         [f"{keep}.val"])

    def test_ids_are_never_reused_across_a_restart(self):
        ids = [self.store.set("t0", f"k{i}", b"v") for i in range(5)]
        for entry_id in ids[-2:]:       # delete the newest: max(id) is now 3
            self.store.delete_entry(entry_id, 1)
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertGreater(self.store.set("t0", "again", b"v"), max(ids))


# -- crash points -----------------------------------------------------------

class Crash(Exception):
    """Raised by the injector where a power cut would stop the process."""


class Boundaries:
    """Counts ``DiskStore``'s calls across its two boundaries — SQLite
    ``execute`` and the file calls ``open``/``write``/``fsync``/``unlink``
    — and raises :class:`Crash` when the ``crash_at``-th one has happened.
    A crash at a ``write`` lands mid-call: half the bytes reach the file.
    """

    def __init__(self, store, crash_at=None):
        self.crash_at = crash_at
        self.trace = []
        self._real_db = store._db
        store._db = self
        self._patches = [
            mock.patch.object(store_module, "open", self._open, create=True),
            mock.patch.object(store_module.os, "fsync", self._wrap(os.fsync)),
            mock.patch.object(store_module.os, "unlink", self._wrap(os.unlink)),
        ]

    def __enter__(self):
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self._patches:
            patch.stop()
        self._real_db.close()

    def hit(self, name):
        self.trace.append(name)
        if len(self.trace) == self.crash_at:
            raise Crash(f"after boundary {self.crash_at} ({name})")

    def _wrap(self, call):
        def wrapped(*args):
            call(*args)
            self.hit(call.__name__)
        return wrapped

    def execute(self, *args):
        cursor = self._real_db.execute(*args)
        self.hit("execute")
        return cursor

    def _open(self, path, mode):
        blob = open(path, mode)
        try:
            self.hit("open")
        except Crash:
            blob.close()
            raise
        return _TornBlob(blob, self.hit)


class _TornBlob:
    def __init__(self, blob, hit):
        self._blob, self._hit = blob, hit

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._blob.close()

    def write(self, data):
        self._blob.write(data[:len(data) // 2])
        self._blob.flush()
        self._hit("write")
        self._blob.write(data[len(data) // 2:])

    def __getattr__(self, name):
        return getattr(self._blob, name)


def tiny_cache(directory):
    """Eight 4 KiB blocks, fsync on (so ``fsync`` is a boundary too)."""
    return ServiceCache(DiskStore(directory, sync_writes=True),
                        capacity_mb=8 * 4096 / (1 << 20),
                        eviction_batch_mb=4 * 4096 / (1 << 20))


class CrashPointTests(unittest.TestCase):
    """Kill the store after the n-th boundary, for every n of an
    operation; the reopened service must be consistent, hold every
    acknowledged entry it was not asked to drop, and serve no stale
    value — the in-flight operation alone may or may not have happened.
    """

    BASE = {"a": SMALL, "b": LARGE, "c": b"", "d": LARGE * 2, "e": SMALL}

    #: name -> (operation, keys it may remove, {key: value it may write})
    SCENARIOS = {
        "set small": (lambda c: c.set("t0", "new", SMALL, 3),
                      (), {"new": SMALL}),
        # The first set of a process also commits the next id lease.
        "set small after reopen": (lambda c: c.set("t0", "new", SMALL, 3),
                                   (), {"new": SMALL}),
        "set large": (lambda c: c.set("t0", "new", LARGE, 3),
                      (), {"new": LARGE}),
        "overwrite large with large": (
            lambda c: c.set("t0", "b", LARGE + b"2", 3), (), {"b": LARGE + b"2"}),
        "overwrite large with small": (
            lambda c: c.set("t0", "d", SMALL, 3), (), {"d": SMALL}),
        "overwrite small with large": (
            lambda c: c.set("t0", "a", LARGE, 3), (), {"a": LARGE}),
        "delete small": (lambda c: c.delete("t0", "a"), ("a",), {}),
        "delete large": (lambda c: c.delete("t0", "d"), ("d",), {}),
        # 6 blocks needed, 3 free of 8: FIFO-evicts a, b, c in one batch.
        "eviction batch": (lambda c: c.set("t0", "big", b"B" * 24_000, 3),
                           ("a", "b", "c"), {"big": b"B" * 24_000}),
        "flush_all": (lambda c: c.flush_all("t0"), tuple(BASE), {}),
    }

    def prepare(self, directory, scenario):
        cache = tiny_cache(directory)
        for key, value in self.BASE.items():
            self.assertEqual(cache.set("t0", key, value, 1), SetStatus.STORED)
        if scenario.endswith("after reopen"):
            cache.close()
            cache = tiny_cache(directory)
        return cache

    def test_every_boundary_of_every_operation(self):
        for name, (operate, may_remove, may_write) in self.SCENARIOS.items():
            with tempfile.TemporaryDirectory() as tmp:
                cache = self.prepare(tmp, name)
                with Boundaries(cache.store) as dry_run:
                    operate(cache)
            self.assertGreater(len(dry_run.trace), 0, name)
            for crash_at in range(1, len(dry_run.trace) + 1):
                where = f"{name}: crash after boundary {crash_at} of " \
                        f"{dry_run.trace}"
                with tempfile.TemporaryDirectory() as tmp:
                    cache = self.prepare(tmp, name)
                    with Boundaries(cache.store, crash_at), \
                            self.assertRaises(Crash, msg=where):
                        operate(cache)
                    self.verify(tmp, may_remove, may_write, where)

    def verify(self, directory, may_remove, may_write, where):
        cache = tiny_cache(directory)
        self.addCleanup(cache.close)
        self.assertEqual(check_service(cache), [], where)
        removed, written = [], []
        for key in {**self.BASE, **may_write}:
            found = cache.get("t0", key)
            old = (self.BASE[key], 1) if key in self.BASE else None
            new = (may_write[key], 3) if key in may_write else None
            if found is None:
                if old is not None:
                    self.assertIn(key, may_remove,
                                  f"{where}: acknowledged {key!r} is lost")
                    removed.append(key)
            elif found[:2] == new:
                written.append(key)
            else:
                self.assertEqual(found[:2], old,
                                 f"{where}: {key!r} is stale or foreign")
        # One DELETE retires a batch — all of it went or none of it — and
        # room is made before the value that needs it is committed.
        self.assertIn(sorted(removed), ([], sorted(may_remove)), where)
        if written:
            self.assertEqual(sorted(removed), sorted(may_remove), where)
        self.assertEqual(
            cache.store.count(),
            len(self.BASE) - len(removed) + len(set(written) - set(self.BASE)),
            where)

    def test_the_boundaries_are_the_protocol_the_docstring_states(self):
        expected = {
            "set small": ["execute"],
            "set small after reopen": ["execute", "execute"],
            "set large": ["open", "write", "fsync", "execute"],
            "overwrite large with large":
                ["open", "write", "fsync", "execute", "unlink"],
            "delete large": ["execute", "unlink"],
            "eviction batch":
                ["execute", "unlink", "open", "write", "fsync", "execute"],
            "flush_all": ["execute", "unlink", "unlink"],
        }
        for name, trace in expected.items():
            with tempfile.TemporaryDirectory() as tmp:
                cache = self.prepare(tmp, name)
                with Boundaries(cache.store) as boundaries:
                    self.SCENARIOS[name][0](cache)
            self.assertEqual(boundaries.trace, trace, name)


class CrashStateRecoveryTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def test_orphan_blob_is_swept(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        kept = store.set("t0", "k", LARGE)
        orphan = os.path.join(self._tmp.name, "data", f"{kept + 1}.val")
        with open(orphan, "wb") as blob:
            blob.write(b"torn")
        store.close()

        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertEqual(reopened.recovered_orphans, 1)
        self.assertFalse(os.path.exists(orphan))
        self.assertEqual(reopened.get(kept, len(LARGE)), LARGE)

    def test_foreign_files_in_data_dir_are_left_alone(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        keep = os.path.join(self._tmp.name, "data", "README.txt")
        with open(keep, "w") as fh:
            fh.write("not a blob")
        store.close()
        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertTrue(os.path.exists(keep))
        self.assertEqual(reopened.recovered_orphans, 0)

    def test_older_layout_is_refused_loudly_and_left_untouched(self):
        os.makedirs(os.path.join(self._tmp.name, "data"))
        path = os.path.join(self._tmp.name, "meta.db")
        old = sqlite3.connect(path)
        old.execute(
            "CREATE TABLE entries (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "tenant TEXT NOT NULL, key TEXT NOT NULL, flags INTEGER NOT NULL "
            "DEFAULT 0, size INTEGER NOT NULL, ready INTEGER NOT NULL "
            "DEFAULT 0, UNIQUE (tenant, key))")
        old.execute("INSERT INTO entries (tenant, key, size, ready) "
                    "VALUES ('t0', 'k', 1, 1)")
        old.commit()
        old.close()
        with self.assertRaises(RuntimeError) as caught:
            DiskStore(self._tmp.name, sync_writes=False)
        self.assertIn("layout version 0", str(caught.exception))
        self.assertIn(f"version {LAYOUT_VERSION} only", str(caught.exception))
        old = sqlite3.connect(path)
        self.addCleanup(old.close)
        self.assertEqual(
            old.execute("SELECT tenant, key FROM entries").fetchall(),
            [("t0", "k")])

    def test_recovery_ops_log_line_counts_orphans_and_nothing_else(self):
        os.makedirs(os.path.join(self._tmp.name, "data"))
        with open(os.path.join(self._tmp.name, "data", "7.val"), "wb") as blob:
            blob.write(b"orphan")
        ops_log = os.path.join(self._tmp.name, "ops.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--dir",
             self._tmp.name, "--no-fsync", "--ops-log", ops_log],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            self.assertIn(b"listening", proc.stdout.readline())
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            proc.stdout.close()
        with open(ops_log) as fh:
            events = [json.loads(line) for line in fh]
        recovery = [e for e in events if e["event"] == "store.recovery"]
        self.assertEqual(len(recovery), 1)
        self.assertEqual(
            {k: v for k, v in recovery[0].items() if k not in ("t_ns", "dir")},
            {"event": "store.recovery", "orphans": 1})


_KILL_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.service import DiskStore, ServiceCache
cache = ServiceCache(DiskStore({directory!r}, sync_writes=False),
                     capacity_mb=1.0)
print("ready", flush=True)
i = 0
while True:
    cache.set("t%d" % (i % 2), "key%d" % (i % 997), b"v" * (64 + i * 37 % 9000))
    i += 1
"""


class KillAndRestartTests(unittest.TestCase):
    """SIGKILL a writer mid-stream; the survivor state must be clean."""

    def test_store_survives_sigkill_mid_write_stream(self):
        with tempfile.TemporaryDirectory() as tmp:
            script = _KILL_WRITER.format(src=REPO_SRC, directory=tmp)
            proc = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            try:
                self.assertEqual(proc.stdout.readline().strip(), b"ready")
                time.sleep(0.5)  # sets, overwrites and eviction batches
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                proc.stdout.close()
                proc.stderr.close()

            cache = ServiceCache(DiskStore(tmp, sync_writes=False),
                                 capacity_mb=1.0)
            self.addCleanup(cache.close)
            entries = list(cache.store.iter_entries())
            self.assertGreater(len(entries), 10,
                               "writer died before doing real work")
            # Rows, blobs, index and pool accounting all agree, and every
            # survivor reads back at its recorded size.
            self.assertEqual(check_service(cache), [])
            ids = [entry.entry_id for entry in entries]
            self.assertEqual(ids, sorted(set(ids)))
            for entry in entries:
                value, _, entry_id = cache.get(entry.tenant, entry.key)
                self.assertEqual((len(value), entry_id),
                                 (entry.size, entry.entry_id))

    def test_recovery_is_idempotent(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            for i in range(10):
                store.set("t0", f"k{i}", LARGE if i % 2 else SMALL)
            store.close()
            for _ in range(3):
                reopened = DiskStore(tmp, sync_writes=False)
                self.assertEqual(reopened.count(), 10)
                self.assertEqual(reopened.recovered_orphans, 0)
                reopened.close()


class ServiceCacheRecoveryTests(unittest.TestCase):
    """The cache layer rebuilds FIFO order and accounting from disk."""

    def test_restart_preserves_fifo_eviction_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            # Capacity of 8 blocks, 1-block values.
            cache = ServiceCache(store, capacity_mb=8 * 4096 / (1 << 20),
                                 block_bytes=4096,
                                 eviction_batch_mb=4096 / (1 << 20))
            for i in range(8):
                cache.set("t0", f"k{i}", b"v")
            cache.close()

            store = DiskStore(tmp, sync_writes=False)
            cache = ServiceCache(store, capacity_mb=8 * 4096 / (1 << 20),
                                 block_bytes=4096,
                                 eviction_batch_mb=4096 / (1 << 20))
            self.assertEqual(cache.used_blocks, 8)
            # The next insert must evict k0 — the oldest surviving entry
            # — proving the FIFO came back in pre-restart order.
            cache.set("t0", "fresh", b"v")
            self.assertIsNone(cache.get("t0", "k0"))
            self.assertIsNotNone(cache.get("t0", "k1"))
            self.assertIsNotNone(cache.get("t0", "fresh"))
            cache.close()


if __name__ == "__main__":
    unittest.main()
