"""DiskStore: semantics, crash-state recovery, kill-and-restart safety."""

import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import unittest

from repro.service import DiskStore, ServiceCache

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class DiskStoreBasicsTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(self._tmp.cleanup)
        self.addCleanup(self.store.close)

    def test_set_get_round_trip(self):
        entry_id = self.store.set("t0", "alpha", b"hello", flags=7)
        value, flags, got_id = self.store.get("t0", "alpha")
        self.assertEqual(value, b"hello")
        self.assertEqual(flags, 7)
        self.assertEqual(got_id, entry_id)

    def test_tenants_are_disjoint_namespaces(self):
        zero_id = self.store.set("t0", "k", b"zero")
        self.store.set("t1", "k", b"one")
        self.assertEqual(self.store.get("t0", "k")[0], b"zero")
        self.assertEqual(self.store.get("t1", "k")[0], b"one")
        self.store.delete_entry(zero_id)
        self.assertIsNone(self.store.get("t0", "k"))
        self.assertEqual(self.store.get("t1", "k")[0], b"one")

    def test_replace_allocates_new_id_and_drops_old_blob(self):
        first = self.store.set("t0", "k", b"v1")
        second = self.store.set("t0", "k", b"v2-longer")
        self.assertGreater(second, first)
        self.assertEqual(self.store.get("t0", "k")[0], b"v2-longer")
        self.assertFalse(
            os.path.exists(self.store._blob_path(first)))
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
        self.store.set("t0", "b", b"x" * 30)
        self.store.set("t1", "a", b"x" * 5)
        self.assertEqual(self.store.tenant_bytes(), {"t0": 40, "t1": 5})


class CrashStateRecoveryTests(unittest.TestCase):
    """Each crash point the write protocol can leave behind is swept."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def test_half_written_row_is_swept_with_its_blob(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        store.set("t0", "good", b"ok")
        # Simulate a crash between step 1 (row committed, ready=0) and
        # step 3: insert the row by hand and leave a partial blob.
        cur = store._db.execute(
            "INSERT INTO entries (tenant, key, flags, size, ready) "
            "VALUES ('t0', 'torn', 0, 9, 0)")
        torn_id = cur.lastrowid
        with open(store._blob_path(torn_id), "wb") as blob:
            blob.write(b"part")
        store.close()

        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertEqual(reopened.recovered_rows, 1)
        self.assertIsNone(reopened.get("t0", "torn"))
        self.assertFalse(os.path.exists(reopened._blob_path(torn_id)))
        self.assertEqual(reopened.get("t0", "good")[0], b"ok")

    def test_orphan_blob_is_swept(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        entry_id = store.set("t0", "k", b"v")
        # Simulate a crash between the delete commit and the unlink.
        store._db.execute("DELETE FROM entries WHERE id = ?", (entry_id,))
        store.close()
        self.assertTrue(os.path.exists(
            os.path.join(self._tmp.name, "data", f"{entry_id}.val")))

        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertEqual(reopened.recovered_orphans, 1)
        self.assertFalse(os.path.exists(
            os.path.join(self._tmp.name, "data", f"{entry_id}.val")))

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


_KILL_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.service import DiskStore
store = DiskStore({directory!r}, sync_writes=False)
print("ready", flush=True)
i = 0
while True:
    store.set("t%d" % (i % 2), "key%d" % i, b"v" * (64 + i % 512))
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
                time.sleep(0.5)  # let it write a few hundred entries
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)

            store = DiskStore(tmp, sync_writes=False)
            self.addCleanup(store.close)
            entries = list(store.iter_entries())
            self.assertGreater(len(entries), 10,
                               "writer died before doing real work")
            # No metadata corruption: every committed row has a blob of
            # exactly the recorded size, ids strictly increase, and the
            # recovery sweep left no pending rows behind.
            ids = [entry.entry_id for entry in entries]
            self.assertEqual(ids, sorted(set(ids)))
            for entry in entries:
                path = store._blob_path(entry.entry_id)
                self.assertTrue(os.path.exists(path), path)
                self.assertEqual(os.path.getsize(path), entry.size)
            pending = store._db.execute(
                "SELECT COUNT(*) FROM entries WHERE ready = 0").fetchone()
            self.assertEqual(pending[0], 0)
            # And a ServiceCache rebuilds a consistent picture on top.
            cache = ServiceCache(store, capacity_mb=64.0)
            self.assertEqual(
                cache.used_blocks,
                sum(pool.used[kind]
                    for pool in cache.tenants.values()
                    for kind in pool.used))
            self.assertEqual(len(entries), cache.stats()["_host"]["entries"])

    def test_recovery_is_idempotent(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            for i in range(10):
                store.set("t0", f"k{i}", b"v")
            store.close()
            for _ in range(3):
                reopened = DiskStore(tmp, sync_writes=False)
                self.assertEqual(reopened.count(), 10)
                self.assertEqual(reopened.recovered_rows, 0)
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
