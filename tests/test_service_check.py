"""check_service: clean on a long seeded op stream, loud on seeded faults.

The stream test goes through ``ServiceCache``'s public surface (plus the
checker), so it runs unmodified against any ``DiskStore`` layout; the
seeded faults are the layout's own.
"""

import contextlib
import io
import os
import random
import struct
import subprocess
import sys
import tempfile
import unittest
import zlib
from unittest import mock

from repro.core.config import StoreKind
from repro.core.pools import Pool
from repro.service import DiskStore, ServiceCache, SetStatus
from repro.service import check as check_module
from repro.service import store as store_module
from repro.service.check import check_service
from repro.service.store import SLOT_BYTES

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_MB = 1 << 20
TENANTS = (("big", 400), ("mid", 150), ("small", 60))   # name, key space
SIZES = (100, 100, 700, 1024, 1025, 3000, 4096, 5000, 20_000, 70_000)
ADMISSIONS = (None, "second_access")                   # alternates per reopen
CAPACITY_MB = 0.5                                      # 128 blocks of 4 KiB
BATCH_MB = 32 * 1024 / _MB                             # 8 blocks a round


def open_cache(directory, admission=None):
    return ServiceCache(DiskStore(directory, sync_writes=False),
                        capacity_mb=CAPACITY_MB, eviction_batch_mb=BATCH_MB,
                        admission=admission)


class SeededStreamTests(unittest.TestCase):
    OPS = 6000
    CHECK_EVERY = 40
    REOPEN_EVERY = 1000

    def test_checker_stays_clean_and_no_stale_value_is_served(self):
        rng = random.Random(20260928)
        filler = rng.randbytes(2 * _MB)
        model = {}       # (tenant, key) -> (value, flags) last acknowledged
        seen = dict.fromkeys(
            ("stored", "overwrite", "refused", "refused_overwrite",
             "too_large", "hit", "miss", "deleted", "flushed", "evicted",
             "reopen"), 0)
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        cache = open_cache(tmp.name)
        self.addCleanup(lambda: cache.close())

        def assert_clean(where):
            self.assertEqual(check_service(cache), [], where)

        for step in range(1, self.OPS + 1):
            tenant, keys = rng.choices(TENANTS, weights=(6, 3, 1))[0]
            key = f"k{int(rng.paretovariate(0.6)) % keys}"
            roll = rng.random()
            if roll < 0.50:
                size = rng.choice(SIZES)
                if rng.random() < 0.01:
                    size = int(CAPACITY_MB * _MB) + 1
                head = f"{tenant}:{key}:{step}|".encode()
                value = (head + filler[step:step + size])[:size]
                flags = rng.randrange(4)
                had = (tenant, key) in model
                status = cache.set(tenant, key, value, flags)
                if status == SetStatus.STORED:
                    model[(tenant, key)] = (value, flags)
                    seen["overwrite" if had else "stored"] += 1
                elif status == SetStatus.TOO_LARGE:
                    seen["too_large"] += 1     # the old value stays
                else:
                    seen["refused_overwrite" if model.pop(
                        (tenant, key), None) else "refused"] += 1
            elif roll < 0.82:
                found = cache.get(tenant, key)
                if found is None:
                    seen["miss"] += 1          # never stored, or evicted
                else:
                    self.assertEqual(found[:2], model.get((tenant, key)),
                                     f"step {step}: stale or unknown value")
                    seen["hit"] += 1
            elif roll < 0.92:
                if cache.delete(tenant, key):
                    seen["deleted"] += 1
                model.pop((tenant, key), None)
            elif roll < 0.924:
                scope = tenant if rng.random() < 0.8 else None
                seen["flushed"] += cache.flush_all(scope)
                for owner, name in list(model):
                    if scope in (None, owner):
                        del model[(owner, name)]
            if step % self.CHECK_EVERY == 0:
                assert_clean(f"step {step}")
            if step % self.REOPEN_EVERY == 0:
                before = cache.stats()["_host"]
                seen["evicted"] += sum(pool.stats.evictions
                                       for pool in cache.tenants.values())
                cache.close()
                seen["reopen"] += 1
                cache = open_cache(
                    tmp.name, ADMISSIONS[seen["reopen"] % len(ADMISSIONS)])
                assert_clean(f"reopen after step {step}")
                self.assertEqual(cache.stats()["_host"], before)
                hits = 0
                for (owner, name), expected in model.items():
                    found = cache.get(owner, name)
                    if found is not None:
                        self.assertEqual(found[:2], expected)
                        hits += 1
                self.assertEqual(hits, before["entries"])

        for outcome, count in seen.items():
            self.assertGreater(count, 0, f"the stream never produced {outcome}")


class SeededFaultTests(unittest.TestCase):
    """Each way the layers can disagree is reported, not absorbed."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.cache = open_cache(self._tmp.name)
        self.addCleanup(self.cache.close)
        for i in range(6):
            self.cache.set("t0", f"k{i}", b"v" * 100)
        self.cache.set("t1", "large", b"L" * 20_000)     # slots 0..4
        self.cache.set("t1", "last", b"l" * 5_000)       # slots 5..6
        self.large_id = self.cache.get("t1", "large")[2]
        self.last_id = self.cache.get("t1", "last")[2]
        self.slab = os.path.join(self._tmp.name, "data.slab")
        self.assertEqual(check_service(self.cache), [])

    def frame_of(self, entry_id):
        """Path, offset and length of an entry's PUT frame."""
        store = self.cache.store
        entry = store.entry(entry_id)
        path = next(segment.path for segment in store._segments
                    if segment.fd == entry.fd)
        return path, entry.at, entry.length

    def rewrite(self, entry_id, slot):
        """Point an entry's PUT frame at another slot, CRC made good."""
        path, at, length = self.frame_of(entry_id)
        with open(path, "r+b") as segment:
            segment.seek(at + 8)
            payload = bytearray(segment.read(length - 8))
            struct.pack_into("<I", payload, 21, slot)   # kind id flags size
            segment.seek(at)
            segment.write(struct.pack("<II", len(payload), zlib.crc32(payload))
                          + payload)

    def assert_reported(self, fragment):
        report = check_service(self.cache)
        self.assertTrue(any(fragment in line for line in report),
                        f"{fragment!r} not in {report}")

    def test_used_blocks_drift(self):
        self.cache.engine.used[StoreKind.SSD] += 1
        self.assert_reported("used_blocks is")

    def test_index_maps_disagree(self):
        del self.cache._ids[("t0", "k3")]
        self.assert_reported("keys in _ids")

    def test_pool_lost_a_block(self):
        self.cache.tenants["t1"].used[StoreKind.SSD] -= 1
        self.assert_reported("pool 't1': 7 blocks queued, pool.used says 6")

    def test_fifo_order_is_not_id_order(self):
        fifo = self.cache._fifos["t0"]
        fifo.move_to_end(next(iter(fifo)))      # re-queues it at the tail
        self.assert_reported("FIFO order is not id order")

    def test_id_queued_without_an_entry(self):
        self.cache._fifos["t0"][self.last_id + 1] = 1
        self.assert_reported(f"id {self.last_id + 1} is queued by tenant "
                             "'t0', no key in _ids names it")

    def test_ids_name_an_entry_whose_record_carries_another_key(self):
        entry_id = self.cache._ids.pop(("t0", "k2"))
        self.cache._ids[("t0", "k2")] = self.cache._ids.pop(("t0", "k3"))
        self.cache._ids[("t0", "k3")] = entry_id
        self.assert_reported(f"_ids['t0', 'k3'] -> {entry_id}, whose row is "
                             "('t0', 'k2')")

    def test_blocks_queued_against_the_size_of_the_row(self):
        self.cache._fifos["t1"][self.last_id] += 1
        self.assert_reported(f"entry {self.last_id}: 3 blocks queued for "
                             "5000 bytes, expected 2")

    def test_put_ledger_leak(self):
        self.cache.tenants["t0"].stats.puts += 1
        self.assert_reported("('t0'): put ledger leaks — 7 puts but 6 "
                             "accounted")

    def test_entry_indexed_but_not_queued(self):
        entry_id = self.cache._ids[("t0", "k2")]
        del self.cache._fifos["t0"][entry_id]
        self.assert_reported(f"_ids['t0', 'k2'] -> {entry_id}, which tenant "
                             "'t0' has not queued")

    def test_pool_holds_blocks_of_its_own(self):
        self.cache.tenants["t0"].insert(self.last_id, 0, StoreKind.MEMORY)
        self.assert_reported("pool 't0': holds blocks of its own")

    def test_row_missing(self):
        """The PUT frame of the last entry but one, zeroed: nothing from
        there on is a frame."""
        path, at, length = self.frame_of(self.large_id)
        with open(path, "r+b") as segment:
            segment.seek(at)
            segment.write(bytes(length))
        self.assert_reported(f"entry {self.large_id} ('t1', 'large') has no row")
        self.assert_reported("slot 0 is marked used, no row claims it")
        self.assert_reported(f"{os.path.getsize(path) - at} bytes after the "
                             "last whole frame of a store that is open")
        self.assert_reported("id -> entry map and the frames disagree")
        self.assert_reported("tenant counters say")

    def test_row_not_indexed(self):
        entry_id = self.cache._ids.pop(("t0", "k0"))
        del self.cache._fifos["t0"][entry_id]
        self.assert_reported(f"row {entry_id} ")

    def test_two_rows_claim_one_slot(self):
        self.rewrite(self.last_id, slot=4)
        self.assert_reported(f"rows {self.large_id} and {self.last_id} "
                             "overlap at slot 4")

    def test_run_past_the_end_of_the_slab(self):
        self.rewrite(self.last_id, slot=6)
        self.assert_reported(f"row {self.last_id}: slots 6..7 reach past the "
                             f"end of data.slab ({7 * SLOT_BYTES} bytes)")

    def test_row_inline_or_in_a_slot_against_its_size(self):
        self.rewrite(self.last_id, slot=0xFFFFFFFF)
        self.assert_reported(f"row {self.last_id} of 5000 bytes is inline")
        small_id = self.cache.get("t0", "k0")[2]
        self.rewrite(small_id, slot=3)
        self.assert_reported(f"row {small_id} of 100 bytes is in slot 3")

    def test_tenant_counters_drift(self):
        self.cache.store._tenants["t0"][1] += 1
        self.assert_reported("tenant counters say {'t0': [6, 601], 't1': "
                             "[2, 25000]}, the frames add up to {'t0': [6, 600]")

    def test_id_to_entry_map_and_frames_disagree(self):
        store = self.cache.store
        place = store._where[self.last_id]
        store._where[self.last_id] = place._replace(at=place.at + 1)
        self.assert_reported("id -> entry map and the frames disagree on")

    def test_log_over_its_reclaim_budget(self):
        for _ in range(40):             # 40 KB of frames, one of them live
            self.cache.set("t0", "k0", b"v" * 1000)
        self.assertEqual(check_service(self.cache), [])
        with mock.patch.object(store_module, "SEGMENT_BYTES", 64):
            self.assert_reported("over the reclaim budget of")

    def test_slot_map_and_rows_disagree(self):
        self.cache.store._map.used[2] = 0
        self.assert_reported(f"slot 2 is marked free, row {self.large_id} "
                             "claims it")
        self.cache.store._map.used[2] = 1
        self.cache.delete("t1", "large")
        self.assertEqual(check_service(self.cache), [])
        self.cache.store._map.used[3] = 1
        self.assert_reported("slot 3 is marked used, no row claims it")

    def test_id_to_slot_map_and_rows_disagree(self):
        store = self.cache.store
        store._where[self.last_id] = store._where[self.last_id]._replace(
            slot=4)
        self.assert_reported("id -> entry map and the frames disagree on")

    def test_slab_length_is_not_the_map_length(self):
        with open(self.slab, "ab") as slab:
            slab.write(b"x")
        self.assert_reported(f"data.slab is {7 * SLOT_BYTES + 1} bytes, the "
                             "slot map spans 7 slots")

    def test_bytes_at_a_run_are_fewer_than_the_frame_says(self):
        os.truncate(self.slab, 5 * SLOT_BYTES + 4_999)
        self.assert_reported(f"row {self.last_id}: 4999 bytes stored, its "
                             "frame says 5000")

    def test_over_capacity(self):
        self.cache.capacity_blocks = 3
        self.assert_reported("blocks used of 3")


class NoPerBlockCallTests(unittest.TestCase):
    """The service tells its pools block counts and makes no per-block
    call: every operation runs with those calls patched to raise."""

    def test_seeded_stream_with_the_pools_block_calls_refusing(self):
        def refuse(*args, **kwargs):
            raise AssertionError("per-block Pool call from the service")

        for name in ("insert", "insert_new", "pop_oldest", "remove_key",
                     "remove_many", "remove_inode"):
            patch = mock.patch.object(Pool, name, refuse)
            patch.start()
            self.addCleanup(patch.stop)
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)

        def reopen():
            return ServiceCache(DiskStore(tmp.name, sync_writes=False),
                                capacity_mb=1.25, eviction_batch_mb=BATCH_MB)

        rng = random.Random(20261003)
        filler = rng.randbytes(_MB + 70_000)
        cache = reopen()
        self.addCleanup(lambda: cache.close())
        model = {}

        def store(tenant, key, size):
            value = filler[-size:-1] + bytes([rng.randrange(256)])
            self.assertEqual(cache.set(tenant, key, value), SetStatus.STORED)
            model[(tenant, key)] = value

        store("big", "mib", _MB)                    # 256 blocks, one record
        self.assertEqual(cache.tenants["big"].used[StoreKind.SSD], 256)
        for step in range(600):
            tenant, keys = rng.choices(TENANTS, weights=(6, 3, 1))[0]
            key = f"k{rng.randrange(keys // 4)}"
            roll = rng.random()
            if roll < 0.6:
                store(tenant, key, rng.choice(SIZES))    # fresh or overwrite
            elif roll < 0.9:
                found = cache.get(tenant, key)
                if found is not None:
                    self.assertEqual(found[0], model[(tenant, key)])
            else:
                cache.delete(tenant, key)
            if step % 100 == 99:
                self.assertEqual(check_service(cache), [], f"step {step}")
        self.assertGreater(sum(pool.stats.evictions
                               for pool in cache.tenants.values()), 256)
        self.assertIsNone(cache.get("big", "mib"))  # the oldest: evicted whole
        self.assertGreater(cache.flush_all("mid"), 0)
        self.assertEqual(check_service(cache), [])
        before = cache.stats()["_host"]
        cache.close()
        cache = reopen()
        self.assertEqual(check_service(cache), [])
        self.assertEqual(cache.stats()["_host"], before)
        hits = sum(cache.get(tenant, key) == (value, 0, mock.ANY)
                   for (tenant, key), value in model.items())
        self.assertEqual(hits, before["entries"])
        self.assertEqual(cache.flush_all(), before["entries"])
        self.assertEqual(check_service(cache), [])
        self.assertEqual(cache.engine.used[StoreKind.SSD], 0)


def snapshot(directory):
    found = {}
    for folder, _, names in os.walk(directory):
        for name in names:
            with open(os.path.join(folder, name), "rb") as handle:
                found[os.path.relpath(handle.name, directory)] = handle.read()
    return found


def flip_bit(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x10]))


class DamagedJournalTests(unittest.TestCase):
    """Bit rot in the journal, and the offline inspector's view of it."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        patch = mock.patch.object(store_module, "SEGMENT_BYTES", 1024)
        patch.start()
        self.addCleanup(patch.stop)
        cache = open_cache(self._tmp.name)
        for i in range(12):
            if i == 11:
                cache.delete("t0", "k1")
            cache.set("t0", f"k{i}", bytes([65 + i]) * (300 if i % 3 else 3000))
        self.kept = {entry.key: cache.get("t0", entry.key)[:2]
                     for entry in cache.store.iter_entries()}
        self.last_key = "k11"
        last = cache.store.entry(cache._ids[("t0", "k11")])
        self.last_frame = last.at, last.length
        cache.close()
        self.log = os.path.join(self._tmp.name, "log")
        self.segments = sorted(os.listdir(self.log),
                               key=lambda name: int(name[:-4]))
        self.assertGreater(len(self.segments), 2)

    def inspect(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = check_module.main([self._tmp.name])
        return code, out.getvalue()

    def test_inspector_on_a_clean_stopped_store(self):
        code, report = self.inspect()
        self.assertEqual(code, 0, report)
        self.assertIn("layout 4, 11 entries, ids leased up to 1024", report)
        self.assertIn("tenant t0: 11 entries, "
                      f"{sum(len(v) for v, _ in self.kept.values())} bytes",
                      report)
        for name in self.segments:
            self.assertIn(f"log/{name}: ", report)
        self.assertIn("torn tail: 0 bytes", report)
        self.assertIn("4 slots spanned, 0 free within, 0 bytes beyond", report)
        self.assertIn("0 violations", report)

    def test_inspector_answers_locked_while_the_store_is_served(self):
        cache = open_cache(self._tmp.name)
        self.addCleanup(cache.close)
        code, report = self.inspect()
        self.assertEqual(code, 1)
        self.assertIn("is locked", report)

    def test_inspector_runs_as_a_module_and_changes_nothing(self):
        with open(os.path.join(self.log, self.segments[-1]), "ab") as segment:
            segment.write(b"\x20\0\0\0torn")         # half a frame
        before = snapshot(self._tmp.name)
        done = subprocess.run(
            [sys.executable, "-m", "repro.service.check", self._tmp.name],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("torn tail: 8 bytes", done.stdout)
        self.assertEqual(snapshot(self._tmp.name), before)

    def test_flipped_bit_in_a_sealed_segment_refuses_to_open(self):
        flip_bit(os.path.join(self.log, self.segments[0]), 60)
        before = snapshot(self._tmp.name)
        with self.assertRaises(RuntimeError) as caught:
            DiskStore(self._tmp.name, sync_writes=False)
        self.assertIn(os.path.join(self.log, self.segments[0]),
                      str(caught.exception))
        self.assertIn("damaged at offset 36", str(caught.exception))
        self.assertEqual(snapshot(self._tmp.name), before)
        code, report = self.inspect()
        self.assertEqual(code, 1)
        self.assertIn("is damaged at offset 36", report)
        # The refusal took no lock with it.
        flip_bit(os.path.join(self.log, self.segments[0]), 60)
        open_cache(self._tmp.name).close()

    def test_flipped_bit_in_the_last_frame_loses_that_entry_alone(self):
        at, length = self.last_frame
        path = os.path.join(self.log, self.segments[-1])
        self.assertEqual(os.path.getsize(path), at + length)
        flip_bit(path, at + length - 1)
        cache = open_cache(self._tmp.name)
        self.addCleanup(cache.close)
        self.assertEqual(check_service(cache), [])
        self.assertEqual(os.path.getsize(path), at)
        del self.kept[self.last_key]
        self.assertEqual({entry.key: cache.get("t0", entry.key)[:2]
                          for entry in cache.store.iter_entries()}, self.kept)


class NoSqliteTests(unittest.TestCase):
    def test_importing_the_service_leaves_sqlite3_unimported(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.service, repro.service.check, "
             "repro.service.server; "
             "sys.exit('sqlite3' in sys.modules or '_sqlite3' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=REPO_SRC))
        self.assertEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
