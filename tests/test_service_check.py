"""check_service: clean on a long seeded op stream, loud on seeded faults.

The stream test goes through ``ServiceCache``'s public surface (plus the
checker), so it runs unmodified against any ``DiskStore`` layout; the
seeded faults are the layout's own.
"""

import os
import random
import tempfile
import unittest

from repro.core.config import StoreKind
from repro.service import DiskStore, ServiceCache, SetStatus
from repro.service.check import check_service
from repro.service.store import SLOT_BYTES

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

    def sql(self, statement, *args):
        self.cache.store._db.execute(statement, args)

    def assert_reported(self, fragment):
        report = check_service(self.cache)
        self.assertTrue(any(fragment in line for line in report),
                        f"{fragment!r} not in {report}")

    def test_used_blocks_drift(self):
        self.cache.used_blocks += 1
        self.assert_reported("used_blocks is")

    def test_index_maps_disagree(self):
        del self.cache._ids[("t0", "k3")]
        self.assert_reported("keys in _ids")

    def test_pool_lost_a_block(self):
        self.cache.tenants["t1"].remove(self.large_id, 2)
        self.assert_reported("out of sequence")
        self.assert_reported("blocks queued")

    def test_fifo_order_is_not_id_order(self):
        pool = self.cache.tenants["t0"]
        first = next(iter(pool.fifos[StoreKind.SSD]))[0]
        pool.insert(first, 0, StoreKind.SSD)    # re-queues it at the tail
        self.assert_reported("FIFO order is not id order")

    def test_row_missing(self):
        self.sql("DELETE FROM entries WHERE id = ?", self.large_id)
        self.assert_reported(f"entry {self.large_id} ('t1', 'large') has no row")
        self.assert_reported("slot 0 is marked used, no row claims it")

    def test_row_not_indexed(self):
        entry_id = self.cache._ids.pop(("t0", "k0"))
        del self.cache._entries[entry_id]
        self.assert_reported(f"row {entry_id} ")

    def test_two_rows_claim_one_slot(self):
        self.sql("UPDATE entries SET slot = 4 WHERE id = ?", self.last_id)
        self.assert_reported(f"rows {self.large_id} and {self.last_id} "
                             "overlap at slot 4")

    def test_run_past_the_end_of_the_slab(self):
        self.sql("UPDATE entries SET slot = 6 WHERE id = ?", self.last_id)
        self.assert_reported(f"row {self.last_id}: slots 6..7 reach past the "
                             f"end of data.slab ({7 * SLOT_BYTES} bytes)")

    def test_row_with_both_a_value_and_a_slot_or_neither(self):
        self.sql("UPDATE entries SET value = x'00' WHERE id = ?", self.last_id)
        self.assert_reported(f"row {self.last_id} has an inline value and a slot")
        self.sql("UPDATE entries SET value = NULL, slot = NULL WHERE id = ?",
                 self.last_id)
        self.assert_reported(f"row {self.last_id} has neither")

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
        self.cache.store._slots[self.last_id] = 4
        self.assert_reported("id -> slot map and the rows disagree on "
                             f"[({self.last_id}, 4), ({self.last_id}, 5)]")

    def test_slab_length_is_not_the_map_length(self):
        with open(self.slab, "ab") as slab:
            slab.write(b"x")
        self.assert_reported(f"data.slab is {7 * SLOT_BYTES + 1} bytes, the "
                             "slot map spans 7 slots")

    def test_bytes_at_a_run_are_fewer_than_the_size_column(self):
        os.truncate(self.slab, 5 * SLOT_BYTES + 4_999)
        self.assert_reported(f"row {self.last_id}: 4999 bytes stored, size "
                             "column says 5000")

    def test_over_capacity(self):
        self.cache.capacity_blocks = 3
        self.assert_reported("blocks used of 3")


if __name__ == "__main__":
    unittest.main()
