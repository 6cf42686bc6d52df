"""Unit tests for cache pools and VM entries."""

import random

import pytest

from repro.core import CachePolicy, Pool, StoreKind, VMEntry


def make_pool(policy=None):
    return Pool(1, 1, "test", policy or CachePolicy.memory(50))


class TestPool:
    def test_empty_pool(self):
        pool = make_pool()
        assert len(pool) == 0
        assert pool.lookup(1, 0) is None

    def test_insert_lookup_remove(self):
        pool = make_pool()
        pool.insert(10, 5, StoreKind.MEMORY)
        assert pool.lookup(10, 5) is StoreKind.MEMORY
        assert pool.used[StoreKind.MEMORY] == 1
        assert pool.remove_key((10, 5)) is StoreKind.MEMORY
        assert pool.lookup(10, 5) is None
        assert pool.used[StoreKind.MEMORY] == 0

    def test_remove_absent_returns_none(self):
        pool = make_pool()
        assert pool.remove_key((1, 1)) is None

    def test_insert_replace_across_stores(self):
        pool = make_pool(CachePolicy.hybrid(50, 50))
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.insert(1, 0, StoreKind.SSD)
        assert pool.lookup(1, 0) is StoreKind.SSD
        assert pool.used[StoreKind.MEMORY] == 0
        assert pool.used[StoreKind.SSD] == 1
        assert len(pool) == 1

    def test_fifo_order_is_insertion_order(self):
        pool = make_pool()
        for block in (3, 1, 2):
            pool.insert(1, block, StoreKind.MEMORY)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 3)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 1)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 2)
        assert pool.pop_oldest(StoreKind.MEMORY) is None

    def test_pop_oldest_updates_index(self):
        pool = make_pool()
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.pop_oldest(StoreKind.MEMORY)
        assert pool.lookup(1, 0) is None
        assert 1 not in pool.files

    def test_remove_inode_drops_all_blocks(self):
        pool = make_pool()
        for block in range(5):
            pool.insert(7, block, StoreKind.MEMORY)
        pool.insert(8, 0, StoreKind.MEMORY)
        counts = pool.remove_inode(7)
        assert counts[StoreKind.MEMORY] == 5
        assert len(pool) == 1
        assert pool.lookup(8, 0) is StoreKind.MEMORY

    def test_drain(self):
        pool = make_pool(CachePolicy.hybrid(50, 50))
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.insert(1, 1, StoreKind.SSD)
        counts = pool.drain()
        assert counts[StoreKind.MEMORY] == 1
        assert counts[StoreKind.SSD] == 1
        assert len(pool) == 0
        assert not pool.files

    def test_snapshot_stats_reflects_usage(self):
        pool = make_pool()
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.entitlement[StoreKind.MEMORY] = 10
        pool.stats.gets = 4
        pool.stats.get_hits = 2
        stats = pool.snapshot_stats()
        assert stats.mem_used_blocks == 1
        assert stats.mem_entitlement_blocks == 10
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_iter_keys_oldest_first(self):
        pool = make_pool()
        pool.insert(1, 5, StoreKind.MEMORY)
        pool.insert(1, 2, StoreKind.MEMORY)
        assert list(pool.iter_keys(StoreKind.MEMORY)) == [(1, 5), (1, 2)]

    def test_batch_sweep_equivalent_to_per_key(self):
        """``remove_many`` agrees with a ``remove_key`` loop
        on a request stream with repeats and absent keys."""
        rng = random.Random(7)
        keys = [(rng.randrange(64), rng.randrange(4096)) for _ in range(2000)]
        a, b = make_pool(), make_pool()
        for inode, block in dict.fromkeys(keys[::2]):
            a.insert(inode, block, StoreKind.MEMORY)
            b.insert(inode, block, StoreKind.MEMORY)
        removed = [key for key in keys if a.remove_key(key) is not None]
        mem_keys, ssd_keys = b.remove_many(keys)
        assert mem_keys == removed
        assert ssd_keys == []
        assert len(a) == len(b) == 0

    def test_interleaved_mutations_keep_fifo_order(self):
        """insert / remove_key / remove_many / pop_oldest all share one
        FIFO: residence order stays insertion order."""
        pool = make_pool()
        rng = random.Random(11)
        model = []  # live keys, oldest first
        next_block = 0
        for _ in range(200):
            for _ in range(rng.randrange(1, 9)):
                pool.insert(next_block % 5, next_block, StoreKind.MEMORY)
                model.append((next_block % 5, next_block))
                next_block += 1
            victim = model.pop(rng.randrange(len(model)))
            assert pool.remove_key(victim) is StoreKind.MEMORY
            batch = rng.sample(model, min(3, len(model)))
            mem_keys, _ = pool.remove_many(batch + [victim])  # victim: absent
            assert mem_keys == batch
            model = [key for key in model if key not in batch]
            if model:
                assert pool.pop_oldest(StoreKind.MEMORY) == model.pop(0)
            assert list(pool.iter_keys(StoreKind.MEMORY)) == model
            assert len(pool) == len(model)

    def test_matches_brute_force_model_across_stores(self):
        """Every mutation on MEMORY and SSD together, against two plain
        lists: a re-insert (same or other store) lands at the new store's
        tail, ``remove_many`` reports first occurrences in request order,
        and the per-inode views follow."""
        pool = make_pool(CachePolicy.hybrid(50, 50))
        rng = random.Random(25)
        kinds = (StoreKind.MEMORY, StoreKind.SSD)
        fifo = {kind: [] for kind in kinds}  # oldest first
        where = {}  # key -> store

        def model_remove(key):
            kind = where.pop(key, None)
            if kind is not None:
                fifo[kind].remove(key)
            return kind

        def random_key():
            return (rng.randrange(6), rng.randrange(12))

        for step in range(3000):
            op = rng.random()
            if op < 0.45:
                key, kind = random_key(), rng.choice(kinds)
                pool.insert(key[0], key[1], kind)
                model_remove(key)
                fifo[kind].append(key)
                where[key] = kind
            elif op < 0.6:
                batch = [random_key() for _ in range(rng.randrange(1, 8))]
                batch += rng.sample(batch, min(2, len(batch)))  # repeats
                expected = {kind: [] for kind in kinds}
                for key in batch:
                    kind = model_remove(key)
                    if kind is not None:
                        expected[kind].append(key)
                mem_keys, ssd_keys = pool.remove_many(batch)
                assert mem_keys == expected[StoreKind.MEMORY], step
                assert ssd_keys == expected[StoreKind.SSD], step
            elif op < 0.75:
                key = random_key()
                assert pool.remove_key(key) is model_remove(key), step
            elif op < 0.82:
                inode = rng.randrange(6)
                counts = {kind: 0 for kind in kinds}
                for key in [key for key in where if key[0] == inode]:
                    counts[model_remove(key)] += 1
                assert pool.remove_inode(inode) == counts, step
            elif op < 0.995:
                kind = rng.choice(kinds)
                expected_key = fifo[kind][0] if fifo[kind] else None
                if expected_key is not None:
                    model_remove(expected_key)
                assert pool.pop_oldest(kind) == expected_key, step
            else:
                counts = {kind: len(fifo[kind]) for kind in kinds}
                assert pool.drain() == counts, step
                where.clear()
                for kind in kinds:
                    fifo[kind].clear()
            for kind in kinds:
                assert list(pool.fifos[kind]) == fifo[kind], step
                assert pool.used[kind] == len(fifo[kind]), step
            for inode in range(6):
                blocks = sorted((key[1], kind) for key, kind in where.items()
                                if key[0] == inode)
                assert pool.items_of_inode(inode) == blocks, step
                assert sorted(pool.mem_blocks_of_inode(inode)) == [
                    block for block, kind in blocks if kind is StoreKind.MEMORY
                ], step
            assert sorted(pool.files) == sorted({key[0] for key in where}), step


class TestVMEntry:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            VMEntry(1, "vm", -1)

    def test_used_sums_pools(self):
        vm = VMEntry(1, "vm", 100)
        p1 = Pool(1, 1, "a", CachePolicy.memory(50))
        p2 = Pool(2, 1, "b", CachePolicy.memory(50))
        vm.pools = {1: p1, 2: p2}
        p1.insert(1, 0, StoreKind.MEMORY)
        p2.insert(1, 0, StoreKind.MEMORY)
        p2.insert(1, 1, StoreKind.MEMORY)
        assert vm.used(StoreKind.MEMORY) == 3
        assert vm.used(StoreKind.SSD) == 0

    def test_pools_on_filters_by_store(self):
        vm = VMEntry(1, "vm", 100)
        mem_pool = Pool(1, 1, "mem", CachePolicy.memory(50))
        ssd_pool = Pool(2, 1, "ssd", CachePolicy.ssd(100))
        none_pool = Pool(3, 1, "none", CachePolicy.none())
        vm.pools = {1: mem_pool, 2: ssd_pool, 3: none_pool}
        assert vm.pools_on(StoreKind.MEMORY) == [mem_pool]
        assert vm.pools_on(StoreKind.SSD) == [ssd_pool]


class TestCachePolicy:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CachePolicy(mem_weight=-1)

    def test_factories(self):
        assert CachePolicy.memory(30).weight_for(StoreKind.MEMORY) == 30
        assert CachePolicy.ssd(40).weight_for(StoreKind.SSD) == 40
        assert CachePolicy.none().uses_cache is False
        hybrid = CachePolicy.hybrid(10, 20)
        assert hybrid.is_hybrid
        assert hybrid.uses_cache

    def test_single_store_not_hybrid(self):
        assert not CachePolicy.memory(10).is_hybrid
        assert not CachePolicy.ssd(10).is_hybrid
