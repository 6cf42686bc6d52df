"""Tests for the baseline caches (Global / StaticPartition / Null)."""

import pytest

from repro.core import (
    CachePolicy,
    GlobalCache,
    NullCache,
    StaticPartitionCache,
    StoreKind,
)
from repro.simkernel import Environment

BLK = 64 * 1024


def run_gen(env, gen):
    return env.run(until=env.process(gen))


class TestGlobalCache:
    def make(self, capacity_mb=1.0, per_vm=None, exclusive=True):
        env = Environment()
        cache = GlobalCache(env, capacity_mb, BLK, per_vm_cap_mb=per_vm,
                            exclusive=exclusive)
        return env, cache

    def test_put_get_exclusive(self):
        env, cache = self.make()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        assert run_gen(env, cache.get_many(vm, pool, [(1, 0)])) == {(1, 0)}
        assert run_gen(env, cache.get_many(vm, pool, [(1, 0)])) == set()

    def test_inclusive_mode_keeps_blocks(self):
        env, cache = self.make(exclusive=False)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        assert run_gen(env, cache.get_many(vm, pool, [(1, 0)])) == {(1, 0)}
        assert run_gen(env, cache.get_many(vm, pool, [(1, 0)])) == {(1, 0)}

    def test_global_fifo_eviction_ignores_containers(self):
        """The defining flaw: the oldest block goes, whoever owns it."""
        env, cache = self.make(capacity_mb=1.0)  # 16 blocks
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(100))
        p2 = cache.create_pool(vm, "c2", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(8)]))
        run_gen(env, cache.put_many(vm, p2, [(2, i) for i in range(8)]))
        # Cache full; p2 inserts more -> p1's oldest blocks evicted.
        run_gen(env, cache.put_many(vm, p2, [(2, 100), (2, 101)]))
        assert cache._pools[p1].stats.evictions == 2
        found = run_gen(env, cache.get_many(vm, p1, [(1, 0), (1, 1)]))
        assert found == set()

    def test_per_vm_cap_enforced(self):
        env, cache = self.make(capacity_mb=2.0, per_vm=1.0)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(32)]))
        assert cache.vm_used_blocks(vm) <= 16

    def test_capacity_never_exceeded(self):
        env, cache = self.make(capacity_mb=1.0)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(64)]))
        assert cache.used[StoreKind.MEMORY] <= cache.capacity_blocks

    def test_duplicate_put_not_double_counted(self):
        env, cache = self.make()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        assert cache.used[StoreKind.MEMORY] == 1

    def test_destroy_pool_purges_fifo(self):
        env, cache = self.make(capacity_mb=1.0)
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(8)]))
        cache.destroy_pool(vm, p1)
        assert cache.used[StoreKind.MEMORY] == 0
        assert len(cache._fifo) == 0

    def test_flush_keeps_fifo_consistent(self):
        env, cache = self.make(capacity_mb=1.0)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(4)]))
        cache.flush_many(vm, pool, [(1, 0), (1, 1)])
        assert cache.used[StoreKind.MEMORY] == 2
        assert len(cache._fifo) == 2


class TestStaticPartitionCache:
    def make(self, capacity_mb=2.0):
        env = Environment()
        return env, StaticPartitionCache(env, capacity_mb, BLK)

    def test_no_partition_means_no_storage(self):
        env, cache = self.make()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        assert run_gen(env, cache.put_many(vm, pool, [(1, 0)])) == 0

    def test_partition_cap_with_self_eviction(self):
        env, cache = self.make()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        cache.set_partition(pool, 0.5)  # 8 blocks
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(12)]))
        p = cache._pools[pool]
        assert p.used[StoreKind.MEMORY] == 8
        assert p.stats.evictions == 4
        # Oldest evicted, newest kept.
        found = run_gen(env, cache.get_many(vm, pool, [(1, 0), (1, 11)]))
        assert found == {(1, 11)}

    def test_unused_capacity_is_wasted(self):
        """The centralized scheme's flaw DoubleDecker fixes: one pool's
        idle partition cannot be used by another."""
        env, cache = self.make(capacity_mb=1.0)
        vm = cache.register_vm("a")
        busy = cache.create_pool(vm, "busy", CachePolicy.memory(100))
        idle = cache.create_pool(vm, "idle", CachePolicy.memory(100))
        cache.set_partition(busy, 0.5)
        cache.set_partition(idle, 0.5)
        run_gen(env, cache.put_many(vm, busy, [(1, i) for i in range(16)]))
        assert cache._pools[busy].used[StoreKind.MEMORY] == 8  # capped

    def test_set_partition_validates(self):
        env, cache = self.make()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        with pytest.raises(ValueError):
            cache.set_partition(pool, -1)
        with pytest.raises(KeyError):
            cache.set_partition(999, 1)
        assert cache.partition_of(pool) == 0


class TestNullCache:
    def test_everything_is_a_miss(self):
        env = Environment()
        cache = NullCache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        assert run_gen(env, cache.put_many(vm, pool, [(1, 0)])) == 0
        assert run_gen(env, cache.get_many(vm, pool, [(1, 0)])) == set()
        assert cache.flush_many(vm, pool, [(1, 0)]) == 0
        assert cache.vm_used_blocks(vm) == 0
