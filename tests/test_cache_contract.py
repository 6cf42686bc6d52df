"""Interface contract tests run against EVERY hypervisor-cache
implementation (DoubleDecker, Global, StaticPartition, Null).

Guests are written against :class:`HypervisorCacheBase`; these tests pin
the behaviours all implementations must share so a cache swap never
changes guest-visible semantics (only performance/placement).
"""

import pytest

from repro.core import (
    CachePolicy,
    DDConfig,
    DoubleDeckerCache,
    GlobalCache,
    NullCache,
    PoolStats,
    StaticPartitionCache,
)
from repro.simkernel import Environment

BLK = 64 * 1024


def make_cache(kind, env):
    if kind == "doubledecker":
        return DoubleDeckerCache(env, DDConfig(mem_capacity_mb=4), BLK)
    if kind == "global":
        return GlobalCache(env, 4.0, BLK)
    if kind == "static":
        cache = StaticPartitionCache(env, 4.0, BLK)
        return cache
    return NullCache()


def setup_pool(kind, cache):
    vm_id = cache.register_vm("vm", 100.0)
    pool_id = cache.create_pool(vm_id, "c", CachePolicy.memory(100))
    if kind == "static":
        cache.set_partition(pool_id, 4.0)
    return vm_id, pool_id


def run_gen(env, gen):
    return env.run(until=env.process(gen))


ALL_KINDS = ["doubledecker", "global", "static", "null"]
STORING_KINDS = ["doubledecker", "global", "static"]


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestUniversalContract:
    def test_ids_are_positive_and_distinct(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm1 = cache.register_vm("a")
        vm2 = cache.register_vm("b")
        assert vm1 != vm2
        p1 = cache.create_pool(vm1, "c1", CachePolicy.memory(100))
        p2 = cache.create_pool(vm2, "c2", CachePolicy.memory(100))
        assert p1 != p2

    def test_get_on_empty_pool_misses(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        assert run_gen(env, cache.get_many(vm_id, pool_id, [(1, 0)])) == set()

    def test_empty_key_lists_are_noops(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        assert run_gen(env, cache.get_many(vm_id, pool_id, [])) == set()
        assert run_gen(env, cache.put_many(vm_id, pool_id, [])) == 0
        assert cache.flush_many(vm_id, pool_id, []) == 0

    def test_flush_of_absent_blocks_returns_zero(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        assert cache.flush_many(vm_id, pool_id, [(9, 9)]) == 0
        assert cache.flush_inode(vm_id, pool_id, 9) == 0

    def test_store_stats_shape(self, kind):
        """GET_STATS, the one statistics record, is per pool: a fresh
        pool reports itself and no outcomes yet."""
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        stats = cache.pool_stats(vm_id, pool_id)
        assert isinstance(stats, PoolStats)
        assert (stats.vm_id, stats.pool_id) == (vm_id, pool_id)
        assert stats.puts == stats.evictions == stats.put_rejected_capacity == 0


@pytest.mark.parametrize("kind", STORING_KINDS)
class TestStoringContract:
    def test_exclusive_get_semantics(self, kind):
        """For exclusive caches, a hit removes the block."""
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        keys = [(1, 0), (1, 1), (1, 2)]
        stored = run_gen(env, cache.put_many(vm_id, pool_id, keys))
        assert stored == 3
        assert run_gen(env, cache.get_many(vm_id, pool_id, keys)) == set(keys)
        assert run_gen(env, cache.get_many(vm_id, pool_id, keys)) == set()

    def test_flush_prevents_stale_hits(self, kind):
        """The correctness-critical path: after a flush (guest dirtied the
        block) the cache must never return the stale copy."""
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, 0)]))
        assert cache.flush_many(vm_id, pool_id, [(1, 0)]) == 1
        assert run_gen(env, cache.get_many(vm_id, pool_id, [(1, 0)])) == set()

    def test_flush_inode_clears_file(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id,
                                    [(1, i) for i in range(4)] + [(2, 0)]))
        assert cache.flush_inode(vm_id, pool_id, 1) == 4
        found = run_gen(env, cache.get_many(vm_id, pool_id, [(2, 0)]))
        assert found == {(2, 0)}

    def test_destroy_pool_forgets_everything(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, i) for i in range(8)]))
        cache.destroy_pool(vm_id, pool_id)
        with pytest.raises(KeyError):
            cache.pool_stats(vm_id, pool_id)
        assert cache.vm_used_blocks(vm_id) == 0

    def test_duplicate_put_idempotent_capacity(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, 0)]))
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, 0)]))
        assert cache.vm_used_blocks(vm_id) == 1

    def test_stats_track_hits_and_misses(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, 0)]))
        run_gen(env, cache.get_many(vm_id, pool_id, [(1, 0), (1, 1)]))
        stats = cache.pool_stats(vm_id, pool_id)
        assert stats.gets == 2
        assert stats.get_hits == 1
        assert stats.puts_stored == 1

    def test_capacity_is_a_hard_bound(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id,
                                    [(1, i) for i in range(500)]))
        assert cache.vm_used_blocks(vm_id) <= 64  # 4 MB at 64 KiB

    def test_unregister_vm_cascades(self, kind):
        env = Environment()
        cache = make_cache(kind, env)
        vm_id, pool_id = setup_pool(kind, cache)
        run_gen(env, cache.put_many(vm_id, pool_id, [(1, 0)]))
        cache.unregister_vm(vm_id)
        with pytest.raises(KeyError):
            cache.pool_stats(vm_id, pool_id)
