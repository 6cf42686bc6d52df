"""Unit + invariant tests for the DoubleDecker cache manager."""

import pytest

from repro.core import (
    CachePolicy, CompressionModel, DDConfig, DoubleDeckerCache, StoreKind, check_cache,
)
from repro.simkernel import Environment
from repro.storage import SSD

BLK = 64 * 1024  # 64 KiB blocks -> 16 blocks per MiB


def make_cache(mem_mb=1.0, ssd_mb=0.0, batch_mb=2.0, trickle=False, env=None):
    env = env or Environment()
    ssd = SSD(env, BLK) if ssd_mb > 0 else None
    cache = DoubleDeckerCache(
        env,
        DDConfig(mem_capacity_mb=mem_mb, ssd_capacity_mb=ssd_mb,
                 eviction_batch_mb=batch_mb, trickle_down=trickle),
        BLK,
        ssd_device=ssd,
    )
    return env, cache


def run_gen(env, gen):
    """Drive a data-path generator to completion, returning its value."""
    return env.run(until=env.process(gen))


class TestLifecycle:
    def test_register_vm_assigns_ids(self):
        _, cache = make_cache()
        assert cache.register_vm("a") == 1
        assert cache.register_vm("b") == 2

    def test_unknown_vm_rejected(self):
        _, cache = make_cache()
        with pytest.raises(KeyError):
            cache.create_pool(99, "x", CachePolicy.memory(100))

    def test_pool_ids_unique_across_vms(self):
        _, cache = make_cache()
        vm1 = cache.register_vm("a")
        vm2 = cache.register_vm("b")
        p1 = cache.create_pool(vm1, "c1", CachePolicy.memory(100))
        p2 = cache.create_pool(vm2, "c2", CachePolicy.memory(100))
        assert p1 != p2

    def test_ssd_policy_without_ssd_rejected(self):
        _, cache = make_cache(mem_mb=1, ssd_mb=0)
        vm = cache.register_vm("a")
        with pytest.raises(ValueError):
            cache.create_pool(vm, "c", CachePolicy.ssd(100))

    def test_destroy_pool_frees_usage(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(8)]))
        assert cache.used[StoreKind.MEMORY] == 8
        cache.destroy_pool(vm, pool)
        assert cache.used[StoreKind.MEMORY] == 0

    def test_unregister_vm_destroys_pools(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        cache.unregister_vm(vm)
        assert cache.used[StoreKind.MEMORY] == 0
        assert vm not in cache.vms


class TestDataPath:
    def test_put_then_get_is_exclusive(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        keys = [(1, 0), (1, 1)]
        stored = run_gen(env, cache.put_many(vm, pool, keys))
        assert stored == 2
        found = run_gen(env, cache.get_many(vm, pool, keys))
        assert found == set(keys)
        # Exclusive: a second get misses.
        found2 = run_gen(env, cache.get_many(vm, pool, keys))
        assert found2 == set()
        assert cache.used[StoreKind.MEMORY] == 0

    def test_get_miss_returns_empty(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        assert run_gen(env, cache.get_many(vm, pool, [(9, 9)])) == set()

    def test_put_to_none_policy_rejected(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.none())
        assert run_gen(env, cache.put_many(vm, pool, [(1, 0)])) == 0

    def test_flush_removes_blocks(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0), (1, 1)]))
        assert cache.flush_many(vm, pool, [(1, 0)]) == 1
        assert cache.used[StoreKind.MEMORY] == 1

    def test_flush_inode_removes_whole_file(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(4)]))
        run_gen(env, cache.put_many(vm, pool, [(2, 0)]))
        assert cache.flush_inode(vm, pool, 1) == 4
        assert cache.used[StoreKind.MEMORY] == 1

    def test_migrate_moves_file_between_pools(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "c2", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, 0), (1, 1)]))
        moved = cache.migrate_objects(vm, p1, p2, 1)
        assert moved == 2
        assert run_gen(env, cache.get_many(vm, p2, [(1, 0), (1, 1)])) == {
            (1, 0), (1, 1)
        }

    def test_migrate_onto_a_block_the_target_holds_replaces_it(self):
        """The target's own copy is dropped, not leaked: the store total
        and the (compressed) memory units both count the one block that
        remains."""
        env = Environment()
        model = CompressionModel()
        cache = DoubleDeckerCache(
            env, DDConfig(mem_capacity_mb=1.0, compression=model), BLK)
        vm = cache.register_vm("a")
        a = cache.create_pool(vm, "a", CachePolicy.memory(50))
        b = cache.create_pool(vm, "b", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, a, [(1, 0)]))
        run_gen(env, cache.put_many(vm, b, [(1, 0)]))
        assert cache.migrate_objects(vm, a, b, 1) == 1
        assert check_cache(cache) == []
        assert cache.used[StoreKind.MEMORY] == 1
        assert cache.mem_units.used == model.charged_units(
            cache.mem_units.fingerprint(vm, 1, 0))

    def test_ssd_put_and_get(self):
        env, cache = make_cache(mem_mb=0, ssd_mb=10)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.ssd(100))
        stored = run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(5)]))
        assert stored == 5
        t0 = env.now
        found = run_gen(env, cache.get_many(vm, pool, [(1, i) for i in range(5)]))
        assert len(found) == 5
        assert env.now > t0  # SSD reads take simulated time


class TestEviction:
    def test_resource_conservative_growth(self):
        """A pool may exceed its entitlement while the store has room."""
        env, cache = make_cache(mem_mb=1)  # 16 blocks
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(50))
        cache.create_pool(vm, "c2", CachePolicy.memory(50))
        stored = run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(12)]))
        assert stored == 12  # entitlement is 8, but the store had room
        assert cache.pool_stats(vm, p1).evictions == 0

    def test_eviction_only_when_full(self):
        env, cache = make_cache(mem_mb=1, batch_mb=0.125)  # batch = 2 blocks
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "c2", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(16)]))
        assert cache.used[StoreKind.MEMORY] == 16
        # p2's put forces eviction; victim must be the over-used p1.
        run_gen(env, cache.put_many(vm, p2, [(2, 0)]))
        assert cache._pools[p1].stats.evictions > 0
        assert cache._pools[p2].stats.evictions == 0
        assert cache.used[StoreKind.MEMORY] <= 16

    def test_victim_fifo_order(self):
        env, cache = make_cache(mem_mb=1, batch_mb=0.125)
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "c2", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(16)]))
        run_gen(env, cache.put_many(vm, p2, [(2, 0), (2, 1)]))
        # Oldest of p1 (blocks 0,1) must be gone; newest survive.
        found = run_gen(env, cache.get_many(vm, p1, [(1, 0), (1, 1), (1, 15)]))
        assert (1, 15) in found
        assert (1, 0) not in found

    def test_capacity_never_exceeded(self):
        env, cache = make_cache(mem_mb=1)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(100)]))
        assert cache.used[StoreKind.MEMORY] <= cache.capacities[StoreKind.MEMORY]

    def test_two_level_selection_picks_overused_vm(self):
        env, cache = make_cache(mem_mb=1, batch_mb=0.125)
        vm1 = cache.register_vm("vm1", weight=50)
        vm2 = cache.register_vm("vm2", weight=50)
        p1 = cache.create_pool(vm1, "c1", CachePolicy.memory(100))
        p2 = cache.create_pool(vm2, "c2", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm1, p1, [(1, i) for i in range(16)]))
        run_gen(env, cache.put_many(vm2, p2, [(2, 0)]))
        assert cache._pools[p1].stats.evictions > 0
        assert cache._pools[p2].stats.evictions == 0

    def test_shrink_capacity_evicts(self):
        env, cache = make_cache(mem_mb=2)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(32)]))
        cache.set_capacity(StoreKind.MEMORY, 1.0)
        assert cache.used[StoreKind.MEMORY] <= 16


class TestHybridAndTrickle:
    def test_hybrid_spills_to_ssd_after_mem_entitlement(self):
        env, cache = make_cache(mem_mb=1, ssd_mb=10)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.hybrid(100, 100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(20)]))
        p = cache._pools[pool]
        assert p.used[StoreKind.MEMORY] == 16  # mem entitlement filled first
        assert p.used[StoreKind.SSD] == 4      # overflow spilled

    def test_trickle_down_rehomes_evicted_blocks(self):
        env, cache = make_cache(mem_mb=1, ssd_mb=10, batch_mb=0.125,
                                trickle=True)
        vm = cache.register_vm("a")
        p1 = cache.create_pool(vm, "c1", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "c2", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(16)]))
        run_gen(env, cache.put_many(vm, p2, [(2, 0)]))
        p = cache._pools[p1]
        assert p.used[StoreKind.SSD] > 0  # evicted blocks trickled down
        # And they are still retrievable.
        found = run_gen(env, cache.get_many(vm, p1, [(1, 0)]))
        assert found == {(1, 0)}

    def test_policy_switch_to_none_drops_content(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        cache.set_policy(vm, pool, CachePolicy.none())
        assert cache.used[StoreKind.MEMORY] == 0


class TestStats:
    def test_pool_stats_counts(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, 0), (1, 1)]))
        run_gen(env, cache.get_many(vm, pool, [(1, 0), (9, 9)]))
        stats = cache.pool_stats(vm, pool)
        assert stats.puts == 2
        assert stats.puts_stored == 2
        assert stats.gets == 2
        assert stats.get_hits == 1
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_pool_used_mb(self):
        env, cache = make_cache()
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(16)]))
        assert cache.pool_used_mb(pool) == pytest.approx(1.0)
        assert cache.vm_used_mb(vm) == pytest.approx(1.0)

    def test_store_stats_capacity(self):
        _, cache = make_cache(mem_mb=2)
        assert cache.capacities[StoreKind.MEMORY] == 32
        assert cache.used[StoreKind.MEMORY] == 0
