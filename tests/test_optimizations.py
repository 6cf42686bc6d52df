"""Tests for memory-store compression and deduplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, StoreKind, check_cache
from repro.core.optimizations import (
    CompressionModel,
    DedupIndex,
    content_fingerprint,
)
from repro.obs import Tracer, set_tracer
from repro.simkernel import Environment
from repro.storage import MB

BLK = 64 * 1024


def run_gen(env, gen):
    return env.run(until=env.process(gen))


class TestCompressionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(min_ratio=0.9, max_ratio=0.5)
        with pytest.raises(ValueError):
            CompressionModel(min_ratio=0.0)
        with pytest.raises(ValueError):
            CompressionModel(granularity=0)

    def test_ratio_deterministic_and_bounded(self):
        model = CompressionModel(min_ratio=0.3, max_ratio=0.8)
        for key in [(1, 0), (1, 1), (2, 5)]:
            ratio = model.ratio_for(key)
            assert ratio == model.ratio_for(key)
            assert 0.3 <= ratio <= 0.8

    def test_charged_units(self):
        model = CompressionModel(min_ratio=0.5, max_ratio=0.5, granularity=16)
        assert model.charged_units((1, 0)) == 8

    def test_cpu_costs(self):
        model = CompressionModel()
        assert model.compress_cost(10) > 0
        assert model.decompress_cost(10) > 0
        assert model.compress_cost(0) == 0.0


class TestDedupIndex:
    def test_unique_default_fingerprints(self):
        index = DedupIndex()
        assert index.insert("vm1", 1, 0) is True
        assert index.insert("vm1", 1, 1) is True
        assert index.unique_blocks == 2
        assert index.savings_blocks == 0

    def test_shared_content_refcounts(self):
        shared = lambda ns, inode, block: block  # all files share content
        index = DedupIndex(shared)
        assert index.insert("vm1", 1, 0) is True
        assert index.insert("vm1", 2, 0) is False  # duplicate
        assert index.unique_blocks == 1
        assert index.logical_blocks == 2
        assert index.savings_blocks == 1

    def test_remove_releases_only_last_ref(self):
        shared = lambda ns, inode, block: block
        index = DedupIndex(shared)
        index.insert("vm1", 1, 0)
        index.insert("vm1", 2, 0)
        assert index.remove("vm1", 1, 0) is False  # still referenced
        assert index.remove("vm1", 2, 0) is True   # last reference
        assert index.unique_blocks == 0
        assert index.logical_blocks == 0

    def test_double_insert_same_key_ignored(self):
        index = DedupIndex()
        index.insert("vm1", 1, 0)
        assert index.insert("vm1", 1, 0) is False
        assert index.logical_blocks == 1

    def test_remove_unknown_is_noop(self):
        index = DedupIndex()
        assert index.remove("vm1", 9, 9) is False

    def test_holds(self):
        index = DedupIndex()
        index.insert("vm1", 1, 0)
        assert index.holds("vm1", 1, 0)
        assert not index.holds("vm1", 1, 1)

    def test_default_fingerprint_distinguishes_namespaces(self):
        a = content_fingerprint("vm1", 1, 0)
        b = content_fingerprint("vm2", 1, 0)
        assert a != b


class TestCompressedCache:
    def make(self, ratio=0.5):
        env = Environment()
        model = CompressionModel(min_ratio=ratio, max_ratio=ratio,
                                 granularity=16)
        cache = DoubleDeckerCache(
            env, DDConfig(mem_capacity_mb=1, compression=model), BLK
        )
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        return env, cache, vm, pool

    def test_compression_fits_more_blocks(self):
        """At ratio 0.5 a 16-block store must hold ~32 blocks."""
        env, cache, vm, pool = self.make(ratio=0.5)
        stored = run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(30)]))
        assert stored == 30
        assert cache.used[StoreKind.MEMORY] == 30  # logical blocks
        assert cache.mem_physical_mb <= 1.0        # physical within 1 MB

    def test_physical_capacity_still_enforced(self):
        env, cache, vm, pool = self.make(ratio=0.5)
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(100)]))
        assert cache.mem_units.used <= cache.capacities[StoreKind.MEMORY] * 16

    def test_get_releases_units(self):
        env, cache, vm, pool = self.make(ratio=0.5)
        run_gen(env, cache.put_many(vm, pool, [(1, 0)]))
        units = cache.mem_units.used
        assert units > 0
        run_gen(env, cache.get_many(vm, pool, [(1, 0)]))
        assert cache.mem_units.used == 0

    def test_flush_releases_units(self):
        env, cache, vm, pool = self.make()
        run_gen(env, cache.put_many(vm, pool, [(1, 0), (1, 1)]))
        cache.flush_many(vm, pool, [(1, 0)])
        cache.flush_inode(vm, pool, 1)
        assert cache.mem_units.used == 0

    def test_destroy_pool_releases_units(self):
        env, cache, vm, pool = self.make()
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(8)]))
        cache.destroy_pool(vm, pool)
        assert cache.mem_units.used == 0

    def test_compression_costs_time(self):
        env, cache, vm, pool = self.make()
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(8)]))
        t_put = env.now
        assert t_put > 0
        run_gen(env, cache.get_many(vm, pool, [(1, i) for i in range(8)]))
        assert env.now > t_put


class TestDedupCache:
    def make(self, fingerprint=None):
        env = Environment()
        cache = DoubleDeckerCache(
            env,
            DDConfig(mem_capacity_mb=1, dedup=True,
                     dedup_fingerprint=fingerprint),
            BLK,
        )
        return env, cache

    def test_duplicate_content_shares_capacity(self):
        # Two containers cache byte-identical files (e.g., a base image).
        shared = lambda ns, inode, block: block
        env, cache = self.make(shared)
        vm = cache.register_vm("vm")
        p1 = cache.create_pool(vm, "a", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "b", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, i) for i in range(10)]))
        run_gen(env, cache.put_many(vm, p2, [(2, i) for i in range(10)]))
        assert cache.used[StoreKind.MEMORY] == 20      # logical
        assert cache.mem_units.used == 10             # physical (shared)
        assert cache.dedup.savings_blocks == 10

    def test_dedup_allows_overcommit_beyond_block_capacity(self):
        shared = lambda ns, inode, block: block % 4  # only 4 contents exist
        env, cache = self.make(shared)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        stored = run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(64)]))
        assert stored == 64            # 64 logical blocks...
        assert cache.mem_units.used == 4  # ...but 4 physical

    def test_release_keeps_shared_content(self):
        shared = lambda ns, inode, block: block
        env, cache = self.make(shared)
        vm = cache.register_vm("vm")
        p1 = cache.create_pool(vm, "a", CachePolicy.memory(50))
        p2 = cache.create_pool(vm, "b", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, p1, [(1, 0)]))
        run_gen(env, cache.put_many(vm, p2, [(2, 0)]))
        # p1's copy leaves; p2's logical copy still needs the content.
        run_gen(env, cache.get_many(vm, p1, [(1, 0)]))
        assert cache.mem_units.used == 1
        run_gen(env, cache.get_many(vm, p2, [(2, 0)]))
        assert cache.mem_units.used == 0

    def test_migration_is_unit_neutral(self):
        """Re-homing a file between pools releases and re-charges each
        memory block through the pools, so under dedup and compression
        the unit total, the refcounts and the logical count come out
        where they went in."""
        shared = lambda ns, inode, block: block % 3
        env = Environment()
        cache = DoubleDeckerCache(
            env,
            DDConfig(mem_capacity_mb=1, compression=CompressionModel(),
                     dedup=True, dedup_fingerprint=shared),
            BLK,
        )
        vm = cache.register_vm("vm")
        a = cache.create_pool(vm, "a", CachePolicy.memory(50))
        b = cache.create_pool(vm, "b", CachePolicy.memory(50))
        run_gen(env, cache.put_many(vm, a, [(1, i) for i in range(6)]))
        run_gen(env, cache.put_many(vm, b, [(2, i) for i in range(4)]))
        before = (cache.mem_units.used, dict(cache.dedup._refcounts),
                  cache.dedup.logical_blocks)
        assert cache.migrate_objects(vm, a, b, 1) == 6
        assert cache.migrate_objects(vm, b, a, 2) == 4
        assert (cache.mem_units.used, dict(cache.dedup._refcounts),
                cache.dedup.logical_blocks) == before
        assert check_cache(cache) == []

    def test_make_room_evicts_through_shared_content(self):
        # Evicting a deduplicated block frees no memory unit while another
        # copy of its content stays cached, so making room for one unit
        # can take more rounds than the store has blocks.  The loop must
        # keep going while rounds free blocks, not give up at a round
        # count tied to capacity.
        shared = lambda ns, inode, block: "base" if inode == 1 else (inode, block)
        env = Environment()
        tracer = Tracer()  # counts the rounds: one evict.round instant each
        set_tracer(tracer)
        try:
            cache = DoubleDeckerCache(
                env,
                DDConfig(mem_capacity_mb=4 * BLK / MB, eviction_batch_mb=BLK / MB,
                         dedup=True, dedup_fingerprint=shared),
                BLK,
            )
            vm = cache.register_vm("vm")
            a = cache.create_pool(vm, "a", CachePolicy.memory(50))
            b = cache.create_pool(vm, "b", CachePolicy.memory(50))
            run_gen(env, cache.put_many(vm, a, [(1, i) for i in range(10)]))
            run_gen(env, cache.put_many(vm, a, [(2, i) for i in range(3)]))
            assert cache.mem_units.used == cache.capacities[StoreKind.MEMORY] == 4
            assert run_gen(env, cache.put_many(vm, b, [(3, 0)])) == 1
        finally:
            set_tracer(None)
        assert cache.pool_stats(vm, b).put_rejected_capacity == 0
        # All ten copies of the shared content had to go (one per round)
        # before its unit was freed; the unique blocks stay.
        rounds = [event for event in tracer.events
                  if event["name"] == "evict.round"]
        assert len(rounds) == 10
        assert sorted(cache._pools[a].iter_keys(StoreKind.MEMORY)) == [
            (2, 0), (2, 1), (2, 2)]
        assert cache.mem_units.used == 4


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "get", "flush"]),
                  st.integers(min_value=1, max_value=3),   # inode
                  st.integers(min_value=0, max_value=30)), # block
        max_size=60,
    )
)
def test_units_accounting_never_negative_or_leaky(ops):
    """Random put/get/flush interleavings keep unit accounting exact."""
    env = Environment()
    model = CompressionModel(min_ratio=0.4, max_ratio=0.9)
    cache = DoubleDeckerCache(
        env, DDConfig(mem_capacity_mb=1, compression=model, dedup=True), BLK
    )
    vm = cache.register_vm("vm")
    pool = cache.create_pool(vm, "c", CachePolicy.memory(100))

    def driver():
        for op, inode, block in ops:
            if op == "put":
                yield from cache.put_many(vm, pool, [(inode, block)])
            elif op == "get":
                yield from cache.get_many(vm, pool, [(inode, block)])
            else:
                cache.flush_many(vm, pool, [(inode, block)])

    env.run(until=env.process(driver()))
    assert cache.mem_units.used >= 0
    assert cache.mem_units.used <= cache.capacities[StoreKind.MEMORY] * 16
    # Drain everything: accounting must return exactly to zero.
    remaining = list(cache._pools[pool].iter_keys(StoreKind.MEMORY))
    env.run(until=env.process(cache.get_many(vm, pool, remaining)))
    assert cache.mem_units.used == 0
    assert cache.used[StoreKind.MEMORY] == 0
