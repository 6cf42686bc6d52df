"""Failure-injection and stress tests.

These exercise the unhappy paths: containers and VMs torn down while IO
is in flight, stores saturated or resized under load, workloads
interrupted mid-operation, write buffers overflowing.
"""


from unittest import mock

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind, stores
from repro.workloads import VarmailWorkload, WebserverWorkload


def build(mem_cache_mb=64, ssd_mb=0.0, seed=41):
    ctx = SimContext(seed=seed)
    host = ctx.create_host()
    with mock.patch.object(stores, "SSD_WRITE_BUFFER_MB", 1.0):
        cache = host.install_doubledecker(
            DDConfig(mem_capacity_mb=mem_cache_mb, ssd_capacity_mb=ssd_mb))
    vm = host.create_vm("vm1", memory_mb=1024)
    return ctx, host, cache, vm


class TestTeardownUnderLoad:
    def test_container_destroyed_while_workload_runs(self):
        ctx, host, cache, vm = build()
        c = vm.create_container("doomed", 128, CachePolicy.memory(100))
        workload = WebserverWorkload(nfiles=500, threads=2)
        workload.start(c, ctx.streams)
        ctx.run(until=20)
        workload.stop()
        vm.destroy_container(c)
        # Everything the container held is released.
        assert cache.used[StoreKind.MEMORY] == 0
        assert vm.os.total_usage_blocks() == 0
        # The simulation continues cleanly afterwards.
        survivor = vm.create_container("next", 128, CachePolicy.memory(100))
        f = survivor.create_file(16)
        ctx.env.run(until=ctx.env.process(survivor.read(f)))
        assert survivor.cgroup.file_blocks == 16

    def test_vm_destroyed_releases_cache(self):
        ctx, host, cache, vm = build()
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        f = c.create_file(2048)
        ctx.env.run(until=ctx.env.process(c.read(f)))
        assert cache.used[StoreKind.MEMORY] > 0
        host.destroy_vm(vm)
        assert cache.used[StoreKind.MEMORY] == 0

    def test_two_workloads_one_stopped_other_unaffected(self):
        ctx, host, cache, vm = build(mem_cache_mb=128)
        c1 = vm.create_container("a", 128, CachePolicy.memory(50))
        c2 = vm.create_container("b", 128, CachePolicy.memory(50))
        w1 = WebserverWorkload(name="w1", nfiles=400, threads=1)
        w2 = WebserverWorkload(name="w2", nfiles=400, threads=1)
        w1.start(c1, ctx.streams)
        w2.start(c2, ctx.streams)
        ctx.run(until=15)
        w1.stop()
        before = w2.counters.ops
        ctx.run(until=30)
        assert w2.counters.ops > before


class TestStoreStress:
    def test_ssd_write_buffer_saturation_rejects_gracefully(self):
        """A 1 MB write buffer under a put storm must reject puts, not
        stall or corrupt accounting."""
        ctx, host, cache, vm = build(mem_cache_mb=0, ssd_mb=1024)
        c = vm.create_container("c", 64, CachePolicy.ssd(100))
        f = c.create_file(4096)  # 256 MB through a 64 MB container

        def reader():
            yield from c.read(f)
            return None

        ctx.env.run(until=ctx.env.process(reader()))
        pool = cache._pools[c.pool_id]
        assert pool.stats.put_rejected_backpressure > 0
        # Accounting stays sane: metadata only for blocks actually queued.
        assert pool.used[StoreKind.SSD] == cache.used[StoreKind.SSD]
        assert cache.used[StoreKind.SSD] <= cache.capacities[StoreKind.SSD]

    def test_capacity_shrink_to_zero_under_load(self):
        ctx, host, cache, vm = build(mem_cache_mb=64)
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        f = c.create_file(2048)
        ctx.env.run(until=ctx.env.process(c.read(f)))
        cache.set_capacity(StoreKind.MEMORY, 0.0)
        assert cache.used[StoreKind.MEMORY] == 0
        # Subsequent puts are rejected but gets still answer (miss).
        ctx.env.run(until=ctx.env.process(c.read(f, 0, 16)))
        assert cache.used[StoreKind.MEMORY] == 0

    def test_zero_capacity_cache_never_stores(self):
        ctx, host, cache, vm = build(mem_cache_mb=0)
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        f = c.create_file(2048)
        ctx.env.run(until=ctx.env.process(c.read(f)))
        assert cache.used[StoreKind.MEMORY] == 0
        stats = c.cache_stats()
        assert stats.puts_stored == 0

    def test_rapid_policy_flapping(self):
        """Policy flapping mid-traffic must never corrupt accounting."""
        ctx, host, cache, vm = build(mem_cache_mb=64, ssd_mb=512)
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        workload = WebserverWorkload(nfiles=600, threads=1)
        workload.start(c, ctx.streams)

        def flapper(env):
            policies = [CachePolicy.memory(100), CachePolicy.ssd(100),
                        CachePolicy.none(), CachePolicy.hybrid(50, 50)]
            for i in range(20):
                yield env.timeout(2)
                c.set_cache_policy(policies[i % len(policies)])

        ctx.env.process(flapper(ctx.env))
        ctx.run(until=60)
        pool = cache._pools[c.pool_id]
        assert pool.used[StoreKind.MEMORY] == cache.used[StoreKind.MEMORY]
        assert pool.used[StoreKind.SSD] == cache.used[StoreKind.SSD]
        assert cache.used[StoreKind.MEMORY] >= 0


class TestGuestStress:
    def test_fsync_storm_on_shared_disk(self):
        """Many fsync-heavy threads on one spindle: progress, no deadlock."""
        ctx, host, cache, vm = build()
        c = vm.create_container("mail", 256, CachePolicy.memory(100))
        workload = VarmailWorkload(nfiles=500, threads=8)
        workload.start(c, ctx.streams)
        ctx.run(until=30)
        assert workload.counters.ops > 8

    def test_swap_thrash_does_not_livelock(self):
        """Anon WSS 4x the limit: throughput collapses but ops complete."""
        ctx, host, cache, vm = build()
        c = vm.create_container("thrash", 32, CachePolicy.none())
        done = {"count": 0}

        def thrasher(env, rng):
            pages = list(range(2048))  # 128 MB vs 32 MB limit
            while True:
                page = rng.choice(pages)
                yield from c.touch_anon([page])
                done["count"] += 1

        ctx.env.process(thrasher(ctx.env, ctx.streams.stream("t")))
        ctx.run(until=60)
        assert done["count"] > 10
        assert c.cgroup.swap_out_blocks > 0
        assert c.cgroup.usage_blocks <= c.cgroup.limit_blocks

    def test_delete_file_with_dirty_pages_in_flight(self):
        ctx, host, cache, vm = build()
        c = vm.create_container("c", 128, CachePolicy.memory(100))
        f = c.create_file(64)

        def driver():
            yield from c.write(f)          # dirty everything
            yield from c.delete(f)         # delete before writeback
            return None

        ctx.env.run(until=ctx.env.process(driver()))
        assert len(vm.os.pagecache.dirty) == 0
        assert vm.os.total_usage_blocks() == 0
        # The flusher must not crash on the vanished file.
        ctx.run(until=ctx.now + 60)

    def test_interrupted_workload_leaves_consistent_state(self):
        ctx, host, cache, vm = build()
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        workload = WebserverWorkload(nfiles=800, threads=4)
        workload.start(c, ctx.streams)
        ctx.run(until=7.3)  # mid-flight, deliberately awkward time
        workload.stop()
        ctx.run(until=ctx.now + 10)
        assert c.cgroup.file_blocks == vm.os.pagecache.cgroup_pages(
            c.cgroup.cgroup_id
        )
