"""Integration tests for the guest OS: IO paths, reclaim, cleancache hooks.

These exercise the invariants the whole reproduction rests on:
exclusivity between page cache and hypervisor cache, cgroup limit
enforcement, writeback ordering, swap behaviour.
"""

import pytest

from repro.context import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind


def build(mem_cache_mb=256, vm_mb=1024, limits=(256,), policies=None,
          seed=3):
    ctx = SimContext(seed=seed)
    host = ctx.create_host()
    cache = host.install_doubledecker(DDConfig(mem_capacity_mb=mem_cache_mb))
    vm = host.create_vm("vm1", memory_mb=vm_mb)
    containers = []
    for idx, limit in enumerate(limits):
        policy = (policies[idx] if policies else CachePolicy.memory(100))
        containers.append(vm.create_container(f"c{idx}", limit, policy))
    return ctx, host, cache, vm, containers


def run(ctx, gen):
    return ctx.env.run(until=ctx.env.process(gen))


class TestReadPath:
    def test_first_read_comes_from_disk(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(16)
        run(ctx, c.read(f))
        assert host.hdd.stats.blocks_read == 16
        stats = c.cache_stats()
        assert stats.gets == 16  # every block missed the page cache
        assert stats.get_hits == 0  # and the hypervisor cache
        assert len(vm.os.pagecache) == 16
        assert ctx.now > 0

    def test_second_read_hits_page_cache(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(16)
        run(ctx, c.read(f))
        start = ctx.now
        run(ctx, c.read(f))
        assert host.hdd.stats.blocks_read == 16  # no new disk reads
        assert c.cache_stats().gets == 16  # nor a cleancache lookup
        assert ctx.now - start == pytest.approx(
            16 * vm.os.mem_spec.copy_time(host.block_bytes), rel=1e-12)

    def test_then_is_served_after_the_read_and_not_in_its_latency(self):
        """``then`` on the miss (trailing) and the hit (folded) path: the
        read ends exactly ``then`` after the same read without it."""
        def elapsed(then):
            ctx, host, cache, vm, (c,) = build()
            f = c.create_file(16)
            spans = []
            for _ in range(2):  # from disk, then all page-cache hits
                start = ctx.now
                run(ctx, c.read(f, then=then))
                spans.append((host.hdd.stats.blocks_read, ctx.now - start))
            return spans

        for (disk, plain), (disk_paced, paced) in zip(elapsed(0.0),
                                                      elapsed(0.25)):
            assert disk == disk_paced
            assert paced == pytest.approx(plain + 0.25, rel=1e-12)
            assert plain < 0.25
        ctx, host, cache, vm, (c,) = build()
        start = ctx.now
        assert run(ctx, c.touch_anon([0, 1], then=0.25)) == 0  # fresh pages
        assert ctx.now == start + 0.25
        run(ctx, c.touch_anon([0, 1], then=0.25))  # resident: folded
        touch = 2 * vm.os.mem_spec.touch_latency_us * 1e-6
        assert ctx.now == (start + 0.25 + touch) + 0.25

    def test_partial_range_read(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(16)
        run(ctx, c.read(f, 4, 8))
        assert set(vm.os.pagecache.entries) == {(f.inode, b) for b in range(4, 12)}
        assert host.hdd.stats.blocks_read == 8

    def test_read_beyond_eof_truncated(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(4)
        run(ctx, c.read(f, 2, 100))
        assert set(vm.os.pagecache.entries) == {(f.inode, 2), (f.inode, 3)}
        assert host.hdd.stats.blocks_read == 2


class TestExclusivity:
    def test_block_never_in_both_caches(self):
        """The central exclusivity invariant: any page-cache-resident
        block must be absent from the hypervisor cache."""
        ctx, host, cache, vm, (c,) = build(mem_cache_mb=64, limits=(64,))
        files = [c.create_file(256) for _ in range(3)]  # 48 MB total

        def driver():
            for _ in range(4):
                for f in files:
                    yield from c.read(f)
            return None

        run(ctx, driver())
        pool = cache._pools[c.pool_id]
        for key in vm.os.pagecache.entries:
            assert pool.lookup(*key) is None, f"{key} duplicated"

    def test_eviction_puts_then_reread_gets(self):
        ctx, host, cache, vm, (c,) = build(mem_cache_mb=256, limits=(64,))
        f = c.create_file(2048)  # 128 MB > 64 MB limit
        run(ctx, c.read(f))
        stats = c.cache_stats()
        assert stats.puts_stored > 0  # overflow went to the 2nd chance
        assert stats.get_hits == 0
        run(ctx, c.read(f))
        assert c.cache_stats().get_hits > 0  # and was recovered from it


class TestWritePath:
    def test_write_dirties_pages(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(8)
        run(ctx, c.write(f))
        assert len(vm.os.pagecache.dirty) == 8

    def test_fsync_cleans_and_writes(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(8)
        run(ctx, c.write(f))
        written = run(ctx, c.fsync(f))
        assert written == 8
        assert len(vm.os.pagecache.dirty) == 0
        assert host.hdd.stats.writes > 0

    def test_sync_write_combines(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(4)
        run(ctx, c.write(f, sync=True))
        assert len(vm.os.pagecache.dirty) == 0

    def test_overwrite_flushes_stale_hv_copy(self):
        """Writing a block not in the page cache must invalidate any stale
        hypervisor-cache copy (otherwise a later get returns old data)."""
        ctx, host, cache, vm, (c,) = build(mem_cache_mb=256, limits=(64,))
        f = c.create_file(2048)
        run(ctx, c.read(f))  # overflow pushed into hv cache
        pool_before = c.cache_stats().mem_used_blocks
        assert pool_before > 0
        # Overwrite the whole file; hv copies of cold blocks must vanish.
        run(ctx, c.write(f))
        stats = c.cache_stats()
        assert stats.flushes > 0

    def test_flusher_expires_dirty_pages(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(8)
        run(ctx, c.write(f))
        ctx.run(until=ctx.now + 60)  # dirty_expire (30 s) + flusher period
        assert len(vm.os.pagecache.dirty) == 0

    def test_append_extends_file(self):
        ctx, host, cache, vm, (c,) = build()
        f = c.create_file(1, append_slack=100)
        before = f.nblocks
        run(ctx, c.append(f, 4))
        assert f.nblocks == before + 4


class TestDelete:
    def test_delete_drops_pages_and_pool_content(self):
        ctx, host, cache, vm, (c,) = build(mem_cache_mb=256, limits=(64,))
        f = c.create_file(2048)
        run(ctx, c.read(f))
        assert c.cache_stats().mem_used_blocks > 0
        run(ctx, c.delete(f))
        assert c.cache_stats().mem_used_blocks == 0
        assert c.cgroup.file_blocks == 0
        assert vm.os.fs.get(f.inode) is None


class TestCgroupLimits:
    def test_file_pages_capped_by_limit(self):
        ctx, host, cache, vm, (c,) = build(limits=(64,))
        f = c.create_file(4096)  # 256 MB vs 64 MB limit
        run(ctx, c.read(f))
        limit = c.cgroup.limit_blocks
        assert c.cgroup.usage_blocks <= limit

    def test_anon_within_limit_no_swap(self):
        ctx, host, cache, vm, (c,) = build(limits=(64,))
        run(ctx, c.touch_anon(range(500)))  # ~31 MB < 64 MB
        assert c.cgroup.swap_out_blocks == 0
        assert c.cgroup.anon_blocks == 500

    def test_anon_over_limit_swaps(self):
        ctx, host, cache, vm, (c,) = build(limits=(64,))
        run(ctx, c.touch_anon(range(2000)))  # 125 MB > 64 MB
        assert c.cgroup.swap_out_blocks > 0
        assert c.cgroup.usage_blocks <= c.cgroup.limit_blocks

    def test_swapped_page_faults_back(self):
        ctx, host, cache, vm, (c,) = build(limits=(64,))
        run(ctx, c.touch_anon(range(2000)))
        swapped = next(iter(c.cgroup.anon.swapped))
        t0 = ctx.now
        reads = host.hdd.stats.reads
        run(ctx, c.touch_anon([swapped]))
        assert c.cgroup.anon.is_resident(swapped)
        assert ctx.now > t0  # swap-in cost real time
        assert host.hdd.stats.reads > reads  # read back from the swap area

    def test_mixed_anon_file_pressure_prefers_colder_class(self):
        ctx, host, cache, vm, (c,) = build(limits=(64,))
        run(ctx, c.touch_anon(range(400)))  # 25 MB anon, stays hot below
        f = c.create_file(2048)             # 128 MB of file traffic

        def driver():
            # Interleave: anon touched every round -> file pages colder.
            for start in range(0, 2048, 256):
                yield from c.read(f, start, 256)
                yield from c.touch_anon(range(400))
            return None

        run(ctx, driver())
        assert c.cgroup.swap_out_blocks == 0  # hot anon never swapped
        assert c.cgroup.anon_blocks == 400

    def test_dynamic_limit_change_applies_lazily(self):
        ctx, host, cache, vm, (c,) = build(limits=(128,))
        f = c.create_file(1600)
        run(ctx, c.read(f))
        c.set_memory_limit_mb(32)
        f2 = c.create_file(16)
        run(ctx, c.read(f2))  # next charge triggers reclaim to new limit
        assert c.cgroup.usage_blocks <= c.cgroup.limit_blocks


class TestVMLevelReclaim:
    def test_vm_capacity_enforced(self):
        ctx, host, cache, vm, containers = build(
            vm_mb=512, limits=(1024, 1024), mem_cache_mb=256
        )
        c1, c2 = containers
        f1 = c1.create_file(4096)
        f2 = c2.create_file(4096)

        def driver():
            yield from c1.read(f1)
            yield from c2.read(f2)
            return None

        run(ctx, driver())
        assert vm.os.total_usage_blocks() <= vm.os.memory_blocks


class TestMigration:
    def test_shared_file_migrates_pools(self):
        ctx, host, cache, vm, containers = build(
            limits=(64, 64),
            policies=[CachePolicy.memory(50), CachePolicy.memory(50)],
        )
        c1, c2 = containers
        f = c1.create_file(2048)
        run(ctx, c1.read(f))      # c1 owns hv copies
        assert cache._pools[c1.pool_id].used[StoreKind.MEMORY] > 0
        run(ctx, c2.read(f))      # c2 reads the shared file
        # MIGRATE_OBJECT re-homed the file: c1's pool no longer holds it.
        tree = cache._pools[c1.pool_id].files.get(f.inode)
        assert tree is None or len(tree) == 0
