"""Additional guest-OS edge cases: appends, wraps, fsync corners,
flusher interactions, multi-container file sharing accounting."""


from repro import SimContext
from repro.core import CachePolicy, DDConfig


def build(limit_mb=128, seed=81):
    ctx = SimContext(seed=seed)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=128))
    vm = host.create_vm("vm1", memory_mb=1024)
    c = vm.create_container("c", limit_mb, CachePolicy.memory(100))
    return ctx, host, vm, c


def run(ctx, gen):
    return ctx.env.run(until=ctx.env.process(gen))


class TestAppendSemantics:
    def test_append_wraps_in_circular_log(self):
        ctx, host, vm, c = build()
        log = c.create_file(0, append_slack=8)

        def driver():
            for _ in range(20):  # way past the 8-block extent
                yield from c.append(log, 1)
            return None

        run(ctx, driver())
        assert log.nblocks == 8  # capped at the extent

    def test_append_with_sync_lands_on_disk(self):
        ctx, host, vm, c = build()
        log = c.create_file(0, append_slack=64)
        writes_before = host.hdd.stats.writes
        run(ctx, c.append(log, 2, sync=True))
        assert host.hdd.stats.writes > writes_before


class TestFsyncCorners:
    def test_fsync_clean_file_is_free(self):
        ctx, host, vm, c = build()
        f = c.create_file(8)
        run(ctx, c.read(f))
        t0 = ctx.now
        written = run(ctx, c.fsync(f))
        assert written == 0
        assert ctx.now == t0  # nothing to write

    def test_double_fsync_writes_once(self):
        ctx, host, vm, c = build()
        f = c.create_file(8)

        def driver():
            yield from c.write(f)
            first = yield from c.fsync(f)
            second = yield from c.fsync(f)
            return (first, second)

        first, second = run(ctx, driver())
        assert first == 8
        assert second == 0

    def test_rewrite_after_fsync_dirties_again(self):
        ctx, host, vm, c = build()
        f = c.create_file(4)

        def driver():
            yield from c.write(f, sync=True)
            yield from c.write(f, 0, 2)
            return None

        run(ctx, driver())
        assert len(vm.os.pagecache.dirty) == 2


class TestSharedFiles:
    def test_pages_charged_to_first_toucher(self):
        ctx, host, vm, c1 = build()
        c2 = vm.create_container("c2", 128, CachePolicy.memory(50))
        f = c1.create_file(16)
        run(ctx, c1.read(f))
        assert c1.cgroup.file_blocks == 16
        # The second reader hits c1's pages: no double charging.
        run(ctx, c2.read(f))
        assert c2.cgroup.file_blocks == 0
        assert c1.cgroup.file_blocks == 16

    def test_delete_shared_file_uncharges_owner(self):
        ctx, host, vm, c1 = build()
        c2 = vm.create_container("c2", 128, CachePolicy.memory(50))
        f = c1.create_file(16)
        run(ctx, c1.read(f))
        run(ctx, c2.delete(f))  # deleted by the non-owner
        assert c1.cgroup.file_blocks == 0
        assert len(vm.os.pagecache) == 0


class TestFlusherInteraction:
    def test_flusher_only_writes_expired_pages(self):
        ctx, host, vm, c = build()
        f = c.create_file(8)
        run(ctx, c.write(f))
        # Well before dirty_expire (30 s): still dirty.
        ctx.run(until=ctx.now + 10)
        assert len(vm.os.pagecache.dirty) == 8
        ctx.run(until=ctx.now + 40)
        assert len(vm.os.pagecache.dirty) == 0

    def test_reclaim_of_dirty_pages_writes_before_put(self):
        ctx, host, vm, c = build(limit_mb=4)  # 64-block container
        f = c.create_file(256)
        writes_before = host.hdd.stats.writes
        run(ctx, c.write(f))  # dirties 256 blocks through a 64-block limit
        # Reclaim had to write back the overflow before evicting it.
        assert host.hdd.stats.writes > writes_before
        stats = c.cache_stats()
        assert stats.puts_stored > 0  # and then offered it to the cache


class TestReadAccounting:
    def test_sources_partition_the_blocks(self):
        ctx, host, vm, c = build()
        f = c.create_file(32)
        start = ctx.now
        run(ctx, c.read(f))
        first = ctx.now - start
        stats = c.cache_stats()
        # Page-cache misses went to the cache; its misses to the disk.
        assert stats.gets == 32
        assert stats.get_hits + host.hdd.stats.blocks_read == 32
        start = ctx.now
        run(ctx, c.read(f))
        assert c.cache_stats().gets == 32  # all 32 hit the page cache
        assert ctx.now - start < first


class TestMultiVMIsolation:
    def test_vm_page_caches_are_disjoint(self):
        ctx = SimContext(seed=83)
        host = ctx.create_host()
        host.install_doubledecker(DDConfig(mem_capacity_mb=64))
        vm1 = host.create_vm("vm1", memory_mb=512)
        vm2 = host.create_vm("vm2", memory_mb=512)
        c1 = vm1.create_container("a", 64, CachePolicy.memory(100))
        c2 = vm2.create_container("b", 64, CachePolicy.memory(100))
        f1 = c1.create_file(16)
        f2 = c2.create_file(16)
        run(ctx, c1.read(f1))
        run(ctx, c2.read(f2))
        # Same inode numbers in different VMs must not collide.
        assert f1.inode == f2.inode
        assert len(vm1.os.pagecache) == 16
        assert len(vm2.os.pagecache) == 16

    def test_same_inode_different_vms_in_cache(self):
        """Pool namespacing: identical (inode, block) keys from two VMs
        coexist in the hypervisor cache without cross-talk."""
        ctx = SimContext(seed=84)
        host = ctx.create_host()
        host.install_doubledecker(DDConfig(mem_capacity_mb=256))
        vm1 = host.create_vm("vm1", memory_mb=512)
        vm2 = host.create_vm("vm2", memory_mb=512)
        c1 = vm1.create_container("a", 16, CachePolicy.memory(100))
        c2 = vm2.create_container("b", 16, CachePolicy.memory(100))
        f1 = c1.create_file(1024)
        f2 = c2.create_file(1024)
        run(ctx, c1.read(f1))
        run(ctx, c2.read(f2))
        s1 = c1.cache_stats()
        s2 = c2.cache_stats()
        assert s1.mem_used_blocks > 0
        assert s2.mem_used_blocks > 0
        # A get from VM1 must never return VM2's blocks.
        before = s2.mem_used_blocks
        run(ctx, c1.read(f1))
        assert c2.cache_stats().mem_used_blocks >= before - 64
