"""End-to-end checks of the two-level weighted partitioning (Figure 5).

Under sustained demand from every container, the steady-state occupancy
must reflect the hypervisor-level VM weights *and*, within each VM, the
container `<T, W>` weights — simultaneously, on both stores.
"""

import pytest

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind


def saturating_reader(ctx, container, nblocks=4096):
    """Random reads over a dataset far beyond the cgroup limit: keeps
    steady put/get pressure on the hypervisor cache with a stationary
    occupancy (a cyclic scan would slosh the exclusive cache instead)."""
    f = container.create_file(nblocks)
    rng = ctx.streams.stream(f"reader.{container.name}")

    def loop(env):
        while True:
            start = rng.randrange(nblocks - 32)
            yield from container.read(f, start, 32)
            yield env.timeout(0.005)

    ctx.env.process(loop(ctx.env), name=f"reader-{container.name}")


class TestTwoLevelPartitioning:
    def test_vm_level_weights_hold_under_contention(self):
        ctx = SimContext(seed=51)
        host = ctx.create_host()
        cache = host.install_doubledecker(
            DDConfig(mem_capacity_mb=192, eviction_batch_mb=0.5)
        )
        vm1 = host.create_vm("vm1", memory_mb=512, cache_weight=33)
        vm2 = host.create_vm("vm2", memory_mb=512, cache_weight=67)
        c1 = vm1.create_container("c1", 64, CachePolicy.memory(100))
        c2 = vm2.create_container("c2", 64, CachePolicy.memory(100))
        saturating_reader(ctx, c1)
        saturating_reader(ctx, c2)
        ctx.run(until=240)
        share1 = cache.vm_used_mb(vm1.vm_id, StoreKind.MEMORY)
        share2 = cache.vm_used_mb(vm2.vm_id, StoreKind.MEMORY)
        assert share2 / max(1.0, share1) == pytest.approx(67 / 33, rel=0.25)

    def test_container_weights_within_vm(self):
        ctx = SimContext(seed=52)
        host = ctx.create_host()
        cache = host.install_doubledecker(
            DDConfig(mem_capacity_mb=192, eviction_batch_mb=0.5)
        )
        vm = host.create_vm("vm1", memory_mb=1024)
        c1 = vm.create_container("a", 64, CachePolicy.memory(25))
        c2 = vm.create_container("b", 64, CachePolicy.memory(75))
        saturating_reader(ctx, c1)
        saturating_reader(ctx, c2)
        ctx.run(until=240)
        used1 = cache.pool_used_mb(c1.pool_id, StoreKind.MEMORY)
        used2 = cache.pool_used_mb(c2.pool_id, StoreKind.MEMORY)
        assert used2 / max(1.0, used1) == pytest.approx(3.0, rel=0.3)

    def test_both_levels_and_both_stores_simultaneously(self):
        """The full Figure-5 topology: per-VM 33/67 applied to both the
        memory and the SSD store, containers splitting within."""
        ctx = SimContext(seed=53)
        host = ctx.create_host()
        cache = host.install_doubledecker(DDConfig(
            mem_capacity_mb=192, ssd_capacity_mb=192, eviction_batch_mb=0.5
        ))
        vm1 = host.create_vm("vm1", memory_mb=512, cache_weight=33)
        vm2 = host.create_vm("vm2", memory_mb=512, cache_weight=67)
        # VM1: one SSD container, one memory container (<SSD,100>/<Mem,100>).
        c1 = vm1.create_container("vm1-ssd", 64, CachePolicy.ssd(100))
        c2 = vm1.create_container("vm1-mem", 64, CachePolicy.memory(100))
        # VM2: memory 25/75 plus an SSD container.
        c3 = vm2.create_container("vm2-mem25", 64, CachePolicy.memory(25))
        c4 = vm2.create_container("vm2-mem75", 64, CachePolicy.memory(75))
        c5 = vm2.create_container("vm2-ssd", 64, CachePolicy.ssd(100))
        for container in (c1, c2, c3, c4, c5):
            saturating_reader(ctx, container, nblocks=4096)
        ctx.run(until=300)

        # Memory store: VM1 vs VM2 ~ 33:67.
        mem1 = cache.vm_used_mb(vm1.vm_id, StoreKind.MEMORY)
        mem2 = cache.vm_used_mb(vm2.vm_id, StoreKind.MEMORY)
        assert mem2 / max(1.0, mem1) == pytest.approx(67 / 33, rel=0.3)
        # SSD store: same VM ratio, independently.
        ssd1 = cache.vm_used_mb(vm1.vm_id, StoreKind.SSD)
        ssd2 = cache.vm_used_mb(vm2.vm_id, StoreKind.SSD)
        assert ssd2 / max(1.0, ssd1) == pytest.approx(67 / 33, rel=0.3)
        # Within VM2's memory share: 25:75.
        used3 = cache.pool_used_mb(c3.pool_id, StoreKind.MEMORY)
        used4 = cache.pool_used_mb(c4.pool_id, StoreKind.MEMORY)
        assert used4 / max(1.0, used3) == pytest.approx(3.0, rel=0.35)

    def test_idle_share_is_borrowed_then_returned(self):
        """Resource conservation: an idle container's share is usable by
        a busy one, and reclaimed (via Algorithm 1) once the owner wakes."""
        ctx = SimContext(seed=54)
        host = ctx.create_host()
        cache = host.install_doubledecker(
            DDConfig(mem_capacity_mb=128, eviction_batch_mb=0.5)
        )
        vm = host.create_vm("vm1", memory_mb=1024)
        busy = vm.create_container("busy", 64, CachePolicy.memory(50))
        idle = vm.create_container("idle", 64, CachePolicy.memory(50))
        saturating_reader(ctx, busy, nblocks=4096)
        ctx.run(until=120)
        # Busy borrowed well past its 64 MB entitlement.
        assert cache.pool_used_mb(busy.pool_id) > 80
        # The idle container wakes up.
        saturating_reader(ctx, idle, nblocks=4096)
        ctx.run(until=360)
        used_busy = cache.pool_used_mb(busy.pool_id)
        used_idle = cache.pool_used_mb(idle.pool_id)
        assert used_idle == pytest.approx(used_busy, rel=0.35)
