#!/usr/bin/env python3
"""The paper's Figure-5 architecture, end to end.

Two virtual machines with hypervisor-level weights 33 and 67 share a
DoubleDecker cache with both a memory store and an SSD store:

* VM1 hosts two containers: Container 1 `<SSD, 100>` (a videoserver) and
  Container 2 `<Mem, 100>` (a webserver);
* VM2 hosts three containers: memory weights 25/75 for a webserver and a
  proxy, and `<SSD, 100>` for a mail archive scanner.

Shows the two-level weighted partitioning in action: per-VM shares are
split 33/67 on *both* stores, and each VM's share is subdivided by its
own containers' `<T, W>` tuples.

Run:  python examples/derivative_cloud.py
"""

from repro import CachePolicy, DDConfig, SimContext, StoreKind
from repro.workloads import (
    VarmailWorkload,
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
)


def main() -> None:
    ctx = SimContext(seed=7)
    host = ctx.create_host()
    cache = host.install_doubledecker(
        DDConfig(mem_capacity_mb=1536, ssd_capacity_mb=65536)
    )

    vm1 = host.create_vm("vm1", memory_mb=2048, cache_weight=33)
    vm2 = host.create_vm("vm2", memory_mb=3072, cache_weight=67)

    # VM1's policy controller: video on SSD, web in memory.
    c1 = vm1.create_container("vm1-video", 512, CachePolicy.ssd(100))
    c2 = vm1.create_container("vm1-web", 512, CachePolicy.memory(100))
    # VM2's policy controller: web/proxy split 25/75, mail on SSD.
    c3 = vm2.create_container("vm2-web", 512, CachePolicy.memory(25))
    c4 = vm2.create_container("vm2-proxy", 512, CachePolicy.memory(75))
    c5 = vm2.create_container("vm2-mail", 512, CachePolicy.ssd(100))

    workloads = [
        (VideoserverWorkload(name="vm1-video", nvideos=6, video_mb=256,
                             threads=2, stream_pace_ms=2.0), c1),
        (WebserverWorkload(name="vm1-web", nfiles=6000, threads=2), c2),
        (WebserverWorkload(name="vm2-web", nfiles=6000, threads=2), c3),
        (WebproxyWorkload(name="vm2-proxy", nfiles=8000, threads=2), c4),
        (VarmailWorkload(name="vm2-mail", nfiles=16000, threads=2), c5),
    ]
    for workload, container in workloads:
        workload.start(container, ctx.streams)

    print("running 300 simulated seconds...")
    ctx.run(until=300)

    print(f"\n{'container':12s} {'store':6s} {'used MB':>8s} "
          f"{'entitled MB':>12s} {'hit %':>6s}")
    blk = host.block_bytes
    evictions = 0
    for _, container in workloads:
        stats = container.cache_stats()
        evictions += stats.evictions
        policy = container.cgroup.policy
        kind = "SSD" if policy.ssd_weight > 0 else "mem"
        used = (stats.mem_used_blocks + stats.ssd_used_blocks) * blk >> 20
        entitled = (
            stats.mem_entitlement_blocks + stats.ssd_entitlement_blocks
        ) * blk >> 20
        print(f"{container.name:12s} {kind:6s} {used:8d} {entitled:12d} "
              f"{100 * stats.hit_ratio:6.1f}")

    print(f"\nstore totals ({evictions} evictions):")
    for kind, capacity in cache.capacities.items():
        print(f"  {kind}: {cache.used[kind] * blk >> 20} MB used of "
              f"{capacity * blk >> 20} MB")

    # The invariant Figure 5 illustrates: per-VM shares follow 33/67 on
    # both stores, regardless of how containers subdivide them.
    for kind in (StoreKind.MEMORY, StoreKind.SSD):
        vm1_mb = cache.vm_used_mb(vm1.vm_id, kind)
        vm2_mb = cache.vm_used_mb(vm2.vm_id, kind)
        print(f"  {kind}: VM1 {vm1_mb:.0f} MB vs VM2 {vm2_mb:.0f} MB")


if __name__ == "__main__":
    main()
