#!/usr/bin/env python3
"""Quickstart: a DoubleDecker cache protecting two containers in one VM.

Boots a host with a 512 MB DoubleDecker memory cache, one 2 GB VM, and
two containers running a webserver and a mail workload whose datasets
exceed their cgroup limits.  Prints per-container throughput and the
hypervisor-cache statistics the in-VM policy controller would see via
GET_STATS.

Run:  python examples/quickstart.py
"""

from repro import CachePolicy, DDConfig, SimContext
from repro.workloads import VarmailWorkload, WebserverWorkload


def main() -> None:
    ctx = SimContext(seed=42)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=512))

    vm = host.create_vm("vm1", memory_mb=2048)
    # <T, W> policies: webserver gets 60% of the VM's memory-store share,
    # mail 40%.
    web = vm.create_container("web", 512, CachePolicy.memory(60))
    mail = vm.create_container("mail", 512, CachePolicy.memory(40))

    web_wl = WebserverWorkload(nfiles=6000, mean_size_kb=128, threads=2)
    mail_wl = VarmailWorkload(nfiles=8000, mean_size_kb=32, threads=2)
    web_wl.start(web, ctx.streams)
    mail_wl.start(mail, ctx.streams)

    print("warming up (120 simulated seconds)...")
    ctx.run(until=120)
    snaps = {w.name: w.snapshot() for w in (web_wl, mail_wl)}

    print("measuring (180 simulated seconds)...")
    ctx.run(until=300)

    for workload, container in ((web_wl, web), (mail_wl, mail)):
        rates = workload.snapshot().rates_since(snaps[workload.name])
        stats = container.cache_stats()
        print(f"\n== {workload.name} ==")
        print(f"  throughput : {rates['ops_per_s']:8.1f} ops/s "
              f"({rates['mb_per_s']:.1f} MB/s)")
        print(f"  latency    : {rates['mean_latency_ms']:8.2f} ms/op")
        print(f"  in-VM mem  : {container.file_mb + container.anon_mb:8.1f} MB "
              f"(limit {container.cgroup.limit_blocks * container.vm.block_bytes >> 20} MB)")
        print(f"  hv cache   : {container.hvcache_mb:8.1f} MB "
              f"(entitled {stats.mem_entitlement_blocks * container.vm.block_bytes >> 20} MB)")
        print(f"  2nd-chance : {100 * stats.hit_ratio:5.1f}% hit ratio, "
              f"{stats.evictions} evictions")


if __name__ == "__main__":
    main()
