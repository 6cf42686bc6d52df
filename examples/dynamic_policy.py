#!/usr/bin/env python3
"""Live policy reconfiguration (the paper's §5.3 capabilities).

Starts two containers at weights 60/40, hot-plugs a videoserver container
mid-run (weights become 50/30/20), then dynamically moves the video
container to the SSD store and restores 60/40 — all without restarting
anything.  Prints an ASCII chart of the cache occupancy over time, the
simulated analogue of the paper's Figure 12.

Run:  python examples/dynamic_policy.py
"""

from repro import CachePolicy, DDConfig, SimContext, StoreKind
from repro.experiments import OccupancySampler
from repro.metrics import ascii_plot
from repro.workloads import (
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
)

PHASE = 200.0  # seconds per phase


def main() -> None:
    ctx = SimContext(seed=21)
    host = ctx.create_host()
    cache = host.install_doubledecker(
        DDConfig(mem_capacity_mb=512, ssd_capacity_mb=65536)
    )
    vm = host.create_vm("vm1", memory_mb=4096)

    c1 = vm.create_container("web", 512, CachePolicy.memory(60))
    c2 = vm.create_container("proxy", 512, CachePolicy.memory(40))
    WebserverWorkload(nfiles=8000, threads=2).start(c1, ctx.streams)
    WebproxyWorkload(nfiles=8000, threads=2).start(c2, ctx.streams)

    sampler = OccupancySampler(ctx, interval_s=5.0)
    sampler.watch_pool(cache, "web(mem)", c1.pool_id, StoreKind.MEMORY)
    sampler.watch_pool(cache, "proxy(mem)", c2.pool_id, StoreKind.MEMORY)
    sampler.start()

    def orchestrator(env):
        yield env.timeout(PHASE)
        print(f"[t={env.now:.0f}] booting video container; weights -> 50/30/20")
        c3 = vm.create_container("video", 512, CachePolicy.memory(20))
        VideoserverWorkload(nvideos=6, video_mb=128, threads=2,
                            stream_pace_ms=2.0).start(c3, ctx.streams)
        sampler.watch_pool(cache, "video(mem)", c3.pool_id, StoreKind.MEMORY)
        sampler.watch_pool(cache, "video(ssd)", c3.pool_id, StoreKind.SSD)
        c1.set_cache_policy(CachePolicy.memory(50))
        c2.set_cache_policy(CachePolicy.memory(30))

        yield env.timeout(PHASE)
        print(f"[t={env.now:.0f}] moving video to SSD; weights -> 60/40")
        c3.set_cache_policy(CachePolicy.ssd(100))
        c1.set_cache_policy(CachePolicy.memory(60))
        c2.set_cache_policy(CachePolicy.memory(40))

    ctx.env.process(orchestrator(ctx.env), name="orchestrator")
    print(f"running 3 phases of {PHASE:.0f}s...")
    ctx.run(until=3 * PHASE)

    print()
    print(ascii_plot(sampler.series, width=72, height=14,
                     title="hypervisor-cache occupancy (MB)"))


if __name__ == "__main__":
    main()
