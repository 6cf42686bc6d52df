#!/usr/bin/env python3
"""Cooperative two-level provisioning (the paper's §5.2.1, in miniature).

Runs the same two workloads — an anonymous-memory store (Redis) and a
file-IO webserver — under two provisioning strategies:

* **cache-only** (what a centralized hypervisor scheme can do): the VM's
  internal memory is untouched; only the hypervisor cache is partitioned.
* **cooperative** (DoubleDecker): the VM-level manager also re-provisions
  in-VM cgroup memory, giving the anon-bound Redis the RAM it actually
  needs and pushing the webserver's cache appetite to the hypervisor.

Run:  python examples/sla_provisioning.py
"""

from repro import CachePolicy, DDConfig, SimContext
from repro.workloads import RedisWorkload, WebserverWorkload

VM_MB = 1536
CACHE_MB = 512
WARMUP, MEASURE = 120.0, 180.0


def run_strategy(cooperative: bool) -> dict:
    ctx = SimContext(seed=5)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=CACHE_MB))
    vm = host.create_vm("vm1", memory_mb=VM_MB)

    if cooperative:
        # VM-level manager: Redis needs ~768 MB of *anonymous* memory
        # (the hypervisor cache cannot hold it), the webserver can spill
        # its file pages to the hypervisor cache instead.
        redis_c = vm.create_container("redis", 1024, CachePolicy.none())
        web_c = vm.create_container("web", 448, CachePolicy.memory(100))
    else:
        # Centralized view: containers share the VM; only the cache is
        # partitioned (50/50 here).
        redis_c = vm.create_container("redis", VM_MB, CachePolicy.memory(50))
        web_c = vm.create_container("web", VM_MB, CachePolicy.memory(50))

    redis = RedisWorkload(nrecords=768_000, threads=2)   # ~768 MB anon WSS
    web = WebserverWorkload(nfiles=8000, threads=2)       # ~1.2 GB fileset
    redis.start(redis_c, ctx.streams)
    web.start(web_c, ctx.streams)

    ctx.run(until=WARMUP)
    redis_snap = redis.snapshot()
    web_snap = web.snapshot()
    ctx.run(until=WARMUP + MEASURE)

    return {
        "redis_ops": redis.snapshot().rates_since(redis_snap)["ops_per_s"],
        "web_ops": web.snapshot().rates_since(web_snap)["ops_per_s"],
        "redis_swap_mb": redis_c.swap_out_mb,
        "web_hv_mb": web_c.hvcache_mb,
    }


def main() -> None:
    print("running cache-only (centralized) strategy...")
    central = run_strategy(cooperative=False)
    print("running cooperative (DoubleDecker) strategy...")
    coop = run_strategy(cooperative=True)

    print(f"\n{'metric':22s} {'cache-only':>12s} {'cooperative':>12s}")
    rows = [
        ("redis ops/s", "redis_ops"),
        ("webserver ops/s", "web_ops"),
        ("redis swap-out (MB)", "redis_swap_mb"),
        ("web hv-cache (MB)", "web_hv_mb"),
    ]
    for label, key in rows:
        print(f"{label:22s} {central[key]:12.1f} {coop[key]:12.1f}")

    gain = coop["redis_ops"] / max(1.0, central["redis_ops"])
    print(f"\ncooperative provisioning improved Redis by {gain:.1f}x "
          f"while keeping the webserver served from the hypervisor cache.")


if __name__ == "__main__":
    main()
