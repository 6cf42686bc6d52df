"""Ablation: exclusive vs inclusive hypervisor caching (§2 background).

The paper builds on exclusive (tmem-style) caching because inclusive
host caches duplicate blocks already held by guest page caches.  We run
the same webserver under both modes of the Global cache and compare the
*distinct* block coverage and throughput: with the same capacity, the
exclusive cache must cover more unique blocks (page cache + cache are
disjoint) and thus serve more second-chance hits.
"""

from conftest import BENCH_SEED

from repro import SimContext
from repro.core import StoreKind
from repro.workloads import WebserverWorkload

CACHE_MB = 192.0


def drive(exclusive: bool):
    ctx = SimContext(seed=BENCH_SEED)
    host = ctx.create_host()
    cache = host.install_global_cache(capacity_mb=CACHE_MB,
                                      exclusive=exclusive)
    vm = host.create_vm("vm1", memory_mb=1024)
    container = vm.create_container("web", 256)
    workload = WebserverWorkload(nfiles=6000, mean_size_kb=128, threads=2,
                                 cpu_think_ms=2.0)
    workload.start(container, ctx.streams)
    ctx.run(until=150)
    snap = workload.snapshot()
    ctx.run(until=350)
    rates = workload.snapshot().rates_since(snap)

    # Count duplicated blocks: cached in BOTH the guest page cache and
    # the hypervisor cache (inclusive mode's waste).
    pool = cache._pools[container.pool_id]
    duplicated = sum(
        1 for key in vm.os.pagecache.entries if pool.lookup(*key) is not None
    )
    return {
        "ops": rates["ops_per_s"],
        "duplicated_blocks": duplicated,
        "cached_blocks": cache.used[StoreKind.MEMORY],
    }


def test_ablation_inclusive_vs_exclusive():
    results = {"exclusive": drive(True), "inclusive": drive(False)}
    print()
    for mode, cells in results.items():
        print(f"{mode:10s} ops/s={cells['ops']:8.1f} "
              f"duplicated={cells['duplicated_blocks']:6d} "
              f"cached={cells['cached_blocks']:6d}")

    # Exclusive caching wastes nothing; inclusive duplicates real capacity.
    assert results["exclusive"]["duplicated_blocks"] == 0
    assert results["inclusive"]["duplicated_blocks"] > 0
    # Effective unique coverage (cache minus duplicates) is larger
    # under exclusive caching.
    excl_unique = results["exclusive"]["cached_blocks"]
    incl_unique = (results["inclusive"]["cached_blocks"]
                   - results["inclusive"]["duplicated_blocks"])
    assert excl_unique > incl_unique
