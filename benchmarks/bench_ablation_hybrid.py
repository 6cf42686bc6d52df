"""Ablation: hybrid store and trickle-down (the paper's §3.3 sketch).

A single webserver whose working set exceeds its memory-store share runs
under three configurations:

* memory-only (overflow is dropped when the store fills);
* hybrid ``<mem+SSD>`` (overflow spills to the SSD synchronously at put);
* memory-only with trickle-down (evicted blocks re-home to the SSD).

Both SSD-assisted modes must beat memory-only on second-chance coverage;
hybrid/trickle throughput sits between pure-memory-fits and pure-SSD.
"""

from conftest import BENCH_SEED

from repro import CachePolicy, DDConfig, SimContext
from repro.workloads import WebserverWorkload

MEM_MB = 128.0
SSD_MB = 4096.0


def drive(mode: str):
    ctx = SimContext(seed=BENCH_SEED)
    host = ctx.create_host()
    if mode == "mem":
        config = DDConfig(mem_capacity_mb=MEM_MB)
        policy = CachePolicy.memory(100)
    elif mode == "hybrid":
        config = DDConfig(mem_capacity_mb=MEM_MB, ssd_capacity_mb=SSD_MB)
        policy = CachePolicy.hybrid(100, 100)
    elif mode == "trickle":
        config = DDConfig(mem_capacity_mb=MEM_MB, ssd_capacity_mb=SSD_MB,
                          trickle_down=True)
        policy = CachePolicy.memory(100)
    else:
        raise ValueError(mode)
    host.install_doubledecker(config)
    vm = host.create_vm("vm1", memory_mb=1024)
    container = vm.create_container("web", 256, policy)
    workload = WebserverWorkload(nfiles=6000, mean_size_kb=128, threads=2,
                                 cpu_think_ms=2.0)
    workload.start(container, ctx.streams)
    ctx.run(until=150)
    snap = workload.snapshot()
    ctx.run(until=350)
    rates = workload.snapshot().rates_since(snap)
    stats = container.cache_stats()
    return {
        "ops": rates["ops_per_s"],
        "hit_pct": 100 * stats.hit_ratio,
        "mem_mb": stats.mem_used_blocks * host.block_bytes / (1 << 20),
        "ssd_mb": stats.ssd_used_blocks * host.block_bytes / (1 << 20),
    }


def test_ablation_hybrid_store():
    results = {mode: drive(mode) for mode in ("mem", "hybrid", "trickle")}
    print()
    for mode, cells in results.items():
        print(f"{mode:8s} ops/s={cells['ops']:8.1f} hit={cells['hit_pct']:5.1f}% "
              f"mem={cells['mem_mb']:6.1f}MB ssd={cells['ssd_mb']:7.1f}MB")

    # SSD-assisted modes actually place blocks on the SSD.
    assert results["hybrid"]["ssd_mb"] > 0
    assert results["trickle"]["ssd_mb"] > 0
    assert results["mem"]["ssd_mb"] == 0
    # And recover more lookups than memory-only (whose overflow is lost).
    assert results["hybrid"]["hit_pct"] > results["mem"]["hit_pct"]
    assert results["trickle"]["hit_pct"] > results["mem"]["hit_pct"]
