"""Ablation: memory-store compression and content deduplication.

The paper lists both as hypervisor-cache memory-efficiency levers (§1,
§6).  Two containers read byte-identical filesets (a shared base image)
through a small memory store under four configurations: plain,
compressed, deduplicated, and both.  The optimized stores must hold more
logical blocks in the same physical memory and convert that into a
higher second-chance hit ratio.
"""

from conftest import BENCH_SEED

from repro import CachePolicy, DDConfig, SimContext
from repro.core import CompressionModel, content_fingerprint
from repro.workloads import WebserverWorkload

MEM_MB = 96.0


def drive(compress: bool, dedup: bool):
    ctx = SimContext(seed=BENCH_SEED)
    host = ctx.create_host()
    # Shared-content fingerprint: both containers' i-th files are the
    # same image blocks (namespace and inode identity ignored modulo the
    # per-container fileset layout, which is identical by seeding).  A
    # keyed digest, not ``hash()``, so the rows do not move with
    # PYTHONHASHSEED.
    fingerprint = (lambda ns, inode, block: content_fingerprint(
        "img", inode % 4000, block)) if dedup else None
    config = DDConfig(
        mem_capacity_mb=MEM_MB,
        compression=CompressionModel() if compress else None,
        dedup=dedup,
        dedup_fingerprint=fingerprint,
    )
    host.install_doubledecker(config)
    vm = host.create_vm("vm1", memory_mb=1024)
    workloads = []
    containers = []
    for idx in range(2):
        container = vm.create_container(f"c{idx}", 192,
                                        CachePolicy.memory(50))
        workload = WebserverWorkload(
            name=f"web{idx}", nfiles=4000, mean_size_kb=64, threads=1,
            cpu_think_ms=2.0,
        )
        workload.start(container, ctx.streams)
        workloads.append(workload)
        containers.append(container)
    ctx.run(until=120)
    snaps = [w.snapshot() for w in workloads]
    ctx.run(until=300)
    ops = sum(
        w.snapshot().rates_since(s)["ops_per_s"]
        for w, s in zip(workloads, snaps)
    )
    cache = host.hvcache
    logical = sum(c.hvcache_mb for c in containers)
    return {
        "ops": ops,
        "logical_mb": logical,
        "physical_mb": cache.mem_physical_mb,
        "dedup_saved_mb": (
            cache.dedup.savings_blocks * host.block_bytes / (1 << 20)
            if cache.dedup else 0.0
        ),
    }


def test_ablation_compression_and_dedup():
    results = {
        "plain": drive(False, False),
        "compressed": drive(True, False),
        "dedup": drive(False, True),
        "both": drive(True, True),
    }
    print()
    for mode, cells in results.items():
        print(f"{mode:11s} ops/s={cells['ops']:8.1f} "
              f"logical={cells['logical_mb']:6.1f}MB "
              f"physical={cells['physical_mb']:6.1f}MB "
              f"dedup-saved={cells['dedup_saved_mb']:6.1f}MB")

    plain = results["plain"]
    # Physical capacity is respected in every mode.
    for cells in results.values():
        assert cells["physical_mb"] <= MEM_MB + 1
    # Compression packs more logical content into the same memory.
    assert results["compressed"]["logical_mb"] > plain["logical_mb"] * 1.2
    # Dedup shares whatever identical content both containers cache at
    # the same time (the overlap, not the whole fileset).
    assert results["dedup"]["dedup_saved_mb"] > 0
    assert results["dedup"]["logical_mb"] >= plain["logical_mb"]
    # Combining both packs the most logical content.
    assert results["both"]["logical_mb"] >= results["compressed"]["logical_mb"]
    assert results["both"]["dedup_saved_mb"] > 0
