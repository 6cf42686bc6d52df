"""Ablation: eviction batch size (the paper fixes it at 2 MB).

Small batches track entitlements tightly but run the victim-selection
logic often; large batches amortize selection at the cost of granularity
(a 16 MB batch can drain a small pool far below its entitlement).  We
sweep the batch size and report (a) eviction rounds (overhead proxy) and
(b) worst-case undershoot below entitlement right after an eviction.
"""

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, StoreKind
from repro.obs import Tracer, set_tracer
from repro.simkernel import Environment

BLK = 64 * 1024
CAPACITY_MB = 16.0
BATCHES_MB = (0.5, 2.0, 8.0)


def drive(batch_mb: float):
    # The rounds are counted from the tracer's ``evict.round`` instants,
    # one per round that evicted anything.
    tracer = Tracer()
    set_tracer(tracer)
    env = Environment()
    cache = DoubleDeckerCache(
        env,
        DDConfig(mem_capacity_mb=CAPACITY_MB, eviction_batch_mb=batch_mb),
        BLK,
    )
    vm = cache.register_vm("vm")
    p1 = cache.create_pool(vm, "a", CachePolicy.memory(50))
    p2 = cache.create_pool(vm, "b", CachePolicy.memory(50))
    undershoot = {"worst": 0}

    def driver():
        # p1 fills the store, then p2 applies steady pressure.
        yield from cache.put_many(vm, p1, [(1, i) for i in range(512)])
        for round_no in range(40):
            keys = [(2, round_no * 8 + j) for j in range(8)]
            yield from cache.put_many(vm, p2, keys)
            pool = cache._pools[p1]
            gap = pool.entitlement[StoreKind.MEMORY] - pool.used[StoreKind.MEMORY]
            undershoot["worst"] = max(undershoot["worst"], gap)

    try:
        env.run(until=env.process(driver()))
    finally:
        set_tracer(None)
    rounds = sum(1 for event in tracer.events
                 if event["name"] == "evict.round"
                 and event["args"]["store"] == StoreKind.MEMORY.value)
    return rounds, undershoot["worst"]


def test_ablation_eviction_batch():
    results = {mb: drive(mb) for mb in BATCHES_MB}
    print()
    for mb, (rounds, undershoot) in results.items():
        print(f"batch {mb:5.2f} MB: {rounds:4d} eviction rounds, "
              f"worst undershoot {undershoot} blocks")

    # Smaller batches -> more rounds (overhead) ...
    assert results[0.5][0] >= results[2.0][0] >= results[8.0][0]
    # ... larger batches -> coarser enforcement (deeper undershoot).
    assert results[8.0][1] >= results[0.5][1]
