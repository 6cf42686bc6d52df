"""Property tests driving the DoubleDecker manager directly with random
control-plane + data-plane op sequences (no guest in the loop)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, StoreKind
from repro.simkernel import Environment
from repro.storage import SSD

BLK = 64 * 1024

_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "put", "get", "flush", "flush_inode", "set_policy",
            "set_vm_weight", "resize", "migrate",
        ]),
        st.integers(min_value=0, max_value=3),    # pool selector
        st.integers(min_value=1, max_value=4),    # inode
        st.integers(min_value=0, max_value=63),   # block / weight / size
    ),
    max_size=80,
)


def check_consistency(cache):
    """Global bookkeeping must match the per-pool ground truth."""
    for kind in (StoreKind.MEMORY, StoreKind.SSD):
        pool_total = sum(p.used[kind] for p in cache._pools.values())
        assert cache.used[kind] == pool_total
        assert 0 <= cache.used[kind] <= max(0, cache.capacities[kind])
        for pool in cache._pools.values():
            assert len(pool.fifos[kind]) == pool.used[kind]
            assert pool.used[kind] >= 0
    # Index and FIFO agree.
    for pool in cache._pools.values():
        index_total = sum(len(tree) for tree in pool.files.values())
        assert index_total == len(pool)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
def test_manager_consistent_under_random_control_and_data_ops(ops):
    env = Environment()
    ssd = SSD(env, BLK)
    cache = DoubleDeckerCache(
        env,
        DDConfig(mem_capacity_mb=2, ssd_capacity_mb=4,
                 eviction_batch_mb=0.125),
        BLK,
        ssd_device=ssd,
    )
    vm1 = cache.register_vm("vm1", 60)
    vm2 = cache.register_vm("vm2", 40)
    pools = [
        (vm1, cache.create_pool(vm1, "a", CachePolicy.memory(50))),
        (vm1, cache.create_pool(vm1, "b", CachePolicy.ssd(100))),
        (vm2, cache.create_pool(vm2, "c", CachePolicy.memory(50))),
        (vm2, cache.create_pool(vm2, "d", CachePolicy.hybrid(50, 50))),
    ]

    def driver():
        for op, selector, inode, value in ops:
            vm_id, pool_id = pools[selector % len(pools)]
            if op == "put":
                yield from cache.put_many(
                    vm_id, pool_id, [(inode, value), (inode, value + 1)]
                )
            elif op == "get":
                yield from cache.get_many(
                    vm_id, pool_id, [(inode, value), (inode, 999)]
                )
            elif op == "flush":
                cache.flush_many(vm_id, pool_id, [(inode, value)])
            elif op == "flush_inode":
                cache.flush_inode(vm_id, pool_id, inode)
            elif op == "set_policy":
                choices = [CachePolicy.memory(max(1, value)),
                           CachePolicy.ssd(max(1, value)),
                           CachePolicy.hybrid(max(1, value), 50),
                           CachePolicy.none()]
                cache.set_policy(vm_id, pool_id, choices[value % 4])
            elif op == "set_vm_weight":
                cache.set_vm_weight(vm_id, float(value))
            elif op == "resize":
                cache.set_capacity(StoreKind.MEMORY, 1 + value / 16.0)
            elif op == "migrate":
                other = pools[(selector + 1) % len(pools)]
                if other[0] == vm_id:
                    cache.migrate_objects(vm_id, pool_id, other[1], inode)
            check_consistency(cache)

    env.run(until=env.process(driver()))
    check_consistency(cache)
    # Entitlements never exceed capacities after all that churn.
    for kind in (StoreKind.MEMORY, StoreKind.SSD):
        total_entitlement = sum(
            p.entitlement[kind] for p in cache._pools.values()
        )
        assert total_entitlement <= max(0, cache.capacities[kind])


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1, max_value=100), min_size=2,
                     max_size=5),
    puts_per_pool=st.integers(min_value=20, max_value=60),
)
def test_saturated_store_respects_weight_ordering(weights, puts_per_pool):
    """Fill the store from every pool equally; heavier-weighted pools must
    end up with at least as many blocks as lighter ones (modulo one
    eviction batch of slack)."""
    env = Environment()
    cache = DoubleDeckerCache(
        env,
        DDConfig(mem_capacity_mb=2, eviction_batch_mb=0.125),  # 32 blocks
        BLK,
    )
    vm = cache.register_vm("vm")
    pool_ids = [
        cache.create_pool(vm, f"p{i}", CachePolicy.memory(w))
        for i, w in enumerate(weights)
    ]

    def driver():
        for round_no in range(puts_per_pool):
            for idx, pool_id in enumerate(pool_ids):
                yield from cache.put_many(
                    vm, pool_id, [(idx + 1, round_no)]
                )

    env.run(until=env.process(driver()))
    batch = cache._eviction_batch
    ordered = sorted(zip(weights, pool_ids))
    for (w_lo, p_lo), (w_hi, p_hi) in zip(ordered, ordered[1:]):
        if w_hi - w_lo < 5:
            continue  # too close to assert strictly
        used_lo = cache._pools[p_lo].used[StoreKind.MEMORY]
        used_hi = cache._pools[p_hi].used[StoreKind.MEMORY]
        assert used_hi >= used_lo - batch
