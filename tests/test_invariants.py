"""Property-based whole-stack invariants.

Hypothesis drives random operation sequences through a small
host/VM/container stack and then checks the invariants the reproduction
rests on:

1. **Exclusivity** — no block is simultaneously in a guest page cache and
   the hypervisor cache.
2. **Accounting** — the cache manager's per-store `used` equals the sum
   over pools; each cgroup's `file_blocks` equals its page-cache
   population; VM usage never exceeds VM memory.
3. **Capacity** — no store ever exceeds its configured capacity.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind

# Operations: (kind, a, b)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "fsync", "anon", "delete_create",
                         "reweight", "relimit"]),
        st.integers(min_value=0, max_value=7),    # file index / page base
        st.integers(min_value=1, max_value=64),   # length / value
    ),
    min_size=1,
    max_size=40,
)


def build_stack(seed):
    ctx = SimContext(seed=seed)
    host = ctx.create_host()
    cache = host.install_doubledecker(
        DDConfig(mem_capacity_mb=16, eviction_batch_mb=0.25)
    )
    vm = host.create_vm("vm1", memory_mb=256)
    c1 = vm.create_container("c1", 32, CachePolicy.memory(60))
    c2 = vm.create_container("c2", 32, CachePolicy.memory(40))
    return ctx, host, cache, vm, [c1, c2]


def check_invariants(host, cache, vm, containers):
    # 1. Exclusivity.
    for key in vm.os.pagecache.entries:
        for pool in cache._pools.values():
            assert pool.lookup(*key) is None, (
                f"block {key} in page cache AND pool {pool.name}"
            )
    # 2a. Store accounting.
    for kind in (StoreKind.MEMORY, StoreKind.SSD):
        pool_total = sum(p.used[kind] for p in cache._pools.values())
        assert cache.used[kind] == pool_total
        # 3. Capacity bound.
        assert cache.used[kind] <= max(cache.capacities[kind], 0)
    # 2b. Cgroup file accounting.
    for container in containers:
        cgroup = container.cgroup
        assert cgroup.file_blocks == vm.os.pagecache.cgroup_pages(
            cgroup.cgroup_id
        )
        assert cgroup.file_blocks >= 0
        assert cgroup.anon_blocks >= 0
    # 2c. VM memory bound (allow the in-flight admission batch).
    assert vm.os.total_usage_blocks() <= vm.os.memory_blocks + 32
    # 2d. Pool FIFO/index consistency.
    for pool in cache._pools.values():
        for kind in (StoreKind.MEMORY, StoreKind.SSD):
            assert len(pool.fifos[kind]) == pool.used[kind]
        index_total = sum(len(tree) for tree in pool.files.values())
        assert index_total == len(pool)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=10))
def test_random_ops_preserve_invariants(ops, seed):
    ctx, host, cache, vm, containers = build_stack(seed)
    files = {}
    for container in containers:
        files[container.name] = [
            container.create_file(32, name=f"{container.name}-f{i}")
            for i in range(8)
        ]

    def driver():
        for step, (kind, a, b) in enumerate(ops):
            container = containers[step % len(containers)]
            flist = files[container.name]
            file = flist[a % len(flist)]
            if kind == "read":
                yield from container.read(file, 0, b)
            elif kind == "write":
                yield from container.write(file, 0, min(b, file.nblocks))
            elif kind == "fsync":
                yield from container.fsync(file)
            elif kind == "anon":
                yield from container.touch_anon(range(a * 64, a * 64 + b))
            elif kind == "delete_create":
                yield from container.delete(file)
                flist[a % len(flist)] = container.create_file(32)
            elif kind == "reweight":
                container.set_cache_policy(CachePolicy.memory(float(b)))
            elif kind == "relimit":
                container.set_memory_limit_mb(max(8, b))
        return None

    ctx.env.run(until=ctx.env.process(driver()))
    check_invariants(host, cache, vm, containers)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000))
def test_determinism_same_seed_same_outcome(seed):
    """Two identical runs must produce byte-identical counters."""

    def run_once():
        ctx, host, cache, vm, containers = build_stack(seed)
        c1, c2 = containers
        f1 = c1.create_file(512)
        f2 = c2.create_file(512)

        def driver():
            yield from c1.read(f1)
            yield from c2.read(f2)
            yield from c1.read(f1)
            yield from c2.touch_anon(range(600))
            return None

        ctx.env.run(until=ctx.env.process(driver()))
        return (
            ctx.now,
            sorted(vm.os.pagecache.entries),
            [(s.gets, s.get_hits, s.puts_stored)
             for s in (c1.cache_stats(), c2.cache_stats())],
            host.hdd.stats.blocks_read,
            c2.cgroup.swap_out_blocks,
            cache.used[StoreKind.MEMORY],
        )

    assert run_once() == run_once()
