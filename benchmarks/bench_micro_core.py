"""Microbenchmarks of the core data structures and the cache data path.

These exercise pytest-benchmark properly (many rounds) and guard against
performance regressions in the structures every experiment leans on.
"""

import random

from repro.core import (
    CachePolicy,
    DDConfig,
    DoubleDeckerCache,
    EvictionEntity,
    Pool,
    StoreKind,
    get_victim,
)
from repro.simkernel import Environment

BLK = 64 * 1024


def test_victim_selection_100_entities(benchmark):
    rng = random.Random(7)
    entities = [
        EvictionEntity(ref=i, entitlement=rng.randrange(1000),
                       used=rng.randrange(1000), weightage=rng.random() * 100)
        for i in range(100)
    ]

    victim = benchmark(get_victim, entities, 32)
    assert victim is None or victim.used > 0


def test_pool_insert_pop_cycle(benchmark):
    pool = Pool(1, 1, "bench", CachePolicy.memory(100))

    def run():
        for block in range(256):
            pool.insert(1, block, StoreKind.MEMORY)
        while pool.pop_oldest(StoreKind.MEMORY) is not None:
            pass

    benchmark(run)
    assert len(pool) == 0


def test_dd_put_get_roundtrip_256_blocks(benchmark):
    env = Environment()
    cache = DoubleDeckerCache(env, DDConfig(mem_capacity_mb=64), BLK)
    vm = cache.register_vm("vm")
    pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
    keys = [(1, i) for i in range(256)]

    def run():
        def driver():
            yield from cache.put_many(vm, pool, keys)
            found = yield from cache.get_many(vm, pool, keys)
            return found

        return env.run(until=env.process(driver()))

    found = benchmark(run)
    assert len(found) == 256


def test_event_loop_throughput(benchmark):
    """Raw kernel speed: 10k timeout events."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(0.001)

        env.process(ticker(env))
        env.run()
        return env.now

    now = benchmark(run)
    assert now > 9.9
