"""Tests for the cleancache client and hypercall channel."""

import pytest

from repro.cleancache import CleancacheClient, HypercallChannel
from repro.core import CachePolicy, DDConfig, DoubleDeckerCache
from repro.simkernel import Environment

BLK = 64 * 1024


def run_gen(env, gen):
    return env.run(until=env.process(gen))


def make_client():
    env = Environment()
    cache = DoubleDeckerCache(env, DDConfig(mem_capacity_mb=4), BLK)
    vm_id = cache.register_vm("vm1")
    client = CleancacheClient(env, cache, vm_id, BLK)
    return env, cache, client


def charged(charge):
    """Simulated seconds one channel charge takes on a fresh clock."""
    env = Environment()
    run_gen(env, charge(HypercallChannel(env)))
    return env.now


class TestHypercallCosts:
    def test_control_cost_linear_in_calls(self):
        assert charged(lambda ch: ch.charge_control(10)) == pytest.approx(20e-6)
        assert charged(lambda ch: ch.charge_control(0)) == 0

    def test_data_cost_includes_payload(self):
        assert charged(lambda ch: ch.charge_data(1, 64 * 1024)) == pytest.approx(
            2e-6 + 64 * 0.05e-6
        )

    def test_channel_charges_time(self):
        assert charged(lambda ch: ch.charge_data(100, 100 * BLK)) == (
            pytest.approx(100 * (2e-6 + 64 * 0.05e-6)))


class TestCleancacheClient:
    def test_pool_lifecycle(self):
        env, cache, client = make_client()
        pool = client.create_pool("web", CachePolicy.memory(100))
        assert pool is not None
        client.set_policy(pool, CachePolicy.memory(50))
        stats = client.get_stats(pool)
        assert stats.pool_id == pool
        client.destroy_pool(pool)
        with pytest.raises(KeyError):
            client.get_stats(pool)

    def test_get_put_roundtrip_charges_time(self):
        env, cache, client = make_client()
        pool = client.create_pool("web", CachePolicy.memory(100))
        stored = run_gen(env, client.put_many(pool, [(1, 0), (1, 1)]))
        assert stored == 2
        t0 = env.now
        found = run_gen(env, client.get_many(pool, [(1, 0), (1, 1)]))
        assert found == {(1, 0), (1, 1)}
        assert env.now > t0  # hypercall + copy costs accrued

    def test_empty_key_list_is_free(self):
        env, cache, client = make_client()
        pool = client.create_pool("web", CachePolicy.memory(100))
        assert run_gen(env, client.get_many(pool, [])) == set()
        assert env.now == 0

    def test_flush_many(self):
        env, cache, client = make_client()
        pool = client.create_pool("web", CachePolicy.memory(100))
        run_gen(env, client.put_many(pool, [(1, 0)]))
        dropped = run_gen(env, client.flush_many(pool, [(1, 0), (1, 99)]))
        assert dropped == 1

    def test_flush_inode(self):
        env, cache, client = make_client()
        pool = client.create_pool("web", CachePolicy.memory(100))
        run_gen(env, client.put_many(pool, [(1, 0), (1, 1), (2, 0)]))
        dropped = run_gen(env, client.flush_inode(pool, 1))
        assert dropped == 2

    def test_migrate(self):
        env, cache, client = make_client()
        p1 = client.create_pool("a", CachePolicy.memory(50))
        p2 = client.create_pool("b", CachePolicy.memory(50))
        run_gen(env, client.put_many(p1, [(1, 0)]))
        assert client.migrate(p1, p2, 1) == 1
        assert run_gen(env, client.get_many(p2, [(1, 0)])) == {(1, 0)}
