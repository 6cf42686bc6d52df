"""Tests for the YCSB core machinery (key scattering, mixes)."""

import collections
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimContext
from repro.core import CachePolicy, DDConfig
from repro.simkernel import Timeline
from repro.workloads import RedisWorkload, YCSBWorkload
from repro.workloads.ycsb.core import _fnv_scatter


def _fnv_reference(value: int) -> int:
    """64-bit FNV-1a over the 8 little-endian bytes, one round per byte."""
    prime = 0x100000001B3
    state = 0xCBF29CE484222325
    for _ in range(8):
        state ^= value & 0xFF
        state = (state * prime) % (1 << 64)
        value >>= 8
    return state


class TestFNVScatter:
    @pytest.mark.parametrize("value", [0, 1, 255, 256, 2**32 - 1, 2**32,
                                       2**63, 2**64 - 1])
    def test_matches_reference_at_byte_edges(self, value):
        assert _fnv_scatter(value) == _fnv_reference(value)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_reference(self, value):
        assert _fnv_scatter(value) == _fnv_reference(value)

    def test_deterministic(self):
        assert _fnv_scatter(12345) == _fnv_scatter(12345)

    def test_spreads_consecutive_ranks(self):
        """Consecutive Zipf ranks must land far apart (no hot clustering)."""
        values = [_fnv_scatter(rank) % 10_000 for rank in range(100)]
        assert len(set(values)) == len(values)  # no collisions in sample
        gaps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert sum(gaps) / len(gaps) > 500  # well spread on average

    def test_64bit_range(self):
        for rank in (0, 1, 2**32, 2**60):
            assert 0 <= _fnv_scatter(rank) < 2**64


def _redis(nrecords=10_000):
    ctx = SimContext(seed=71)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=32))
    vm = host.create_vm("vm1", memory_mb=512)
    container = vm.create_container("c", 128, CachePolicy.none())
    workload = RedisWorkload(nrecords=nrecords, threads=1)
    workload.start(container, ctx.streams)
    return ctx, workload


class TestCpuCost:
    def test_negative_cpu_cost_rejected_at_construction(self):
        with pytest.raises(ValueError):
            YCSBWorkload("x", 10, 1, read_fraction=0.5, cpu_us_per_op=-1.0)

    def test_resident_redis_op_is_one_event(self):
        """An all-resident op serves its touch and its CPU cost in one
        timeout, so the kernel pops exactly one event per op."""
        ctx, workload = _redis()
        ctx.run(until=1.0)  # every page faulted in long before this
        assert workload.container.cgroup.swap_out_blocks == 0
        pops = 0
        pop = Timeline.pop

        def counting_pop(timeline):
            nonlocal pops
            pops += 1
            return pop(timeline)

        ops = workload.counters.ops
        with mock.patch.object(Timeline, "pop", counting_pop):
            ctx.run(until=1.5)  # no flusher tick (every 5 s) in between
        ops = workload.counters.ops - ops
        assert ops > 1000
        assert pops == ops + 1  # + the run's own stop event

    def test_redis_op_starts_where_chained_timeouts_put_it(self):
        """Redis serves its CPU cost inside the touch (``then=``): each op
        still starts where the touch timeout and then the CPU timeout,
        chained, would have put it."""
        ctx = SimContext(seed=23)
        host = ctx.create_host()
        host.install_doubledecker(DDConfig(mem_capacity_mb=128))
        vm = host.create_vm("vm1", memory_mb=1024)
        container = vm.create_container("redis", 256, CachePolicy.none())
        touches = []
        touch_anon = vm.os.touch_anon

        def recording_touch(cgroup, pages, then=0.0):
            touches.append((ctx.now, pages[0]))
            return touch_anon(cgroup, pages, then)

        vm.os.touch_anon = recording_touch
        redis = RedisWorkload(nrecords=2_000, threads=1)
        redis.start(container, ctx.streams)
        ctx.run(until=0.05)
        assert len(touches) > 100
        touch = vm.os.mem_spec.touch_latency_us * 1e-6
        seen = set()
        for (time, page), (following, _) in zip(touches, touches[1:]):
            if page in seen:
                assert following == (time + touch) + redis.cpu_s
            else:
                assert following == time + redis.cpu_s
            seen.add(page)


class TestNextKey:
    def test_keys_in_range(self):
        ctx, workload = _redis()
        for _ in range(2000):
            assert 0 <= workload.next_key() < 10_000

    def test_keys_are_skewed_but_scattered(self):
        ctx, workload = _redis()
        counts = collections.Counter(workload.next_key() for _ in range(20_000))
        top_keys = [key for key, _ in counts.most_common(20)]
        # Skew: the hottest key appears far above uniform frequency.
        assert counts[top_keys[0]] > 20_000 / 10_000 * 20
        # Scatter: the hot keys are not clustered in one region.
        assert max(top_keys) - min(top_keys) > 2_000
