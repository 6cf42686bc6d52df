"""Tests for MRC/SHARDS/WSS estimation and the adaptive controllers."""

import random

import pytest
from hypothesis import strategies as st

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind
from repro.hypervisor import HostSpec
from repro.policies import (
    AdaptiveWeightController,
    BalloonController,
    MissRatioCurve,
    ReuseDistanceTracker,
    ShardsEstimator,
    WSSEstimator,
)
from repro.workloads import RedisWorkload, WebserverWorkload


class TestMissRatioCurve:
    def test_interpolation(self):
        curve = MissRatioCurve([0, 100], [1.0, 0.0], 1000)
        assert curve.miss_ratio_at(0) == 1.0
        assert curve.miss_ratio_at(50) == pytest.approx(0.5)
        assert curve.miss_ratio_at(100) == 0.0
        assert curve.miss_ratio_at(1000) == 0.0

    def test_empty_curve_is_all_misses(self):
        assert MissRatioCurve([], [], 0).miss_ratio_at(10) == 1.0

    def test_marginal_gain(self):
        curve = MissRatioCurve([0, 100], [1.0, 0.0], 1000)
        assert curve.marginal_gain(0, 50) == pytest.approx(0.5)
        assert curve.marginal_gain(100, 50) == 0.0
        assert curve.marginal_gain(0, 0) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MissRatioCurve([1], [0.5, 0.2], 10)


class TestReuseDistanceTracker:
    def test_cold_misses_counted(self):
        tracker = ReuseDistanceTracker()
        for key in range(10):
            assert tracker.access(key) is None
        assert tracker.cold_misses == 10

    def test_immediate_reuse_distance_zero(self):
        tracker = ReuseDistanceTracker()
        tracker.access("a")
        assert tracker.access("a") == 0

    def test_stack_distance_counts_distinct(self):
        tracker = ReuseDistanceTracker()
        for key in ("a", "b", "c", "a"):
            distance = tracker.access(key)
        # 'a' re-accessed after distinct {b, c} -> distance 2
        assert distance == 2

    def test_repeated_interleave(self):
        tracker = ReuseDistanceTracker()
        # a b a b a b : every reuse has distance 1
        distances = [tracker.access(k) for k in "ababab"]
        assert distances[2:] == [1, 1, 1, 1]

    def test_curve_monotone_nonincreasing(self):
        tracker = ReuseDistanceTracker()
        rng = random.Random(3)
        for _ in range(3000):
            tracker.access(rng.randrange(200))
        curve = tracker.curve()
        for earlier, later in zip(curve.miss_ratios, curve.miss_ratios[1:]):
            assert later <= earlier + 1e-12

    def test_curve_converges_for_small_set(self):
        """A working set of 50 keys -> near-zero misses at size >= 50."""
        tracker = ReuseDistanceTracker()
        rng = random.Random(7)
        for _ in range(5000):
            tracker.access(rng.randrange(50))
        curve = tracker.curve()
        assert curve.miss_ratio_at(60) < 0.05
        assert curve.miss_ratio_at(1) > 0.5


class TestShards:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ShardsEstimator(initial_rate=0)

    def test_sampling_reduces_tracked_accesses(self):
        est = ShardsEstimator(initial_rate=0.1, fixed_size=None)
        for key in range(20_000):
            est.access(key)
        assert est.sampled_accesses < est.accesses * 0.2
        assert est.sampled_accesses > est.accesses * 0.02

    def test_fixed_size_adapts_rate_down(self):
        est = ShardsEstimator(initial_rate=0.5, fixed_size=256)
        for key in range(50_000):
            est.access(key)
        assert est.rate < 0.5
        assert len(est._sampled) <= 256

    def test_curve_roughly_matches_exact(self):
        """SHARDS' curve should agree with the exact tracker on a
        zipf-ish trace within coarse tolerance."""
        rng = random.Random(11)
        trace = [int(rng.paretovariate(1.2)) % 500 for _ in range(30_000)]
        exact = ReuseDistanceTracker()
        approx = ShardsEstimator(initial_rate=0.1, fixed_size=None)
        for key in trace:
            exact.access(key)
            approx.access(key)
        exact_curve = exact.curve()
        approx_curve = approx.curve()
        for size in (50, 150, 400):
            assert approx_curve.miss_ratio_at(size) == pytest.approx(
                exact_curve.miss_ratio_at(size), abs=0.15
            )

    def test_working_set_estimate(self):
        est = ShardsEstimator(initial_rate=0.2, fixed_size=None)
        for key in range(5000):
            est.access(key)
        assert est.working_set_estimate() == pytest.approx(5000, rel=0.4)


class TestWSS:
    def test_validation(self):
        with pytest.raises(ValueError):
            WSSEstimator(window_s=0)
        with pytest.raises(ValueError):
            WSSEstimator(epochs=0)

    def test_distinct_counting(self):
        wss = WSSEstimator(window_s=100, epochs=4)
        for key in [1, 2, 3, 1, 2]:
            wss.access(key, now=0.0)
        assert wss.working_set(0.0) == 3

    def test_window_expiry(self):
        wss = WSSEstimator(window_s=100, epochs=4)
        wss.access("old", now=0.0)
        assert wss.working_set(10.0) == 1
        # Far beyond the window, the old key is forgotten.
        assert wss.working_set(500.0) == 0

    def test_hot_set_is_recent_epoch(self):
        wss = WSSEstimator(window_s=100, epochs=4)
        wss.access("a", now=0.0)
        wss.access("b", now=30.0)  # new epoch
        assert wss.hot_set() == 1
        assert wss.working_set(30.0) == 2


class TestAdaptiveController:
    def _stack(self):
        ctx = SimContext(seed=13)
        host = ctx.create_host(HostSpec())
        cache = host.install_doubledecker(
            DDConfig(mem_capacity_mb=128, eviction_batch_mb=0.5)
        )
        vm = host.create_vm("vm1", memory_mb=1024, vcpus=4)
        hot = vm.create_container("hot", 64, CachePolicy.memory(50))
        cold = vm.create_container("cold", 64, CachePolicy.memory(50))
        return ctx, host, cache, vm, hot, cold

    def test_controller_shifts_weight_to_the_reuser(self):
        """A container whose misses have reuse (cacheable) should win
        weight over one that misses cold (uncacheable stream)."""
        ctx, host, cache, vm, hot, cold = self._stack()
        # hot: cyclic re-reads of a 128 MB file (beyond its 64 MB cgroup).
        hot_file = hot.create_file(2048)
        # cold: one pass over an endless stream of new files.
        controller = AdaptiveWeightController(
            ctx.env, [hot, cold],
            total_cache_blocks=cache.capacities[StoreKind.MEMORY],
            interval_s=30.0, sample_rate=0.5,
        )
        controller.attach()

        rng = random.Random(4)

        def hot_loop(env):
            # Random re-reads (not a cyclic scan, which is LRU-hostile and
            # correctly yields a flat MRC): the MRC shows real reuse.
            while True:
                start = rng.randrange(hot_file.nblocks - 32)
                yield from hot.read(hot_file, start, 32)
                yield env.timeout(0.05)

        def cold_loop(env):
            while True:
                stream = cold.create_file(64)
                yield from cold.read(stream)
                yield from cold.delete(stream)
                yield env.timeout(0.2)

        ctx.env.process(hot_loop(ctx.env))
        ctx.env.process(cold_loop(ctx.env))
        ctx.run(until=200)
        assert controller.rounds >= 3
        hot_w = controller.profiles["hot"].weight
        cold_w = controller.profiles["cold"].weight
        assert hot_w > cold_w
        # And the weights actually landed in the hypervisor cache.
        assert cache._pools[hot.pool_id].policy.mem_weight == pytest.approx(
            hot_w
        )

    def test_validation(self):
        ctx, host, cache, vm, hot, cold = self._stack()
        with pytest.raises(ValueError):
            AdaptiveWeightController(ctx.env, [], 100)
        with pytest.raises(ValueError):
            AdaptiveWeightController(ctx.env, [hot], 100, interval_s=0)

    def test_stop_halts_rounds(self):
        ctx, host, cache, vm, hot, cold = self._stack()
        controller = AdaptiveWeightController(
            ctx.env, [hot, cold], 100, interval_s=10.0
        )
        controller.attach()
        ctx.run(until=25)
        controller.stop()
        rounds = controller.rounds
        ctx.run(until=100)
        assert controller.rounds == rounds


class TestBalloonController:
    def test_grows_the_swapper(self):
        ctx = SimContext(seed=17)
        host = ctx.create_host(HostSpec())
        host.install_doubledecker(DDConfig(mem_capacity_mb=256))
        vm = host.create_vm("vm1", memory_mb=2048, vcpus=4)
        anon = vm.create_container("anon", 128, CachePolicy.none())
        filey = vm.create_container("filey", 512, CachePolicy.memory(100))
        redis = RedisWorkload(nrecords=256_000, threads=1)   # 256 MB WSS
        web = WebserverWorkload(nfiles=3000, threads=1)
        redis.start(anon, ctx.streams)
        web.start(filey, ctx.streams)
        controller = BalloonController(ctx.env, [anon, filey],
                                       interval_s=30.0, step_mb=64.0)
        ctx.run(until=90)  # both moves land by the t=60 tick
        assert controller.moves > 0
        # The swapping container's limit grew; the donor's shrank.
        block_mb = vm.block_bytes / (1 << 20)
        assert anon.cgroup.limit_blocks * block_mb > 128
        assert filey.cgroup.limit_blocks * block_mb < 512

    def test_needs_two_containers(self):
        ctx = SimContext(seed=1)
        host = ctx.create_host()
        vm = host.create_vm("vm1", memory_mb=512)
        c = vm.create_container("only", 128)
        with pytest.raises(ValueError):
            BalloonController(ctx.env, [c])


class TestShardsHashDeterminism:
    """sim-lint follow-up: SHARDS spatial hashing must not depend on
    PYTHONHASHSEED (which keys get *sampled* — and therefore the MRC the
    adaptive controller acts on — must be identical in every process)."""

    def test_int_tuple_keys_keep_historical_hash(self):
        # BlockKey-style keys take the structural-hash fast path; pinning
        # the Fibonacci spread of hash() proves fixed-seed experiment
        # fingerprints are byte-identical before/after the DD fix.
        for key in [0, 7, (0, 0), (1, 4), (2, 3), (123456, 789)]:
            expected = (hash(key) * 2654435761) % (1 << 32)
            assert ShardsEstimator._hash(key) == expected

    def test_string_keys_are_seed_independent(self):
        # str/bytes hash() is randomized per process; the estimator must
        # route them through the CRC basis.  Re-derive in subprocesses
        # with different PYTHONHASHSEED values and demand equality.
        import os
        import subprocess
        import sys

        program = (
            "from repro.policies.mrc import ShardsEstimator as S;"
            "print([S._hash(k) for k in"
            " ('alpha', ('db', 7), b'raw', ('mixed', (1, 'x')))])"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [env.get("PYTHONPATH"), "src"]))
            proc = subprocess.run(
                [sys.executable, "-c", program], env=env,
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_sampling_decisions_stable_for_mixed_keys(self):
        est = ShardsEstimator(initial_rate=0.5, fixed_size=None)
        for key in [("c1", 1), ("c1", 2), ("c2", 1), (1, 2), "plain"]:
            est.access(key)
        # Same estimator state regardless of this process's hash seed:
        # the sampled set derives only from the seed-independent hash.
        resampled = ShardsEstimator(initial_rate=0.5, fixed_size=None)
        for key in [("c1", 1), ("c1", 2), ("c2", 1), (1, 2), "plain"]:
            resampled.access(key)
        assert est.sampled_accesses == resampled.sampled_accesses
        assert sorted(map(repr, est._sampled)) == sorted(map(repr, resampled._sampled))
