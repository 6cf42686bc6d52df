"""Guard rails for the hot-path optimization pass.

Three invariants the optimizations must not bend:

* the inlined :meth:`Environment.run` loop keeps the documented stop
  semantics (run-to-time vs run-to-event, URGENT-before-NORMAL at the
  stop instant);
* the batched data path (``get_many``/``put_many``) is observably
  identical to driving the same keys one at a time, including the
  dedup/compression accounting in ``mem_units.used``;
* ``--jobs N`` produces byte-identical outputs to an in-process run.
"""

import filecmp
from unittest import mock

import pytest

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, StoreKind
from repro.core.optimizations import CompressionModel
from repro.experiments import runner
from repro.simkernel import Environment
from repro.simkernel.core import NORMAL, URGENT

BLK = 64 * 1024


def run_gen(env, gen):
    return env.run(until=env.process(gen))


class TestRunLoopEdgeCases:
    def test_run_to_time_with_empty_queue_advances_clock(self):
        env = Environment()
        assert env.run(until=7.5) is None
        assert env.now == 7.5

    def test_run_without_until_on_empty_queue_returns_none(self):
        env = Environment()
        assert env.run() is None
        assert env.now == 0.0

    def test_run_to_event_with_drained_queue_raises(self):
        env = Environment()
        never = env.event()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        with pytest.raises(RuntimeError):
            env.run(until=never)

    def test_run_to_event_returns_value_and_stops_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(2.0)
            return "done"

        # A later event must not be executed after the stop event.
        late = []
        def straggler():
            yield env.timeout(10.0)
            late.append(True)

        env.process(straggler())
        assert env.run(until=env.process(proc())) == "done"
        assert env.now == 2.0
        assert not late

    def test_urgent_at_stop_instant_runs_before_stop(self):
        env = Environment()
        fired = []
        urgent = env.event()
        urgent._ok = True
        urgent.callbacks.append(lambda _e: fired.append("urgent"))
        env.schedule(urgent, delay=5.0, priority=URGENT)
        env.run(until=5.0)
        assert fired == ["urgent"]
        assert env.now == 5.0

    def test_normal_scheduled_during_run_at_stop_instant_is_cut_off(self):
        # The run-to-time stop event is NORMAL and enqueued when run()
        # starts, so same-instant NORMAL work created *during* the run
        # (higher sequence number) lands after the cutoff.
        env = Environment()
        fired = []
        pre = env.event()
        pre._ok = True
        pre.callbacks.append(lambda _e: fired.append("pre"))
        env.schedule(pre, delay=5.0, priority=NORMAL)

        def proc():
            yield env.timeout(5.0)  # created after run() queued the stop
            fired.append("post")

        env.process(proc())
        env.run(until=5.0)
        assert fired == ["pre"]


def make_cache(**overrides):
    env = Environment()
    # 8 MB = 128 blocks: smaller than the 200-key working set below, so
    # the equivalence checks also cover the eviction path.
    overrides.setdefault("mem_capacity_mb", 8.0)
    config = DDConfig(**overrides)
    return env, DoubleDeckerCache(env, config, BLK)


def drive(cache_pair, keys, batched):
    """Put then get ``keys`` either as one batch or one key at a time."""
    env, cache = cache_pair
    vm = cache.register_vm("vm")
    pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
    if batched:
        run_gen(env, cache.put_many(vm, pool, keys))
        found = run_gen(env, cache.get_many(vm, pool, keys))
    else:
        found = set()
        for key in keys:
            run_gen(env, cache.put_many(vm, pool, [key]))
        for key in keys:
            found |= run_gen(env, cache.get_many(vm, pool, [key]))
    stats = cache.pool_stats(vm, pool)
    units = None if cache.mem_units is None else cache.mem_units.used
    return found, stats, dict(cache.used), units


class TestBatchEquivalence:
    # 300 keys over 5 files, with repeated blocks inside the batch.
    KEYS = [(inode, block % 40) for inode in range(1, 6) for block in range(60)]

    @pytest.mark.parametrize("config", [
        {},
        {"dedup": True},
        {"dedup": True,
         "dedup_fingerprint": lambda ns, inode, block: block % 7},
        {"compression": CompressionModel()},
    ], ids=["plain", "dedup", "dedup-shared", "compression"])
    def test_large_batch_matches_per_key_calls(self, config):
        found_b, stats_b, used_b, units_b = drive(
            make_cache(**config), self.KEYS, batched=True)
        found_s, stats_s, used_s, units_s = drive(
            make_cache(**config), self.KEYS, batched=False)
        assert found_b == found_s
        assert used_b == used_s
        assert units_b == units_s
        for field in ("gets", "get_hits", "puts", "puts_stored", "flushes"):
            assert getattr(stats_b, field) == getattr(stats_s, field), field

    def test_large_batch_accounting(self):
        # 32 MB = 512 blocks: the whole unique set fits, no evictions.
        env, cache = make_cache(mem_capacity_mb=32.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        stored = run_gen(env, cache.put_many(vm, pool, self.KEYS))
        unique = len(set(self.KEYS))
        # Re-putting a resident key replaces it (and counts as stored),
        # but capacity accounting only ever charges the unique set.
        assert stored == len(self.KEYS)
        assert cache.used[StoreKind.MEMORY] == unique
        found = run_gen(env, cache.get_many(vm, pool, self.KEYS))
        assert len(found) == unique
        # Exclusive cache: every hit removed its block.
        assert cache.used[StoreKind.MEMORY] == 0
        stats = cache.pool_stats(vm, pool)
        assert stats.gets == len(self.KEYS)
        assert stats.get_hits == unique

    def test_flush_many_batch_accounting(self):
        env, cache = make_cache()
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        keys = [(1, block) for block in range(32)]
        run_gen(env, cache.put_many(vm, pool, keys))
        dropped = cache.flush_many(vm, pool, keys + [(9, 9)])
        assert dropped == len(keys)
        assert cache.used[StoreKind.MEMORY] == 0
        stats = cache.pool_stats(vm, pool)
        # flushes counts drops; the missed (9, 9) only shows up in requests.
        assert stats.flushes == len(keys)
        assert stats.flush_requests == len(keys) + 1


class TestParallelRunner:
    SCALE = "0.01"
    ARGS = ["motivation,dynamic_containers", "--scale", SCALE, "--no-plots",
            "--seed", "7", "--json"]

    @pytest.fixture(autouse=True)
    def short_spans(self, monkeypatch):
        """These tests are about --jobs/--profile plumbing, and the CLI has
        no span option, so the registry gets subclasses of the two cheapest
        experiments that simulate a fraction of the paper's span.  Forked
        --jobs workers inherit the swap."""
        from repro.experiments import (
            ALL_EXPERIMENTS,
            DynamicContainersExperiment,
            MotivationExperiment,
        )

        class ShortMotivation(MotivationExperiment):
            def __init__(self, scale, seed):
                super().__init__(scale, seed, duration_s=20.0)

        class ShortDynamicContainers(DynamicContainersExperiment):
            def __init__(self, scale, seed):
                super().__init__(scale, seed, phase_s=10.0)

        monkeypatch.setitem(ALL_EXPERIMENTS, "motivation", ShortMotivation)
        monkeypatch.setitem(ALL_EXPERIMENTS, "dynamic_containers",
                            ShortDynamicContainers)

    @pytest.mark.slow
    def test_jobs_output_identical_to_serial(self, tmp_path):
        from repro.experiments.__main__ import main

        serial = tmp_path / "serial"
        fanned = tmp_path / "jobs"
        assert main(self.ARGS + ["--out", str(serial), "--jobs", "1"]) == 0
        with mock.patch.object(runner, "_cpu_count", return_value=2):
            assert main(self.ARGS + ["--out", str(fanned), "--jobs", "2"]) == 0
        produced = sorted(p.name for p in serial.iterdir())
        assert produced == sorted(p.name for p in fanned.iterdir())
        assert produced  # both .txt and .json per experiment
        for name in produced:
            assert filecmp.cmp(serial / name, fanned / name, shallow=False), name

    def test_jobs_validation(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["motivation", "--jobs", "0"]) == 2

    def test_single_experiment_uses_its_budget(self, capsys):
        """``<one experiment> --jobs 4`` used to be silently serial."""
        from repro.experiments.__main__ import main

        args = ["motivation", "--scale", self.SCALE, "--no-plots", "--jobs"]
        with mock.patch.object(runner, "_cpu_count", return_value=4), \
                mock.patch.object(runner, "_fork_cell",
                                  wraps=runner._fork_cell) as forked:
            assert main(args + ["4"]) == 0
            assert forked.call_count == 4  # motivation's four cells
            forked.reset_mock()
            assert main(args + ["1"]) == 0
            assert forked.call_count == 0

    def test_comma_separated_unknown_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["motivation,nope"]) == 2

    @pytest.mark.slow
    def test_profile_writes_pstats(self, tmp_path, capsys):
        import pstats

        from repro.experiments.__main__ import main

        out = tmp_path / "hot.pstats"
        code = main(["motivation", "--scale", self.SCALE, "--no-plots",
                     "--profile", str(out)])
        assert code == 0
        assert out.exists()
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    @pytest.mark.slow
    def test_profile_with_jobs_stays_in_process(self, tmp_path, capsys):
        """--profile keeps the pool in this process whatever --jobs says:
        one pstats file that saw every experiment's simulation."""
        import pstats

        from repro.experiments.__main__ import main

        out = tmp_path / "hot.pstats"
        code = main(["motivation,dynamic_containers", "--scale", self.SCALE,
                     "--no-plots", "--jobs", "2", "--profile", str(out)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hot.pstats"]
        files = {func[0] for func in pstats.Stats(str(out)).stats}
        for module in ("motivation.py", "dynamic.py", "timeline.py"):
            assert any(f.endswith(module) for f in files), module
