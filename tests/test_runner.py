"""Unit tests for the experiment runner utilities."""

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind
from repro.experiments.runner import ExperimentResult, OccupancySampler


class TestOccupancySampler:
    def _stack(self):
        ctx = SimContext(seed=61)
        host = ctx.create_host()
        cache = host.install_doubledecker(DDConfig(mem_capacity_mb=64))
        vm = host.create_vm("vm1", memory_mb=512)
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        return ctx, host, cache, vm, c

    def test_watch_pool_records_series(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_pool(cache, "c", c.pool_id)
        sampler.start()
        f = c.create_file(2048)
        ctx.env.process(c.read(f))
        ctx.run(until=60)
        series = sampler.series["c"]
        assert len(series) >= 10
        assert series.max() > 0

    def test_watch_vm_records_series(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_vm(cache, "vm1", vm.vm_id, StoreKind.MEMORY)
        sampler.start()
        f = c.create_file(2048)
        ctx.env.process(c.read(f))
        ctx.run(until=60)
        assert sampler.series["vm1"].max() > 0

    def test_start_idempotent(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_pool(cache, "c", c.pool_id)
        sampler.start()
        sampler.start()
        ctx.run(until=20)
        # One process, not two: samples are spaced a full interval apart.
        times = sampler.series["c"].times
        assert all(b - a >= 5.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_gauges_added_after_start_get_sampled(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.start()
        ctx.run(until=10)
        sampler.watch_pool(cache, "late", c.pool_id)
        ctx.run(until=30)
        assert "late" in sampler.series


class TestExperimentResultEdgeCases:
    def test_summary_without_plots(self):
        result = ExperimentResult("x")
        assert "== x ==" in result.summary(plots=False)

    def test_series_grouping_in_summary(self):
        from repro.metrics import TimeSeries

        result = ExperimentResult("x")
        for label in ("modeA/c1", "modeA/c2", "modeB/c1"):
            ts = TimeSeries(label)
            ts.record(0, 1)
            ts.record(10, 2)
            result.add_series(label, ts)
        text = result.summary(plots=True)
        assert "modeA (MB over time)" in text
        assert "modeB (MB over time)" in text
