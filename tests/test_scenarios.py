"""Tests for the declarative scenario builder."""

import pytest

from repro.core import CachePolicy
from repro.experiments.scenarios import (
    Scenario,
    ScenarioResult,
    WORKLOAD_TYPES,
    parse_policy,
)


class TestParsePolicy:
    def test_none(self):
        assert parse_policy(None).uses_cache is False
        assert parse_policy("none").uses_cache is False

    def test_mem_ssd(self):
        assert parse_policy("mem:60").mem_weight == 60
        assert parse_policy("ssd:100").ssd_weight == 100

    def test_hybrid(self):
        policy = parse_policy("hybrid:40:60")
        assert policy.mem_weight == 40
        assert policy.ssd_weight == 60
        assert policy.is_hybrid

    def test_passthrough(self):
        policy = CachePolicy.memory(5)
        assert parse_policy(policy) is policy

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_policy("mem")
        with pytest.raises(ValueError):
            parse_policy("quantum:50")
        with pytest.raises(ValueError):
            parse_policy("hybrid:40")


class TestDeclaration:
    def test_unknown_cache_kind(self):
        with pytest.raises(ValueError):
            Scenario().cache("magic")

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            Scenario().vm("v", 512).container(
                "v", "c", 128, workload=("quake", {})
            )

    def test_unknown_event_action(self):
        with pytest.raises(ValueError):
            Scenario().at(10, "explode")

    def test_no_vms_rejected(self):
        with pytest.raises(ValueError):
            Scenario().run()

    def test_container_references_unknown_vm(self):
        scenario = Scenario().vm("v", 512).container("ghost", "c", 128)
        with pytest.raises(ValueError):
            scenario.run(warmup_s=1, duration_s=1)

    def test_set_capacity_unknown_store_rejected(self):
        # "sdd" used to fall through to the memory store.
        with pytest.raises(ValueError, match="sdd"):
            Scenario().at(10, "set_capacity", store="sdd", mb=64)

    def test_event_with_missing_argument_rejected(self):
        with pytest.raises(ValueError, match="set_policy"):
            Scenario().at(10, "set_policy", container="web")

    def test_event_on_unknown_container_or_vm_rejected(self):
        base = Scenario().cache("doubledecker", mem_mb=64).vm("v", 512)
        base.container("v", "web", 64, policy="mem:100")
        ran = []
        base.at(1, lambda runtime: ran.append(runtime))
        base.at(5, "set_limit", container="wbe", limit_mb=32)
        with pytest.raises(ValueError, match="wbe"):
            base.run(warmup_s=10, duration_s=10)
        assert not ran  # refused before the first event ran
        other = Scenario().vm("v", 512).at(5, "set_vm_weight", vm="w",
                                           weight=50)
        with pytest.raises(ValueError, match="'w'"):
            other.run(warmup_s=10, duration_s=10)

    def test_event_before_its_target_boots_rejected(self):
        scenario = (
            Scenario().cache("doubledecker", mem_mb=64)
            .vm("v", 512, boot_at=20)
            .container("v", "web", 64, policy="mem:100")
            .at(10, "set_policy", container="web", policy="mem:50")
        )
        with pytest.raises(ValueError, match="precedes"):
            scenario.run(warmup_s=10, duration_s=20)

    def test_set_capacity_needs_doubledecker(self):
        scenario = (Scenario().cache("global", capacity_mb=64).vm("v", 512)
                    .at(5, "set_capacity", store="mem", mb=128))
        with pytest.raises(ValueError, match="set_capacity"):
            scenario.run(warmup_s=10, duration_s=10)

    def test_unknown_gauge_store_rejected(self):
        with pytest.raises(ValueError, match="disk"):
            Scenario().vm("v", 512, gauges={"v": "disk"})

    def test_registry_covers_all_profiles(self):
        assert set(WORKLOAD_TYPES) == {
            "webserver", "webproxy", "varmail", "mail", "videoserver",
            "redis", "mysql", "mongodb"}


class TestExecution:
    def test_basic_scenario_runs(self):
        scenario = (
            Scenario(seed=3)
            .cache("doubledecker", mem_mb=128)
            .vm("vm1", memory_mb=1024)
            .container("vm1", "web", 128, policy="mem:60",
                       workload=("webserver", {"nfiles": 400, "threads": 1}))
            .container("vm1", "mail", 128, policy="mem:40",
                       workload=("varmail", {"nfiles": 400, "threads": 1}))
        )
        result = scenario.run(warmup_s=20, duration_s=40)
        assert isinstance(result, ScenarioResult)
        assert result.rates["web"]["ops_per_s"] > 0
        assert result.rates["mail"]["ops_per_s"] > 0
        assert "web" in result.series
        text = result.table()
        assert "web" in text and "mail" in text

    def test_global_cache_scenario(self):
        scenario = (
            Scenario(seed=3)
            .cache("global", capacity_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "web", 64,
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
        )
        result = scenario.run(warmup_s=10, duration_s=20)
        assert result.rates["web"]["ops_per_s"] > 0

    def test_null_cache_scenario(self):
        scenario = (
            Scenario(seed=3)
            .cache("none")
            .vm("vm1", memory_mb=512)
            .container("vm1", "web", 64,
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
        )
        result = scenario.run(warmup_s=10, duration_s=20)
        assert result.cache_stats["web"] is None or \
            result.cache_stats["web"].get_hits == 0

    def test_delayed_container_start(self):
        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "late", 64, policy="mem:100",
                       workload=("webserver", {"nfiles": 200, "threads": 1}),
                       start_at=30.0)
        )
        result = scenario.run(warmup_s=40, duration_s=20)
        assert result.rates["late"]["ops_per_s"] > 0

    def test_set_policy_event_applies(self):
        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=64, ssd_mb=1024)
            .vm("vm1", memory_mb=512)
            .container("vm1", "web", 64, policy="mem:100",
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
            .at(15, "set_policy", container="web", policy="ssd:100")
        )
        result = scenario.run(warmup_s=20, duration_s=20)
        stats = result.cache_stats["web"]
        assert stats.ssd_entitlement_blocks > 0
        assert stats.mem_entitlement_blocks == 0

    def test_set_vm_weight_and_capacity_events(self):
        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512, weight=100)
            .container("vm1", "web", 64, policy="mem:100",
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
            .at(10, "set_vm_weight", vm="vm1", weight=50)
            .at(12, "set_capacity", store="mem", mb=128)
        )
        result = scenario.run(warmup_s=15, duration_s=15)
        stats = result.cache_stats["web"]
        # New capacity (128 MB) fully entitled to the only VM/pool.
        assert stats.mem_entitlement_blocks == (128 << 20) // (64 << 10)

    def test_custom_callable_event(self):
        seen = {}

        def probe(runtime):
            seen["containers"] = sorted(runtime["containers"])

        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "c", 64, policy="mem:100")
            .at(5, probe)
        )
        scenario.run(warmup_s=8, duration_s=8)
        assert seen["containers"] == ["c"]

    def test_rates_cover_the_measurement_window_only(self):
        runtime = {}
        scenario = (
            Scenario(seed=62)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "c", 128, policy="mem:100",
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
            .at(1, runtime.update)
        )
        result = scenario.run(warmup_s=10, duration_s=20)
        assert runtime["ctx"].now == pytest.approx(30.0)
        rate = result.rates["c"]["ops_per_s"]
        assert rate > 0
        # The rate excludes warm-up ops.
        assert rate * 20 <= runtime["workloads"]["c"].counters.ops

    def test_vm_booting_mid_run_joins_entitlement_at_boot(self):
        seen = {}

        def probe(runtime):
            stats = runtime["containers"]["first"].cache_stats()
            seen[runtime["ctx"].now] = (sorted(runtime["vms"]),
                                        stats.mem_entitlement_blocks)

        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512, weight=100)
            .vm("vm2", memory_mb=512, weight=100, boot_at=20.0)
            .container("vm1", "first", 64, policy="mem:100")
            .container("vm2", "second", 64, policy="mem:100",
                       workload=("webserver", {"nfiles": 200, "threads": 1}))
            .at(19.0, probe)
            .at(20.0, probe)
        )
        result = scenario.run(warmup_s=25, duration_s=15)
        blocks = (64 << 20) // (64 << 10)
        assert seen[19.0] == (["vm1"], blocks)
        assert seen[20.0] == (["vm1", "vm2"], blocks // 2)
        assert result.rates["second"]["ops_per_s"] > 0

    def test_delayed_workload_leaves_gauge_at_zero_until_it_starts(self):
        scenario = (
            Scenario(seed=5)
            .cache("global", capacity_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "late", 32, workload_at=30.0,
                       workload=("webserver", {"nfiles": 400, "threads": 1}))
        )
        result = scenario.run(warmup_s=0, duration_s=60, sample_interval_s=5)
        series = result.series["late"]
        assert series.times[0] == 0.0  # the container itself booted at 0
        before = [v for t, v in zip(series.times, series.values) if t <= 30]
        assert before and max(before) == 0.0
        assert series.max() > 0
        assert result.rates["late"]["ops_per_s"] > 0

    def test_per_store_gauges_split_a_hybrid_pool(self):
        scenario = (
            Scenario(seed=5)
            .cache("doubledecker", mem_mb=8, ssd_mb=256, trickle_down=True)
            .vm("vm1", memory_mb=512, gauges={"vm-all": None})
            .container("vm1", "web", 32, policy="hybrid:100:100",
                       workload=("webserver", {"nfiles": 600, "threads": 1}),
                       gauges={"web-mem": "mem", "web-ssd": "ssd",
                               "web-all": None})
        )
        result = scenario.run(warmup_s=20, duration_s=40, sample_interval_s=5)
        assert list(result.series) == ["vm-all", "web-mem", "web-ssd",
                                       "web-all"]
        mem, ssd, both, vm = (result.series[label].values for label in
                              ("web-mem", "web-ssd", "web-all", "vm-all"))
        assert max(mem) > 0 and max(ssd) > 0
        assert [m + s for m, s in zip(mem, ssd)] == pytest.approx(both)
        assert vm == both  # the VM's only container

    def test_named_workload_draws_the_hand_wired_stream(self):
        from repro import SimContext
        from repro.core import DDConfig
        from repro.workloads import WebserverWorkload

        args = {"nfiles": 300, "threads": 1}
        runtime = {}
        scenario = (
            Scenario(seed=9)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "c", 64, policy="mem:100",
                       workload=("webserver", {"name": "web-x", **args}))
            .at(1, runtime.update)
        )
        scenario.run(warmup_s=10, duration_s=30)

        ctx = SimContext(seed=9)
        host = ctx.create_host()
        host.install_doubledecker(DDConfig(mem_capacity_mb=64))
        container = host.create_vm("vm1", memory_mb=512).create_container(
            "c", 64, CachePolicy.memory(100))
        wired = WebserverWorkload(name="web-x", **args)
        wired.start(container, ctx.streams)
        ctx.run(until=40)

        declared = runtime["workloads"]["c"]
        assert declared.name == "web-x"
        assert declared.counters.ops == wired.counters.ops
        assert declared.counters.bytes_read == wired.counters.bytes_read

    def test_determinism(self):
        def build():
            return (
                Scenario(seed=9)
                .cache("doubledecker", mem_mb=64)
                .vm("vm1", memory_mb=512)
                .container("vm1", "web", 64, policy="mem:100",
                           workload=("webserver",
                                     {"nfiles": 300, "threads": 1}))
            )

        r1 = build().run(warmup_s=10, duration_s=30)
        r2 = build().run(warmup_s=10, duration_s=30)
        assert r1.rates["web"]["ops_per_s"] == r2.rates["web"]["ops_per_s"]


class TestStaticPartitions:
    def test_partition_mb_caps_static_cache(self):
        scenario = (
            Scenario(seed=3)
            .cache("static", capacity_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "web", 64, partition_mb=16,
                       workload=("webserver", {"nfiles": 600, "threads": 1}))
        )
        result = scenario.run(warmup_s=15, duration_s=20)
        stats = result.cache_stats["web"]
        assert stats.puts_stored > 0
        assert stats.mem_used_blocks <= (16 << 20) // (64 << 10)

    def test_partition_on_other_caches_rejected(self):
        scenario = (
            Scenario(seed=3)
            .cache("doubledecker", mem_mb=64)
            .vm("vm1", memory_mb=512)
            .container("vm1", "web", 64, policy="mem:100", partition_mb=16,
                       workload=("webserver", {"nfiles": 300, "threads": 1}))
        )
        with pytest.raises(ValueError, match="partition_mb"):
            scenario.run(warmup_s=10, duration_s=15)
