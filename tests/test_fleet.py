"""Fleet topology tests: sharding, migration, lending, and equivalence.

The load-bearing property is at the bottom: a 1-host fleet reproduces
the single-host ``SimContext`` path byte-for-byte (the sharded runner is
a pure refactor of the simulation loop, not a new model).
"""

import pytest

from repro import (
    CachePolicy,
    DDConfig,
    Fleet,
    HostSpec,
    NetworkModel,
    SimContext,
    StoreKind,
)
from repro.core import DoubleDeckerCache
from repro.core.audit import InvariantViolation, assert_consistent
from repro.fleet import LendingCoordinator, assert_fleet_clean, check_fleet
from repro.obs import (
    Tracer,
    parse_jsonl,
    set_tracer,
    to_jsonl,
    validate_trace,
)
from repro.simkernel import Environment
from repro.storage import MB, SSD
from repro.workloads import VarmailWorkload, WebserverWorkload

MEM = StoreKind.MEMORY
BLK = 64 * 1024


@pytest.fixture
def no_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


def make_cache(mem_mb=1.0, ssd_mb=0.0, env=None):
    env = env or Environment()
    ssd = SSD(env, BLK) if ssd_mb > 0 else None
    cache = DoubleDeckerCache(
        env,
        DDConfig(mem_capacity_mb=mem_mb, ssd_capacity_mb=ssd_mb),
        BLK,
        ssd_device=ssd,
    )
    return env, cache


def run_gen(env, gen):
    return env.run(until=env.process(gen))


def build_fleet(hosts=2, seed=11, mem_mb=16.0, pressured=(0,)):
    """Fleet with one webserver VM per host; ``pressured`` hosts overflow
    their guest page cache (cleancache traffic), the rest stay idle."""
    fleet = Fleet(seed=seed, hosts=hosts)
    caches = fleet.install_doubledecker(DDConfig(mem_capacity_mb=mem_mb))
    workloads = []
    for i in range(hosts):
        hot = i in pressured
        vm = fleet.create_vm(i, f"vm{i}", memory_mb=72 if hot else 160)
        container = vm.create_container("app", 32, CachePolicy.memory(100))
        workload = WebserverWorkload(
            "web", nfiles=800 if hot else 30, mean_size_kb=64.0, threads=1
        )
        workload.start(container, fleet.nodes[i].streams)
        workloads.append(workload)
    return fleet, caches, workloads


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_rejects_zero_hosts(self):
        with pytest.raises(ValueError):
            Fleet(hosts=0)

    def test_migrate_to_same_host_rejected(self):
        fleet = Fleet(hosts=2)
        with pytest.raises(ValueError):
            fleet.migrate_vm("vm", 1, 1)

    def test_control_action_in_the_past_rejected(self):
        fleet, _, _ = build_fleet(hosts=2, pressured=())
        fleet.run(until=5.0)
        with pytest.raises(ValueError):
            fleet._at(1.0, lambda now: None)

    def test_enable_lending_twice_rejected(self):
        fleet = Fleet(hosts=2)
        fleet.install_doubledecker(DDConfig(mem_capacity_mb=1.0))
        fleet.enable_lending()
        with pytest.raises(RuntimeError):
            fleet.enable_lending()

    def test_network_model_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=0.0)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_mb_s=-1.0)
        net = NetworkModel(latency_s=0.001, bandwidth_mb_s=100.0)
        with pytest.raises(ValueError):
            net.transfer_time(-1)
        assert net.transfer_time(0) == pytest.approx(0.001)
        assert net.transfer_time(100 * MB) == pytest.approx(1.001)

    def test_lending_coordinator_validation(self):
        fleet = Fleet(hosts=2)
        with pytest.raises(ValueError):
            LendingCoordinator(fleet, interval_s=fleet.net.latency_s / 2)
        with pytest.raises(ValueError):
            LendingCoordinator(fleet, low_util=0.9, high_util=0.5)
        with pytest.raises(ValueError):
            LendingCoordinator(fleet, lend_fraction=0.0)


# ---------------------------------------------------------------------------
# Cache-level lending primitive
# ---------------------------------------------------------------------------


class TestSetLending:
    def test_lend_in_grows_capacity(self):
        _, cache = make_cache(mem_mb=1.0)
        base = cache.capacities[MEM]
        cache.set_lending(MEM, lend_in=8)
        assert cache.capacities[MEM] == base + 8
        assert_consistent(cache, where="lend_in")

    def test_lend_out_shrinks_and_evicts(self):
        env, cache = make_cache(mem_mb=1.0)
        vm = cache.register_vm("a")
        pool = cache.create_pool(vm, "c", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(16)]))
        assert cache.used[MEM] == 16
        cache.set_lending(MEM, lend_out=8)
        assert cache.capacities[MEM] == 8
        assert cache.used[MEM] <= 8
        assert_consistent(cache, where="lend_out shrink")

    def test_regrant_is_idempotent(self):
        _, cache = make_cache(mem_mb=1.0)
        cache.set_lending(MEM, lend_in=4)
        cache.set_lending(MEM, lend_in=4)
        assert cache.capacities[MEM] == cache._base_capacity[MEM] + 4
        cache.set_lending(MEM)
        assert cache.capacities[MEM] == cache._base_capacity[MEM]

    def test_set_capacity_rebases_under_grant(self):
        _, cache = make_cache(mem_mb=1.0)
        cache.set_lending(MEM, lend_in=4)
        cache.set_capacity(MEM, 2.0)
        assert cache._base_capacity[MEM] == 32
        assert cache.capacities[MEM] == 36
        assert_consistent(cache, where="rebase")

    def test_invalid_grants_rejected(self):
        _, cache = make_cache(mem_mb=1.0)
        with pytest.raises(ValueError):
            cache.set_lending(MEM, lend_in=-1)
        with pytest.raises(ValueError):
            cache.set_lending(MEM, lend_in=1, lend_out=1)
        with pytest.raises(ValueError):
            cache.set_lending(MEM, lend_out=17)


# ---------------------------------------------------------------------------
# Cache-level export/adopt primitives
# ---------------------------------------------------------------------------


class TestExportAdopt:
    def _filled_cache(self, nblocks=8):
        env, cache = make_cache(mem_mb=1.0)
        vm = cache.register_vm("src")
        pool = cache.create_pool(vm, "app", CachePolicy.memory(100))
        run_gen(env, cache.put_many(vm, pool, [(1, i) for i in range(nblocks)]))
        return env, cache, vm

    def test_export_lists_all_memory_blocks(self):
        _, cache, vm = self._filled_cache()
        exported = cache.export_vm_blocks(vm)
        assert len(exported) == 1
        name, policy, items = exported[0]
        assert name == "app"
        assert len(items) == 8
        assert all(kind is MEM for _, _, kind in items)

    def test_adopt_accepts_into_fresh_pool(self):
        _, src, src_vm = self._filled_cache()
        _, dst = make_cache(mem_mb=1.0)
        vm = dst.register_vm("dst")
        pool = dst.create_pool(vm, "app", CachePolicy.memory(100))
        _, _, items = src.export_vm_blocks(src_vm)[0]
        accepted, rejected = dst.adopt_blocks(vm, pool, items)
        assert (accepted, rejected) == (8, 0)
        assert dst.used[MEM] == 8
        assert_consistent(dst, where="adopt")

    def test_adopt_rejects_duplicates(self):
        _, src, src_vm = self._filled_cache()
        _, dst = make_cache(mem_mb=1.0)
        vm = dst.register_vm("dst")
        pool = dst.create_pool(vm, "app", CachePolicy.memory(100))
        _, _, items = src.export_vm_blocks(src_vm)[0]
        dst.adopt_blocks(vm, pool, items)
        accepted, rejected = dst.adopt_blocks(vm, pool, items)
        assert (accepted, rejected) == (0, 8)
        assert dst.used[MEM] == 8
        assert_consistent(dst, where="duplicate adopt")

    def test_adopt_stops_at_capacity_without_evicting(self):
        _, src, src_vm = self._filled_cache(nblocks=16)
        dst_env, dst = make_cache(mem_mb=1.0)
        vm = dst.register_vm("dst")
        pool = dst.create_pool(vm, "app", CachePolicy.memory(100))
        # Pre-warm the destination: 12 of its 16 blocks are residents
        # that adoption must not evict.
        run_gen(dst_env, dst.put_many(vm, pool, [(9, i) for i in range(12)]))
        _, _, items = src.export_vm_blocks(src_vm)[0]
        accepted, rejected = dst.adopt_blocks(vm, pool, items)
        assert accepted == 4
        assert rejected == 12
        assert dst.used[MEM] == 16
        assert dst.pool_used_mb(pool) == pytest.approx(1.0)
        assert_consistent(dst, where="full adopt")

    def test_adopt_rejects_ssd_blocks(self):
        env, src = make_cache(mem_mb=0.0, ssd_mb=4.0)
        src_vm = src.register_vm("src")
        src_pool = src.create_pool(src_vm, "app", CachePolicy.ssd(100))
        run_gen(env, src.put_many(src_vm, src_pool,
                                  [(1, i) for i in range(8)]))
        env.run(until=env.now + 5.0)  # drain the SSD write buffer
        _, _, items = src.export_vm_blocks(src_vm)[0]
        assert any(kind is StoreKind.SSD for _, _, kind in items)
        _, dst = make_cache(mem_mb=1.0)
        vm = dst.register_vm("dst")
        pool = dst.create_pool(vm, "app", CachePolicy.memory(100))
        accepted, rejected = dst.adopt_blocks(vm, pool, items)
        assert accepted + rejected == len(items)
        assert rejected >= sum(1 for _, _, k in items if k is StoreKind.SSD)
        stats = dst._pools[pool].stats
        assert stats.migrated_rejected == rejected
        assert_consistent(dst, where="ssd adopt")


# ---------------------------------------------------------------------------
# Fleet-level migration
# ---------------------------------------------------------------------------


class TestMigration:
    def test_migration_accounting_conserves_blocks(self, no_tracer):
        fleet, caches, workloads = build_fleet(hosts=2, pressured=(0,))
        arrivals = []
        fleet.run(until=20.0)
        src_used = caches[0].used[MEM]
        assert src_used > 0
        fleet.migrate_vm(
            "vm0", 0, 1,
            on_depart=lambda vm, node: workloads[0].stop(),
            on_arrival=lambda vm, node: arrivals.append((vm, node)),
        )
        fleet.run(until=21.0)
        assert len(fleet.migrations) == 1
        record = fleet.migrations[0]
        assert record.blocks_exported == src_used
        assert record.blocks_accepted + record.blocks_rejected == src_used
        assert record.blocks_accepted > 0
        assert record.downtime_s >= fleet.net.transfer_time(0)
        # The wire carried the RAM image plus the memory blocks.
        assert record.bytes_moved == pytest.approx(
            72 * MB + record.blocks_exported * caches[0].block_bytes
        )
        new_vm, node = arrivals[0]
        assert node.index == 1
        stats = new_vm.containers["app"].cache_stats()
        assert stats.migrated_in == record.blocks_accepted
        assert stats.migrated_rejected == record.blocks_rejected
        assert caches[0].used[MEM] == 0
        assert check_fleet(fleet) == []

    def test_migration_rejects_when_destination_full(self, no_tracer):
        fleet, caches, workloads = build_fleet(hosts=2, mem_mb=4.0,
                                               pressured=(0, 1))
        fleet.run(until=20.0)
        # The destination is near-full: fewer free blocks than the source
        # will export, so some adoptions must be refused.
        free = caches[1].capacities[MEM] - caches[1].used[MEM]
        assert free < caches[0].used[MEM]
        fleet.migrate_vm("vm0", 0, 1,
                         on_depart=lambda vm, node: workloads[0].stop())
        fleet.run(until=21.0)
        record = fleet.migrations[0]
        assert record.blocks_rejected > 0
        assert record.blocks_accepted + record.blocks_rejected == \
            record.blocks_exported
        # Adoption never evicts the destination's own warm blocks.
        assert caches[1].used[MEM] <= caches[1].capacities[MEM]
        assert_fleet_clean(fleet, where="full destination")

    def test_unknown_vm_fails_at_departure_time(self, no_tracer):
        fleet, _, _ = build_fleet(hosts=2, pressured=())
        fleet.migrate_vm("nope", 0, 1, at=1.0)
        with pytest.raises(KeyError):
            fleet.run(until=2.0)


# ---------------------------------------------------------------------------
# Fleet-level lending
# ---------------------------------------------------------------------------


class TestLending:
    def test_grants_flow_from_idle_to_pressured(self, no_tracer):
        fleet, caches, _ = build_fleet(hosts=2, pressured=(0,))
        fleet.enable_lending(interval_s=5.0)
        fleet.run(until=30.0)
        assert caches[0].lend_in[MEM] > 0
        assert caches[1].lend_out[MEM] > 0
        assert caches[0].lend_in[MEM] == caches[1].lend_out[MEM]
        assert fleet.lending.history
        when, grants = fleet.lending.history[-1]
        assert sum(grants.values()) == 0  # signed grants conserve
        assert check_fleet(fleet) == []

    def test_no_borrowers_collapses_all_grants(self):
        fleet = Fleet(hosts=2)
        caches = fleet.install_doubledecker(DDConfig(mem_capacity_mb=1.0))
        caches[0].set_lending(MEM, lend_in=4)
        caches[1].set_lending(MEM, lend_out=4)
        coordinator = LendingCoordinator(fleet)
        coordinator.rebalance(0.0)
        for cache in caches:
            assert cache.lend_in[MEM] == 0
            assert cache.lend_out[MEM] == 0
        assert coordinator.history == []
        assert check_fleet(fleet) == []

    def test_check_fleet_flags_unbalanced_grants(self):
        fleet = Fleet(hosts=2)
        caches = fleet.install_doubledecker(DDConfig(mem_capacity_mb=1.0))
        caches[0].set_lending(MEM, lend_in=4)
        violations = check_fleet(fleet)
        assert any("not conserved" in v for v in violations)
        with pytest.raises(InvariantViolation):
            assert_fleet_clean(fleet, where="unbalanced")


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestFleetTracing:
    def test_traced_fleet_run_replays_cleanly(self, no_tracer):
        tracer = Tracer(max_events=500_000)
        set_tracer(tracer)
        try:
            fleet, caches, workloads = build_fleet(hosts=2, pressured=(0,))
            fleet.enable_lending(interval_s=5.0)
            fleet.run(until=20.0)
            fleet.migrate_vm("vm0", 0, 1,
                             on_depart=lambda vm, node: workloads[0].stop())
            fleet.run(until=25.0)
        finally:
            set_tracer(None)
        assert tracer.dropped == 0
        meta, events = parse_jsonl(to_jsonl(tracer))
        # The run truncates mid-operation at until=25, so in-flight spans
        # are expected; the provenance replay must still reconcile.
        assert validate_trace(meta, events, allow_open_spans=True) == []
        names = {event["name"] for event in events}
        assert "lend.apply" in names
        assert "migrate.cross_host" in names
        totals = {}
        for pools in tracer.ledger.values():
            for counters in pools.values():
                for field, value in counters.items():
                    totals[field] = totals.get(field, 0) + value
        assert totals["migrated_out"] > 0
        assert totals["migrated_out"] == (
            totals["migrated_in"] + totals["migrated_rejected"]
        )

    def test_scoped_latency_histograms(self, no_tracer):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            fleet, _, _ = build_fleet(hosts=2, pressured=(0, 1))
            fleet.run(until=10.0)
        finally:
            set_tracer(None)
        rows = {row[0] for row in tracer.latency_rows(per_pool=False)}
        assert "obs.lat.get" in rows
        assert "obs.lat.host0.get" in rows
        assert "obs.lat.host1.get" in rows

    def test_metrics_export_labels_every_host(self, no_tracer):
        from repro.metrics import check_exposition

        fleet, _, _ = build_fleet(hosts=2, pressured=(0, 1))
        for node in fleet.nodes:  # sampling is opt-in: it adds events
            node.host.sampler.start()
        fleet.run(until=12.0)  # past the sampler interval: gauges exist
        text = fleet.export_metrics_text()
        assert check_exposition(text) == []
        assert 'host="host0"' in text
        assert 'host="host1"' in text
        # Same-name families from different hosts merge into one family:
        # each metric name appears in exactly one # TYPE line.
        type_lines = [line for line in text.splitlines()
                      if line.startswith("# TYPE")]
        names = [line.split()[2] for line in type_lines]
        assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Determinism and equivalence
# ---------------------------------------------------------------------------


def _fleet_fingerprint():
    fleet, caches, workloads = build_fleet(hosts=3, seed=42,
                                           pressured=(0, 2))
    fleet.enable_lending(interval_s=5.0)
    fleet.run(until=25.0)
    return repr(
        [(w.counters.ops, w.counters.bytes_read, w.counters.bytes_written)
         for w in workloads]
        + [(dict(c.used), dict(c.lend_in), dict(c.lend_out)) for c in caches]
    )


class TestDeterminism:
    def test_same_seed_same_result(self, no_tracer):
        assert _fleet_fingerprint() == _fleet_fingerprint()


def _single_host_state(platform):
    """Drive the caching_modes DDMem wiring (scale 0.02) and fingerprint it.

    ``platform`` is ``"ctx"`` (plain SimContext) or ``"fleet"`` (1-host
    Fleet); everything else is identical, so the states must be too.
    """
    scale = 0.02
    if platform == "ctx":
        ctx = SimContext(seed=42)
        host = ctx.create_host(HostSpec())
        streams, run = ctx.streams, ctx.run
    else:
        fleet = Fleet(seed=42, hosts=1)
        host = fleet.nodes[0].host
        streams, run = fleet.nodes[0].streams, fleet.run
    cache = host.install_doubledecker(
        DDConfig(mem_capacity_mb=3072 * scale)
    )
    vm = host.create_vm("vm1", memory_mb=8192 * scale, vcpus=8)
    workloads = []
    for name, workload in (
        ("webserver", WebserverWorkload(
            "webserver", nfiles=230, mean_size_kb=128.0, threads=2,
            cpu_think_ms=3.0)),
        ("mail", VarmailWorkload("mail", nfiles=500, mean_size_kb=32.0,
                                 threads=2)),
    ):
        container = vm.create_container(name, 1024 * scale,
                                        CachePolicy.memory(25.0))
        workload.start(container, streams)
        workloads.append((workload, container))
    # Both workloads are in steady state well before t=30; a longer span
    # only repeats it.
    run(until=30.0)
    begin = [w.snapshot() for w, _ in workloads]
    run(until=75.0)
    state = []
    for (workload, container), snap in zip(workloads, begin):
        state.append((workload.name,
                      workload.snapshot().rates_since(snap),
                      repr(container.cache_stats())))
    state.append(repr(sorted((k.name, v) for k, v in cache.used.items())))
    state.append(repr(sorted((k.name, v) for k, v in cache.capacities.items())))
    return repr(state)


@pytest.mark.slow
class TestSingleHostEquivalence:
    def test_one_host_fleet_matches_simcontext(self, no_tracer):
        assert _single_host_state("ctx") == _single_host_state("fleet")
