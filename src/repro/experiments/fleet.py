"""FLEET-1 — multi-host cooperative caching across a fleet (§3/§6 outlook).

The paper evaluates DoubleDecker on one host; this experiment scales the
same machinery out to a *fleet*: N hosts, each a private simulation
shard, coupled only by the inter-host network model.  One host is
deliberately overloaded (hot), one deliberately idle (cold), the rest
run moderate load — which exercises both cooperation mechanisms:

* **remote-memory lending** — the coordinator periodically moves slack
  capacity from cold hosts to pressured ones;
* **VM live-migration** — two VMs are evacuated from the hot host to the
  cold host mid-run, their cached blocks shipped and adopted with
  per-block accept/reject accounting.

The run always produces latency histograms at both aggregation levels:
fleet-wide ``obs.lat.{op}`` and per-host ``obs.lat.hostN.{op}`` (a
tracer is installed for the duration if none is active).  Reported:
per-host and fleet-wide cache behaviour, both latency tables, the
migration ledger, and the lending grant history.  The fleet's invariants
(:func:`~repro.fleet.check_fleet`) are asserted at the end of the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import CachePolicy, DDConfig, StoreKind
from ..fleet import Fleet, assert_fleet_clean
from ..obs import Tracer, set_tracer
from ..obs import tracer as _obs
from ..storage import MB
from ..workloads import VarmailWorkload, WebproxyWorkload, WebserverWorkload
from .runner import Experiment, ExperimentResult

__all__ = ["FleetExperiment"]

_MEMORY = StoreKind.MEMORY

#: Per-host load factor: index 0 is the hot host, the last host is the
#: cold one (the migration target and lending donor), the rest moderate.
_HOT, _MODERATE, _COLD = 2.0, 0.7, 0.15


class FleetExperiment(Experiment):
    """N-host fleet: sharded simulation, lending, and live migration."""

    exp_id = "FLEET-1"
    name = "fleet"
    description = (
        "Multi-host cooperative caching: one overloaded host, one idle "
        "host, remote-memory lending plus two live migrations; per-host "
        "and fleet-wide cache behaviour and latency."
    )
    #: The CLI threads ``--hosts`` into this experiment only.
    takes_fleet_args = True

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 hosts: Optional[int] = None,
                 warmup_s: float = None, duration_s: float = None) -> None:
        super().__init__(scale, seed)
        self.hosts = 4 if hosts is None else hosts
        if self.hosts < 2:
            raise ValueError(
                f"fleet experiment needs at least 2 hosts, got {self.hosts}"
            )
        self.vms_per_host = max(2, self.count(10))
        self.warmup_s = warmup_s if warmup_s is not None else self.secs(120.0)
        self.duration_s = (duration_s if duration_s is not None
                           else self.secs(360.0))

    # -- workload construction -------------------------------------------

    def _host_factor(self, host: int) -> float:
        if host == 0:
            return _HOT
        if host == self.hosts - 1:
            return _COLD
        return _MODERATE

    def _make_workload(self, kind: str, factor: float):
        def files(base: int) -> int:
            return max(10, int(self.count(base) * factor))

        if kind == "webserver":
            return WebserverWorkload("webserver", nfiles=files(1500),
                                     mean_size_kb=64.0, threads=1)
        if kind == "webproxy":
            return WebproxyWorkload("webproxy", nfiles=files(1800),
                                    mean_size_kb=32.0, threads=1)
        return VarmailWorkload("mail", nfiles=files(4000),
                               mean_size_kb=16.0, threads=1)

    # -- the run ----------------------------------------------------------

    def simulate(self) -> ExperimentResult:
        """The one fleet run.  Its tables are read off live objects
        (caches, the migration ledger, the tracer), so the cell returns
        the finished result — plain rows and scalars — itself."""
        result = ExperimentResult(self.name, self.description)
        # Latency histograms are part of this experiment's contract, so
        # install a tracer when the harness hasn't (restored afterwards).
        own_tracer = _obs.ACTIVE is None
        tracer = Tracer(max_events=50_000) if own_tracer else _obs.ACTIVE
        if own_tracer:
            set_tracer(tracer)
        try:
            return self._run(result, tracer)
        finally:
            if own_tracer:
                set_tracer(None)

    def _run(self, result: ExperimentResult, tracer: Tracer) -> ExperimentResult:
        fleet = Fleet(seed=self.seed, hosts=self.hosts)
        caches = fleet.install_doubledecker(
            DDConfig(mem_capacity_mb=self.mb(512))
        )
        weight = 100.0 / self.vms_per_host
        kinds = ("webserver", "webproxy", "mail")
        # One record per VM, updated in place when the VM migrates:
        # {name, kind, factor, host, container, workload}.
        records: List[Dict[str, object]] = []
        by_name: Dict[str, Dict[str, object]] = {}
        for host in range(self.hosts):
            factor = self._host_factor(host)
            for slot in range(self.vms_per_host):
                name = f"h{host}v{slot}"
                kind = kinds[(host * self.vms_per_host + slot) % len(kinds)]
                vm = fleet.create_vm(host, name, memory_mb=self.mb(64),
                                     vcpus=2, cache_weight=weight)
                container = vm.create_container(
                    "app", self.mb(256), CachePolicy.memory(weight)
                )
                workload = self._make_workload(kind, factor)
                workload.start(container, fleet.nodes[host].streams)
                record = {"name": name, "kind": kind, "factor": factor,
                          "host": host, "container": container,
                          "workload": workload}
                records.append(record)
                by_name[name] = record

        fleet.enable_lending(interval_s=max(5.0, self.secs(30.0)),
                             low_util=0.5, high_util=0.9, lend_fraction=0.5)

        def on_depart(vm, node) -> None:
            by_name[vm.name]["workload"].stop()

        def on_arrival(new_vm, node) -> None:
            record = by_name[new_vm.name]
            container = new_vm.containers["app"]
            workload = self._make_workload(record["kind"], record["factor"])
            workload.start(container, node.streams)
            record.update(host=node.index, container=container,
                          workload=workload)

        # Two migrations toward the cold host mid-measurement.  With only
        # two VMs per host the second one comes from host 1 so the hot
        # host is never fully emptied; in a 2-host fleet the first VM
        # migrates back instead (exercising both directions).
        cold = self.hosts - 1
        if self.vms_per_host > 2:
            second = ("h0v1", 0, cold)
        elif self.hosts > 2:
            second = ("h1v0", 1, cold)
        else:
            second = ("h0v0", cold, 0)
        first = ("h0v0", 0, cold)
        for step, (vm_name, src, dst) in ((0.3, first), (0.6, second)):
            fleet.migrate_vm(vm_name, src, dst,
                             at=self.warmup_s + step * self.duration_s,
                             on_depart=on_depart, on_arrival=on_arrival)

        fleet.run(until=self.warmup_s + self.duration_s)
        assert_fleet_clean(fleet, where="fleet experiment end")

        self._report(result, fleet, caches, records, tracer)
        return result

    def report(self, outcomes) -> ExperimentResult:
        (result,) = outcomes
        return result

    # -- reporting --------------------------------------------------------

    def _report(self, result, fleet, caches, records, tracer) -> None:
        rows: List[List[object]] = []
        fleet_gets = fleet_hits = fleet_evict = 0
        for host, cache in enumerate(caches):
            gets = hits = evictions = 0
            nvms = 0
            for record in records:
                if record["host"] != host:
                    continue
                nvms += 1
                stats = record["container"].cache_stats()
                if stats is not None:
                    gets += stats.gets
                    hits += stats.get_hits
                    evictions += stats.evictions
            fleet_gets += gets
            fleet_hits += hits
            fleet_evict += evictions
            rows.append([
                f"host{host}", nvms, gets,
                round(100.0 * hits / gets, 1) if gets else 0.0,
                round(cache.used[_MEMORY] * cache.block_bytes / MB, 1),
                round(cache.capacities[_MEMORY] * cache.block_bytes / MB, 1),
                cache.lend_in[_MEMORY], cache.lend_out[_MEMORY],
                evictions,
            ])
        rows.append([
            "fleet", len(records), fleet_gets,
            round(100.0 * fleet_hits / fleet_gets, 1) if fleet_gets else 0.0,
            round(sum(c.used[_MEMORY] * c.block_bytes / MB for c in caches), 1),
            round(sum(c.capacities[_MEMORY] * c.block_bytes / MB
                      for c in caches), 1),
            sum(c.lend_in[_MEMORY] for c in caches),
            sum(c.lend_out[_MEMORY] for c in caches),
            fleet_evict,
        ])
        result.add_table(
            "per-host cache behaviour",
            ["host", "vms", "gets", "hit%", "used MB", "cap MB",
             "lend_in", "lend_out", "evict"],
            rows,
        )

        quantiles = ["op", "count", "mean", "p50", "p90", "p99", "p999"]
        # simulate() installs a tracer when none is active, so this one is live.
        all_rows = tracer.latency_rows(per_pool=False)
        fleet_rows = [r for r in all_rows if ".host" not in r[0]]
        host_rows = [r for r in all_rows if ".host" in r[0]]
        if fleet_rows:
            result.add_table("fleet-wide op latency (ms)", quantiles,
                             [[r[0]] + [round(v, 3) for v in r[1:]]
                              for r in fleet_rows])
        if host_rows:
            result.add_table("per-host op latency (ms)", quantiles,
                             [[r[0]] + [round(v, 3) for v in r[1:]]
                              for r in host_rows])

        result.add_table(
            "migrations",
            ["vm", "src", "dst", "exported", "accepted", "rejected",
             "downtime ms", "moved MB"],
            [[m.vm, m.src_host, m.dst_host, m.blocks_exported,
              m.blocks_accepted, m.blocks_rejected,
              round(m.downtime_s * 1e3, 2), round(m.bytes_moved / MB, 1)]
             for m in fleet.migrations],
        )

        lending = fleet.lending
        result.add_table(
            "lending grants (signed blocks; + borrowed, - lent)",
            ["time s", "grants"],
            [[round(when, 1),
              " ".join(f"host{idx}:{blocks:+d}"
                       for idx, blocks in sorted(grants.items()))]
             for when, grants in lending.history[-8:]],
        )

        result.scalars["fleet_hit_ratio_pct"] = (
            100.0 * fleet_hits / fleet_gets if fleet_gets else 0.0
        )
        result.scalars["blocks_migrated"] = float(
            sum(m.blocks_accepted for m in fleet.migrations)
        )
        result.scalars["lending_rebalances"] = float(lending.rebalances)
        result.note(
            "Expected shape: pressured hosts saturate their stores while "
            "the cold host idles, so lending grants flow cold->hot; the "
            "migrations then move load onto the cold host, and migrated "
            "memory blocks are adopted unless its store fills up."
        )
