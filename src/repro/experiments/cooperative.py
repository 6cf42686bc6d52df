"""TAB-4 — efficacy of cooperative memory management (§5.2.1).

Four data-store containers (MongoDB, MySQL, Redis, Webserver) with
per-application SLAs share one VM and a 2 GB hypervisor cache.

* **Morai++** approximates centralized SLA-driven cache partitioning: the
  VM-internal memory provisioning is untouched (containers share the VM
  under global reclaim) and we exhaustively search static hypervisor-cache
  partitions, reporting the best (SLA-adherent, max aggregate) one.
* **DoubleDecker** additionally provisions *in-VM* memory (cgroup limits
  1 / 2 / 2 / 1 GB chosen from the Table-1-style diagnosis) and searches
  the cache weights — the two-level provisioning centralized schemes
  cannot express.

The paper's shape: Morai++ cannot satisfy Redis/MySQL (anonymous-memory
apps squeezed by the webserver's page-cache appetite); DoubleDecker meets
every SLA, with Redis improving by orders of magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .runner import Experiment, ExperimentResult
from .scenarios import Scenario

__all__ = ["CooperativeExperiment", "SLAS", "PARTITION_CANDIDATES"]

APPS = ("mongodb", "mysql", "redis", "webserver")

#: Target throughputs (ops/sec); chosen to discriminate like the paper's.
SLAS = {"mongodb": 15.0, "mysql": 50.0, "redis": 5000.0, "webserver": 100.0}

#: Hypervisor-cache split candidates (%, order = APPS).  The paper swept
#: partitions by hand; this grid includes its reported winner (60:40
#: between MongoDB and Webserver) and the natural alternatives.
PARTITION_CANDIDATES: List[Tuple[float, float, float, float]] = [
    (25.0, 25.0, 25.0, 25.0),
    (60.0, 0.0, 0.0, 40.0),
    (40.0, 0.0, 0.0, 60.0),
    (30.0, 0.0, 0.0, 70.0),
    (50.0, 25.0, 0.0, 25.0),
    (34.0, 33.0, 0.0, 33.0),
]

#: DoubleDecker's in-VM memory plan (GB at scale 1.0), from the VM-level
#: manager's knowledge of anon vs file behaviour (Table 1).
DD_MEMORY_PLAN_GB = {"mongodb": 1.0, "mysql": 2.0, "redis": 2.0, "webserver": 1.0}


class CooperativeExperiment(Experiment):
    """Morai++ (centralized) vs DoubleDecker (cooperative two-level)."""

    exp_id = "TAB-4"
    name = "cooperative"
    description = (
        "SLA-driven provisioning of four data stores: centralized cache "
        "partition search (Morai++) vs DoubleDecker's cooperative in-VM + "
        "cache provisioning."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 warmup_s: float = None, duration_s: float = None,
                 candidates: Optional[Sequence[Tuple[float, ...]]] = None) -> None:
        super().__init__(scale, seed)
        self.warmup_s = warmup_s if warmup_s is not None else self.secs(300.0)
        self.duration_s = duration_s if duration_s is not None else self.secs(300.0)
        self.candidates = list(candidates or PARTITION_CANDIDATES)

    def _make_workloads(self):
        return {
            "mongodb": ("mongodb", dict(
                nrecords=self.count(3_000_000), threads=2)),
            "mysql": ("mysql", dict(
                nrecords=self.count(2_000_000),
                buffer_pool_mb=self.mb(1024.0), threads=2)),
            "redis": ("redis", dict(
                nrecords=self.count(1_900_000), threads=2)),
            "webserver": ("webserver", dict(
                nfiles=self.count(15000), mean_size_kb=128.0, threads=2,
                cpu_think_ms=3.0)),
        }

    def cells(self):
        return [(technique, partition) for technique in ("morai", "dd")
                for partition in self.candidates]

    def simulate(self, technique: str,
                 partition: Tuple[float, ...]) -> Dict[str, dict]:
        """One partition under one technique: per-app rates + memory usage."""
        vm_mb = self.mb(6144)
        scenario = Scenario(seed=self.seed).vm("vm1", memory_mb=vm_mb)
        workloads = self._make_workloads()
        if technique == "morai":
            # Centralized: the VM is a black box; containers share the
            # VM memory with no individual limits.
            scenario.cache("static", capacity_mb=self.mb(2048))
            for app, weight in zip(APPS, partition):
                scenario.container(
                    "vm1", app, vm_mb, "mem:100", workloads[app],
                    partition_mb=self.mb(2048) * weight / 100.0)
        else:
            scenario.cache("doubledecker", mem_mb=self.mb(2048))
            for app, weight in zip(APPS, partition):
                scenario.container(
                    "vm1", app, self.mb(DD_MEMORY_PLAN_GB[app] * 1024),
                    f"mem:{weight}" if weight > 0 else "none", workloads[app])
        run = scenario.run(self.warmup_s, self.duration_s)

        for app, cell in run.rates.items():
            container = run.containers[app]
            cell["app_memory_gb"] = (container.anon_mb + container.file_mb) / 1024.0
            cell["hvcache_gb"] = container.hvcache_mb / 1024.0
        return run.rates

    def _score(self, cells: Dict[str, dict]) -> Tuple[int, float]:
        """(#SLAs met, aggregate throughput) — lexicographic, as in the
        paper: first SLA adherence, then maximum aggregate ops/sec."""
        met = sum(
            1 for app in APPS if cells[app]["ops_per_s"] >= SLAS[app]
        )
        aggregate = sum(cells[app]["ops_per_s"] for app in APPS)
        return met, aggregate

    def _best(self, outcomes: List[Dict[str, dict]]
              ) -> Tuple[Tuple[float, ...], Dict[str, dict]]:
        """The first candidate with the highest score, and its cells."""
        return max(zip(self.candidates, outcomes),
                   key=lambda pair: self._score(pair[1]))

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        searched = len(self.candidates)
        morai_part, morai = self._best(outcomes[:searched])
        dd_part, dd = self._best(outcomes[searched:])

        rows: List[List[object]] = []
        for app in APPS:
            for technique, cells in (("Morai++", morai), ("DoubleDecker", dd)):
                cell = cells[app]
                rows.append([
                    app,
                    f"{SLAS[app]:.0f}",
                    technique,
                    round(cell["ops_per_s"], 1),
                    "yes" if cell["ops_per_s"] >= SLAS[app] else "NO",
                    round(cell["app_memory_gb"], 2),
                    round(cell["hvcache_gb"], 2),
                ])
        result.add_table(
            "table4: centralized vs cooperative provisioning",
            ["workload", "SLA (ops/s)", "technique", "ops/s", "SLA met",
             "app memory (GB)", "hv cache (GB)"],
            rows,
        )
        result.note(f"Morai++ best partition (mongo/mysql/redis/web %): {morai_part}")
        result.note(f"DoubleDecker best weights: {dd_part}; "
                    f"in-VM plan GB: {DD_MEMORY_PLAN_GB}")
        for app in APPS:
            base = morai[app]["ops_per_s"]
            result.scalars[f"{app}_dd_vs_morai"] = (
                dd[app]["ops_per_s"] / base if base > 0 else float("inf")
            )
        result.scalars["morai_slas_met"] = self._score(morai)[0]
        result.scalars["dd_slas_met"] = self._score(dd)[0]
        result.note(
            "Paper shape: Morai++ misses the Redis and MySQL SLAs (anon "
            "memory squeezed by the webserver's page-cache appetite) while "
            "DD meets all four; Redis improves by ~1000x under DD."
        )
        return result
