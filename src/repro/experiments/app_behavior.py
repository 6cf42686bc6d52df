"""FIG-3 / TAB-1 — memory-split sensitivity per application (§2.3.1).

2 GB is split between the container's in-VM memory (cgroup limit) and the
hypervisor cache.  File-backed apps (Webserver, MongoDB) are insensitive
to the split — the combined cache is what matters; anon-memory apps
(Redis, MySQL) degrade as in-VM memory shrinks because the hypervisor
cache cannot absorb anonymous pages (they swap instead).

Table 1 is the diagnosis at the equal (1:1) split: swap traffic, anon
usage and hypervisor-cache usage per app.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .runner import Experiment, ExperimentResult, run_cells
from .scenarios import Scenario

__all__ = ["AppBehaviorExperiment", "SPLITS"]

APPS = ("webserver", "redis", "mongodb", "mysql")

#: (in-VM GB, hypervisor-cache GB) splits of the 2 GB budget (Figure 3's x-axis).
SPLITS: List[Tuple[float, float]] = [
    (2.0, 0.0),
    (1.5, 0.5),
    (1.0, 1.0),
    (0.5, 1.5),
    (0.25, 1.75),
]


class AppBehaviorExperiment(Experiment):
    """Throughput vs in-VM:cache split for Webserver/Redis/MongoDB/MySQL."""

    exp_id = "FIG-3/TAB-1"
    name = "app_behavior"
    description = (
        "2 GB split between container memory and hypervisor cache; ops/sec "
        "per app and the guest-metric diagnosis at the equal split."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 warmup_s: float = None, duration_s: float = None) -> None:
        super().__init__(scale, seed)
        self.warmup_s = warmup_s if warmup_s is not None else self.secs(240.0)
        self.duration_s = duration_s if duration_s is not None else self.secs(360.0)

    # -- workload factory -------------------------------------------------------

    def _make_workload(self, app: str) -> Tuple[str, dict]:
        if app == "webserver":
            return app, dict(
                nfiles=self.count(14000), mean_size_kb=128.0, threads=2)
        if app == "redis":
            return app, dict(nrecords=self.count(1_800_000), threads=2)
        if app == "mongodb":
            return app, dict(nrecords=self.count(3_000_000), threads=2)
        if app == "mysql":
            return app, dict(
                nrecords=self.count(2_000_000),
                buffer_pool_mb=self.mb(1024.0),
                threads=2,
            )
        raise ValueError(f"unknown app {app!r}")

    def cells(self):
        return [(app, vm_gb, cache_gb) for app in APPS
                for vm_gb, cache_gb in SPLITS]

    def simulate(self, app: str, vm_gb: float, cache_gb: float) -> dict:
        """One app at one split: its rates plus swap and anon usage."""
        run = (
            Scenario(seed=self.seed)
            .cache("doubledecker", mem_mb=max(0.0, self.mb(cache_gb * 1024)))
            .vm("vm1", memory_mb=self.mb(vm_gb * 1024) + 256)
            .container("vm1", app, self.mb(vm_gb * 1024),
                       "mem:100" if cache_gb > 0 else "none",
                       self._make_workload(app))
            .run(self.warmup_s, self.duration_s)
        )
        container = run.containers[app]
        out = run.rates[app]
        out["swap_mb"] = container.swap_out_mb
        out["anon_mb"] = container.anon_mb
        return out

    @staticmethod
    def _add_table1(result: ExperimentResult, equal: List[dict]) -> None:
        """Table 1 from the four apps' cells at the equal split."""
        result.add_table(
            "table1: guest metrics at the 1:1 split",
            ["app", "total swap (MB)", "anon usage (MB)", "hv cache usage (MB)"],
            [[app, round(cell["swap_mb"], 1), round(cell["anon_mb"], 1),
              round(cell["hvcache_mb"], 1)] for app, cell in zip(APPS, equal)],
        )

    def run_table1_only(self) -> ExperimentResult:
        """Only the equal-split cells (Table 1) — cheaper than the sweep."""
        result = ExperimentResult(self.name + "-table1",
                                  "Guest metrics at the 1:1 split (Table 1).")
        outcomes = run_cells(self.simulate, [(app, 1.0, 1.0) for app in APPS])
        for app, cell in zip(APPS, outcomes):
            for key in ("swap_mb", "anon_mb", "hvcache_mb"):
                result.scalars[f"{app}_{key}"] = cell[key]
        self._add_table1(result, outcomes)
        return result

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        cells: Dict[Tuple[str, float], dict] = {
            (app, vm_gb): cell
            for (app, vm_gb, _), cell in zip(self.cells(), outcomes)}
        result.add_table(
            "fig3: ops/sec by (in-VM GB : cache GB) split",
            ["app"] + [f"{a}:{b}" for a, b in SPLITS],
            [[app] + [round(cells[(app, vm_gb)]["ops_per_s"], 1)
                      for vm_gb, _ in SPLITS] for app in APPS])
        self._add_table1(result, [cells[(app, 1.0)] for app in APPS])
        for app in APPS:
            full = cells[(app, SPLITS[0][0])]["ops_per_s"]
            tight = cells[(app, SPLITS[-1][0])]["ops_per_s"]
            result.scalars[f"{app}_degradation"] = (
                tight / full if full > 0 else 0.0
            )
        result.note(
            "Paper shape: Webserver and MongoDB flat across splits; Redis "
            "very fast at 2:0 and stalled at 0.25:1.75; MySQL degrades as "
            "in-VM memory shrinks. Table 1: Redis/MySQL swap and cannot use "
            "the hypervisor cache; Webserver/MongoDB fill it instead."
        )
        return result
