"""FIG-8 / FIG-9 / TAB-2 — impact of caching modes (§5.1).

One VM, four containers (webserver, webproxy, varmail, videoserver), three
hypervisor-cache configurations:

* **Global** — 3 GB memory-backed, container-agnostic FIFO;
* **DDMem**  — 3 GB memory-backed DoubleDecker, equal (25%) weights;
* **DDSSD**  — 240 GB SSD-backed DoubleDecker, equal weights.

Reports the occupancy traces (Figs 8-9) and Table 2's per-workload
throughput / latency / lookup-hit ratio / eviction counts.
"""

from __future__ import annotations

from typing import Dict, List

from .runner import Experiment, ExperimentResult
from .scenarios import Scenario

__all__ = ["CachingModesExperiment", "MODES"]

MODES = ("Global", "DDMem", "DDSSD")


class CachingModesExperiment(Experiment):
    """Global vs DoubleDecker (memory) vs DoubleDecker (SSD)."""

    exp_id = "FIG-8/FIG-9/TAB-2"
    name = "caching_modes"
    description = (
        "Four Filebench containers in an 8 GB VM under three hypervisor "
        "cache modes; cache occupancy over time plus application "
        "performance and cache behaviour."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 warmup_s: float = None, duration_s: float = None) -> None:
        super().__init__(scale, seed)
        self.warmup_s = warmup_s if warmup_s is not None else self.secs(500.0)
        self.duration_s = duration_s if duration_s is not None else self.secs(700.0)

    def _workloads(self):
        # Footprints (at scale 1.0): web ~1.75 GB, proxy ~1.5 GB,
        # mail ~1.6 GB, video 4.5 GB (Zipf-popular) — total overflow past
        # the 4x1 GB containers exceeds the 3 GB cache, creating the
        # paper's contention regime with video as the IO hog.
        return [
            ("webserver", ("webserver", dict(
                nfiles=self.count(11500), mean_size_kb=128.0, threads=2,
                cpu_think_ms=3.0))),
            ("webproxy", ("webproxy", dict(
                nfiles=self.count(11000), mean_size_kb=64.0, threads=2))),
            ("mail", ("varmail", dict(
                nfiles=self.count(25000), mean_size_kb=32.0, threads=2))),
            ("videoserver", ("videoserver", dict(
                nvideos=18, video_mb=self.mb(256.0), threads=4,
                stream_pace_ms=2.0))),
        ]

    def cells(self):
        return [(mode,) for mode in MODES]

    def simulate(self, mode: str):
        """One cache mode: ``(per-workload rates, occupancy series)``."""
        scenario = Scenario(seed=self.seed)
        policy = "mem:25"
        if mode == "Global":
            scenario.cache("global", capacity_mb=self.mb(3072),
                           per_vm_cap_mb=self.mb(3072))
        elif mode == "DDMem":
            scenario.cache("doubledecker", mem_mb=self.mb(3072))
        elif mode == "DDSSD":
            scenario.cache("doubledecker", mem_mb=0.0,
                           ssd_mb=self.mb(245760))
            policy = "ssd:25"
        else:
            raise ValueError(f"unknown mode {mode!r}")
        scenario.vm("vm1", memory_mb=self.mb(8192))
        for name, workload in self._workloads():
            scenario.container("vm1", name, self.mb(1024), policy, workload)
        run = scenario.run(self.warmup_s, self.duration_s, max(
            1.0, (self.warmup_s + self.duration_s) / 120))

        for name, cell in run.rates.items():
            stats = run.cache_stats[name]
            cell["hit_ratio_pct"] = 100.0 * stats.hit_ratio if stats else 0.0
            cell["evictions"] = stats.evictions if stats else 0
        return run.rates, run.series

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        per_mode: Dict[str, Dict[str, dict]] = {}
        for mode, (rates, series) in zip(MODES, outcomes):
            per_mode[mode] = rates
            for name, trace in series.items():
                result.add_series(f"{mode}/{name}", trace)

        headers = ["workload"]
        for mode in MODES:
            headers += [f"{mode} MB/s", f"{mode} lat(ms)",
                        f"{mode} lookup%", f"{mode} evict"]
        rows: List[List[object]] = []
        for name in ("webserver", "webproxy", "mail", "videoserver"):
            row: List[object] = [name]
            for mode in MODES:
                cell = per_mode[mode][name]
                row += [
                    round(cell["mb_per_s"], 1),
                    round(cell["mean_latency_ms"], 1),
                    round(cell["hit_ratio_pct"], 1),
                    int(cell["evictions"]),
                ]
            rows.append(row)
        result.add_table("table2: performance and cache behaviour", headers, rows)

        web_global = per_mode["Global"]["webserver"]["mb_per_s"]
        web_ddmem = per_mode["DDMem"]["webserver"]["mb_per_s"]
        result.scalars["web_ddmem_speedup"] = (
            web_ddmem / web_global if web_global > 0 else float("inf")
        )
        for name in ("webserver", "webproxy", "mail"):
            result.scalars[f"{name}_ddmem_evictions"] = (
                per_mode["DDMem"][name]["evictions"]
            )
        result.note(
            "Paper shape: DDMem webserver ~6x Global throughput; zero "
            "evictions for web/proxy/mail under DD (only videoserver is "
            "victimized); SSD mode slower for web/video but better for "
            "mail; no evictions at all on the SSD."
        )
        return result
