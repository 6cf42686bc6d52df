"""EXT-END — SSD endurance under write-aware admission (extension).

Not a paper artifact: DoubleDecker's evaluation treats the SSD as free,
but every block spilled or trickled onto flash consumes program/erase
budget.  This experiment reruns the §5.1 container mix on the two
SSD-backed configurations (DDSSD and the hybrid spill mode) under each
admission policy of :mod:`repro.endurance` and tabulates the trade the
admission knob buys: lookup hit ratio versus device bytes written, WAF,
projected device lifetime, and hits-per-GB-written efficiency.  The
``admit_all`` rows are the paper's behaviour (the hook is a no-op);
``second_access`` and ``write_throttle`` trade hit ratio for wear.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..endurance import ADMISSION_POLICIES, endurance_summary
from .caching_modes import CachingModesExperiment
from .runner import ExperimentResult
from .scenarios import Scenario

__all__ = ["EnduranceExperiment", "ENDURANCE_SCENARIOS"]

ENDURANCE_SCENARIOS = ("DDSSD", "DDHybrid")


class EnduranceExperiment(CachingModesExperiment):
    """Admission-policy sweep on the SSD-backed caching modes."""

    exp_id = "EXT-END"
    name = "endurance"
    description = (
        "Four Filebench containers in an 8 GB VM on the SSD-backed cache "
        "modes, swept over the three SSD admission policies; reports the "
        "hit-ratio vs device-bytes-written Pareto trade plus WAF and "
        "projected flash lifetime."
    )

    def cells(self):
        return [(config, admission) for config in ENDURANCE_SCENARIOS
                for admission in ADMISSION_POLICIES]

    def simulate(self, config: str, admission: str) -> dict:
        """One cache configuration under one admission policy: its row."""
        scenario = Scenario(seed=self.seed)
        if config == "DDSSD":
            scenario.cache("doubledecker", mem_mb=0.0,
                           ssd_mb=self.mb(245760), admission=admission)
            policy = "ssd:25"
        elif config == "DDHybrid":
            scenario.cache("doubledecker", mem_mb=self.mb(3072),
                           ssd_mb=self.mb(245760), trickle_down=True,
                           admission=admission)
            policy = "hybrid:25:25"
        else:
            raise ValueError(f"unknown scenario {config!r}")
        scenario.vm("vm1", memory_mb=self.mb(8192))
        for name, workload in self._workloads():
            scenario.container("vm1", name, self.mb(1024), policy, workload)
        run = scenario.run(self.warmup_s, self.duration_s)

        gets = hits = ssd_writes = rejected = 0
        for stats in run.cache_stats.values():
            gets += stats.gets
            hits += stats.get_hits
            ssd_writes += stats.ssd_writes
            rejected += (
                stats.put_rejected_admission + stats.trickle_rejected_admission
            )
        cell = endurance_summary(run.host.ssd.wear,
                                 elapsed_s=run.host.env.now, hits=hits)
        cell["hit_ratio_pct"] = 100.0 * hits / gets if gets else 0.0
        cell["mb_per_s"] = sum(r["mb_per_s"] for r in run.rates.values())
        cell["ssd_writes"] = ssd_writes
        cell["rejected_admission"] = rejected
        return cell

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        cells: Dict[Tuple[str, str], dict] = dict(zip(self.cells(), outcomes))

        headers = ["config", "admission", "hit %", "MB/s", "SSD GB written",
                   "WAF", "wear %", "lifetime", "hits/GB", "rejected"]
        rows: List[List[object]] = []
        for (scenario, admission), cell in cells.items():
            rows.append([
                scenario,
                admission,
                round(cell["hit_ratio_pct"], 1),
                round(cell["mb_per_s"], 1),
                round(cell["ssd_gb_written"], 2),
                round(cell["waf"], 2),
                round(cell["wear_pct"], 4),
                cell["projected_lifetime"],
                round(cell["hits_per_gb"], 0) if cell["hits_per_gb"] else "-",
                int(cell["rejected_admission"]),
            ])
        result.add_table(
            "endurance: hit ratio vs flash wear per admission policy",
            headers, rows,
        )

        # The Pareto front per scenario: a policy survives unless another
        # one both hits more and writes less.
        for scenario in ENDURANCE_SCENARIOS:
            front = []
            for admission in ADMISSION_POLICIES:
                mine = cells[scenario, admission]
                dominated = any(
                    other["hit_ratio_pct"] > mine["hit_ratio_pct"]
                    and other["ssd_gb_written"] < mine["ssd_gb_written"]
                    for name, other in (
                        (a, cells[scenario, a]) for a in ADMISSION_POLICIES
                    )
                    if name != admission
                )
                if not dominated:
                    front.append(admission)
            result.scalars[f"{scenario}_pareto_size"] = len(front)
            result.note(f"{scenario} Pareto front (hit% up, GB down): "
                        + ", ".join(front))

        for (scenario, admission), cell in cells.items():
            key = f"{scenario}_{admission}"
            result.scalars[f"{key}_hit_pct"] = cell["hit_ratio_pct"]
            result.scalars[f"{key}_gb_written"] = cell["ssd_gb_written"]
        base = cells["DDHybrid", "admit_all"]["ssd_gb_written"]
        second = cells["DDHybrid", "second_access"]["ssd_gb_written"]
        result.scalars["hybrid_second_access_write_savings_pct"] = (
            100.0 * (1.0 - second / base) if base > 0 else 0.0
        )
        result.note(
            "admit_all reproduces the paper's byte-for-byte behaviour (the "
            "admission hook never fires); second_access keeps one-touch "
            "blocks off the flash at a bounded hit-ratio cost; "
            "write_throttle caps the sustained SSD fill rate regardless of "
            "access pattern."
        )
        return result
