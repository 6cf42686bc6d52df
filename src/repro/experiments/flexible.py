"""FIG-10 / FIG-11 / TAB-3 — flexible hypervisor cache management (§5.2).

Containers get *different* in-VM memory limits (web 1.25 GB, proxy 1 GB,
mail 1 GB, video 0.75 GB) and a 2 GB DoubleDecker memory cache.  Four
policies are compared:

* **Global**   — no container-level enforcement (baseline);
* **DDMem**    — cgroup-proportional weights  (32 / 25 / 25 / 18);
* **DDMemEx**  — video excluded from the cache (40 / 30 / 30 / 0);
* **DDHybrid** — video moved to the SSD store  (40 / 30 / 30 / SSD:100).

Reports per-workload speedup over Global (Fig 10) and occupancy traces
(Fig 11); Table 3 is the settings table itself.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import CachePolicy
from .runner import Experiment, ExperimentResult
from .scenarios import Scenario

__all__ = ["FlexiblePolicyExperiment", "POLICY_TABLE"]

#: Table 3 — the <T, W> settings per mode (weights in percent).
POLICY_TABLE: Dict[str, Dict[str, CachePolicy]] = {
    "DDMem": {
        "webserver": CachePolicy.memory(32.0),
        "webproxy": CachePolicy.memory(25.0),
        "mail": CachePolicy.memory(25.0),
        "videoserver": CachePolicy.memory(18.0),
    },
    "DDMemEx": {
        "webserver": CachePolicy.memory(40.0),
        "webproxy": CachePolicy.memory(30.0),
        "mail": CachePolicy.memory(30.0),
        "videoserver": CachePolicy.none(),
    },
    "DDHybrid": {
        "webserver": CachePolicy.memory(40.0),
        "webproxy": CachePolicy.memory(30.0),
        "mail": CachePolicy.memory(30.0),
        "videoserver": CachePolicy.ssd(100.0),
    },
}

#: The baseline and Table 3's modes, in report order.
MODES = ("Global",) + tuple(POLICY_TABLE)

#: In-VM cgroup limits (MB at scale 1.0) per container.
MEMORY_LIMITS = {
    "webserver": 1280.0,
    "webproxy": 1024.0,
    "mail": 1024.0,
    "videoserver": 768.0,
}


class FlexiblePolicyExperiment(Experiment):
    """Differentiated container policies vs global cache management."""

    exp_id = "FIG-10/FIG-11/TAB-3"
    name = "flexible_policy"
    description = (
        "Differently-sized containers under a 2 GB DD memory cache with "
        "per-container weights (DDMem/DDMemEx) and SSD offload (DDHybrid), "
        "compared against global cache management."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 warmup_s: float = None, duration_s: float = None) -> None:
        super().__init__(scale, seed)
        self.warmup_s = warmup_s if warmup_s is not None else self.secs(500.0)
        self.duration_s = duration_s if duration_s is not None else self.secs(700.0)

    def _workloads(self):
        return [
            ("webserver", ("webserver", dict(
                nfiles=self.count(13000), mean_size_kb=128.0, threads=2,
                cpu_think_ms=3.0))),
            ("webproxy", ("webproxy", dict(
                nfiles=self.count(13000), mean_size_kb=64.0, threads=2))),
            ("mail", ("varmail", dict(
                nfiles=self.count(25000), mean_size_kb=32.0, threads=2))),
            ("videoserver", ("videoserver", dict(
                nvideos=18, video_mb=self.mb(256.0), threads=4,
                stream_pace_ms=2.0))),
        ]

    def cells(self):
        return [(mode,) for mode in MODES]

    def simulate(self, mode: str):
        """One policy mode: ``(per-workload rates, occupancy series)``."""
        scenario = Scenario(seed=self.seed)
        if mode == "Global":
            scenario.cache("global", capacity_mb=self.mb(2048),
                           per_vm_cap_mb=self.mb(2048))
            policies = {name: "mem:25" for name in MEMORY_LIMITS}
        else:
            ssd_mb = self.mb(245760) if mode == "DDHybrid" else 0.0
            scenario.cache("doubledecker", mem_mb=self.mb(2048), ssd_mb=ssd_mb)
            policies = POLICY_TABLE[mode]
        scenario.vm("vm1", memory_mb=self.mb(8192))
        for name, workload in self._workloads():
            scenario.container("vm1", name, self.mb(MEMORY_LIMITS[name]),
                               policies[name], workload)
        run = scenario.run(self.warmup_s, self.duration_s, max(
            1.0, (self.warmup_s + self.duration_s) / 120))
        return run.rates, run.series

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        per_mode: Dict[str, Dict[str, dict]] = {}
        for mode, (rates, series) in zip(MODES, outcomes):
            per_mode[mode] = rates
            for name, trace in series.items():
                result.add_series(f"{mode}/{name}", trace)

        # Table 3 (configuration) — rendered for reference.
        t3_rows = []
        for mode, policies in POLICY_TABLE.items():
            row = [mode]
            for name in ("webserver", "webproxy", "mail", "videoserver"):
                policy = policies[name]
                if policy.ssd_weight > 0:
                    row.append(f"SSD:{policy.ssd_weight:.0f}")
                elif policy.mem_weight > 0:
                    row.append(f"Mem:{policy.mem_weight:.0f}")
                else:
                    row.append("none")
            t3_rows.append(row)
        result.add_table(
            "table3: cache settings",
            ["mode", "webserver(C1)", "webproxy(C2)", "mail(C3)", "video(C4)"],
            t3_rows,
        )

        # Fig 10 — speedup over Global.
        headers = ["workload", "Global MB/s"] + [f"{m} speedup" for m in MODES[1:]]
        rows = []
        for name in ("webserver", "webproxy", "mail", "videoserver"):
            base = per_mode["Global"][name]["mb_per_s"]
            row: List[object] = [name, round(base, 2)]
            for mode in MODES[1:]:
                value = per_mode[mode][name]["mb_per_s"]
                speedup = value / base if base > 0 else float("inf")
                row.append(round(speedup, 2))
                result.scalars[f"{name}_{mode.lower()}_speedup"] = speedup
            rows.append(row)
        result.add_table("fig10: speedup vs Global", headers, rows)

        result.note(
            "Paper shape: webserver gains ~10-11x under all DD policies; "
            "webproxy ~2-3x; mail marginal; videoserver loses ~20-25% under "
            "DDMem/DDMemEx but gains ~3.6x when moved to the SSD (DDHybrid)."
        )
        return result
