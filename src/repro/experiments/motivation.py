"""FIG-1 / FIG-2 — the motivation experiment (§2.3).

A nesting-agnostic ("Global") hypervisor cache distributes itself across
two identical-limit containers in a non-deterministic, IO-rate-dependent
way: each container fills the whole cache when run alone, but together the
heavier container grabs a disproportionate share, and start-time offsets
flip who owns the cache over time.
"""

from __future__ import annotations

from typing import Dict, Optional

from .runner import Experiment, ExperimentResult
from .scenarios import Scenario

__all__ = ["MotivationExperiment"]


class MotivationExperiment(Experiment):
    """Two webserver containers under a global (container-agnostic) cache."""

    exp_id = "FIG-1/FIG-2"
    name = "motivation"
    description = (
        "Hypervisor cache distribution across two containers in one VM under "
        "a nesting-agnostic global cache: run separately (Fig 1), started "
        "together, and offset by 200 s (Fig 2)."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 duration_s: Optional[float] = None) -> None:
        super().__init__(scale, seed)
        self.duration_s = duration_s if duration_s is not None else self.secs(800.0)
        self.offset_s = self.secs(200.0)

    def cells(self):
        # (series-group label, run container1, run container2, container2 delay)
        return [
            ("fig1a-container1-alone", True, False, 0.0),
            ("fig1b-container2-alone", False, True, 0.0),
            ("fig2a-simultaneous", True, True, 0.0),
            ("fig2b-offset-200s", True, True, self.offset_s),
        ]

    def simulate(self, label: str, run_c1: bool, run_c2: bool,
                 c2_delay: float):
        """One start-up pattern: the containers' occupancy series."""
        scenario = (
            Scenario(seed=self.seed)
            .cache("global", capacity_mb=self.mb(1024),
                   per_vm_cap_mb=self.mb(1024))
            .vm("vm1", memory_mb=self.mb(2048))
        )
        specs = [
            ("container1", 2, run_c1, 0.0),
            ("container2", 3, run_c2, c2_delay),
        ]
        for name, threads, enabled, delay in specs:
            if enabled:
                scenario.container(
                    "vm1", name, self.mb(768), workload_at=delay,
                    workload=("webserver", dict(
                        name=f"web-{name}", nfiles=self.count(14000),
                        mean_size_kb=128.0, threads=threads)))
        return scenario.run(0.0, self.duration_s,
                            max(1.0, self.duration_s / 100)).series

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        shares = []
        for (label, *_), series in zip(self.cells(), outcomes):
            peaks: Dict[str, float] = {}
            for name, trace in series.items():
                result.add_series(f"{label}/{name}", trace)
                peaks[name] = trace.mean(start=self.duration_s / 2)
            shares.append(peaks)
        alone1, alone2, together, offset = shares

        cache_mb = self.mb(1024)
        rows = [
            ["container1 alone", round(alone1.get("container1", 0.0)), "-", cache_mb],
            ["container2 alone", "-", round(alone2.get("container2", 0.0)), cache_mb],
            [
                "simultaneous",
                round(together.get("container1", 0.0)),
                round(together.get("container2", 0.0)),
                cache_mb,
            ],
            [
                "offset 200s",
                round(offset.get("container1", 0.0)),
                round(offset.get("container2", 0.0)),
                cache_mb,
            ],
        ]
        result.add_table(
            "steady-state cache share (MB, mean of second half)",
            ["scenario", "container1", "container2", "cache capacity"],
            rows,
        )
        if together:
            c1 = max(1e-9, together.get("container1", 0.0))
            result.scalars["simultaneous_share_ratio"] = (
                together.get("container2", 0.0) / c1
            )
        result.note(
            "Paper shape: alone, each container fills the cache; together, "
            "container2 (3 threads) holds ~2x container1's share; with a "
            "200 s offset container1 dominates early and is overtaken later."
        )
        return result
