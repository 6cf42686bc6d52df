"""FIG-12 / FIG-13 — dynamic cache management (§5.3).

Two experiments demonstrate that DoubleDecker reacts to *live*
re-provisioning at both nesting levels:

* **Containers (Fig 12):** two containers (60/40) are joined at 900 s by a
  videoserver container (weights become 50/30/20); at 1800 s the video
  container is switched to the SSD store and the memory weights reset to
  60/40.
* **VMs (Fig 13):** four VMs boot 600 s apart: VM1 alone (weight 100),
  VM2 joins (60/40), VM3 is SSD-only (does not disturb the memory split),
  VM4 joins as the memory store is grown from 2 GB to 4 GB with weights
  40/35/25.
"""

from __future__ import annotations

from typing import List

from .runner import Experiment, ExperimentResult
from .scenarios import Scenario

__all__ = ["DynamicContainersExperiment", "DynamicVMsExperiment"]


class DynamicContainersExperiment(Experiment):
    """Fig 12: weight changes and a store switch, within one VM."""

    exp_id = "FIG-12"
    name = "dynamic_containers"
    description = (
        "Live container-level policy changes: a third container joins at "
        "T/3 (weights 60/40 -> 50/30/20), then moves to the SSD store at "
        "2T/3 (memory weights reset to 60/40)."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 phase_s: float = None) -> None:
        super().__init__(scale, seed)
        #: Length of each of the three phases (paper: 900 s).
        self.phase_s = phase_s if phase_s is not None else self.secs(900.0)

    def simulate(self):
        """The one run: every gauge's occupancy series."""
        phase = self.phase_s
        web = ("webserver", dict(
            name="webserver", nfiles=self.count(14000), mean_size_kb=128.0,
            threads=2, cpu_think_ms=3.0))
        proxy = ("webproxy", dict(
            name="webproxy", nfiles=self.count(14000), mean_size_kb=64.0,
            threads=2))
        video = ("videoserver", dict(
            name="videoserver", nvideos=12, video_mb=self.mb(256.0),
            threads=2, stream_pace_ms=2.0))
        return (
            Scenario(seed=self.seed)
            .cache("doubledecker", mem_mb=self.mb(1024),
                   ssd_mb=self.mb(245760))
            .vm("vm1", memory_mb=self.mb(6144))
            .container("vm1", "container1", self.mb(1024), "mem:60", web,
                       gauges={"container1": "mem"})
            .container("vm1", "container2", self.mb(1024), "mem:40", proxy,
                       gauges={"container2": "mem"})
            # Phase 2: the videoserver container boots; weights 50/30/20.
            .container("vm1", "container3", self.mb(1024), "mem:20", video,
                       start_at=phase,
                       gauges={"container3-mem": "mem",
                               "container3-ssd": "ssd"})
            .at(phase, "set_policy", container="container1", policy="mem:50")
            .at(phase, "set_policy", container="container2", policy="mem:30")
            # Phase 3: video moves to the SSD store; memory back to 60/40.
            .at(2 * phase, "set_policy", container="container3",
                policy="ssd:100")
            .at(2 * phase, "set_policy", container="container1",
                policy="mem:60")
            .at(2 * phase, "set_policy", container="container2",
                policy="mem:40")
            .run(0.0, 3 * phase, max(1.0, phase / 30))
        ).series

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        phase = self.phase_s
        (series,) = outcomes
        # Phase means capture the redistribution the paper narrates.
        rows: List[List[object]] = []
        for label, trace in series.items():
            result.add_series(f"fig12/{label}", trace)
            rows.append([
                label,
                round(trace.mean(start=0.5 * phase, end=phase)),
                round(trace.mean(start=1.5 * phase, end=2 * phase)),
                round(trace.mean(start=2.5 * phase, end=3 * phase)),
            ])
        result.add_table(
            "fig12: per-phase mean cache occupancy (MB)",
            ["container", "phase1 (2 ctrs)", "phase2 (3 ctrs)", "phase3 (video->SSD)"],
            rows,
        )
        result.note(
            "Paper shape: ~600/400 MB split; then ~500/300/200 when the "
            "video container joins; then back to 60:40 with the video "
            "pool living on the SSD."
        )
        return result


class DynamicVMsExperiment(Experiment):
    """Fig 13: staggered VM boots, an SSD-only VM, and a live cache grow."""

    exp_id = "FIG-13"
    name = "dynamic_vms"
    description = (
        "VM-level dynamics: VM1 (100) -> +VM2 (60/40) -> +VM3 (SSD-only, "
        "memory split undisturbed) -> +VM4 with the memory store grown "
        "2 GB -> 4 GB and weights 40/35/25."
    )

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 phase_s: float = None) -> None:
        super().__init__(scale, seed)
        #: Interval between VM boots (paper: 600 s).
        self.phase_s = phase_s if phase_s is not None else self.secs(600.0)

    def simulate(self):
        """The one run: every VM gauge's occupancy series."""
        phase = self.phase_s
        scenario = Scenario(seed=self.seed).cache(
            "doubledecker", mem_mb=self.mb(2048), ssd_mb=self.mb(245760))
        # VM3 is SSD-only: the memory split must stay 60/40.
        boots = [("vm1", 100, "mem"), ("vm2", 40, "mem"),
                 ("vm3", 100, "ssd"), ("vm4", 25, "mem")]
        for index, (name, weight, store) in enumerate(boots):
            scenario.vm(name, memory_mb=self.mb(4096), weight=weight,
                        boot_at=index * phase, gauges={name: store})
            scenario.container(
                name, f"{name}-video", self.mb(1024), f"{store}:100",
                ("videoserver", dict(nvideos=12, video_mb=self.mb(256.0),
                                     threads=2, stream_pace_ms=2.0)),
                gauges={})
        return (
            scenario
            .at(phase, "set_vm_weight", vm="vm1", weight=60)
            .at(3 * phase, "set_capacity", store="mem", mb=self.mb(4096))
            .at(3 * phase, "set_vm_weight", vm="vm1", weight=40)
            .at(3 * phase, "set_vm_weight", vm="vm2", weight=35)
            .run(0.0, 4 * phase, max(1.0, phase / 20))
        ).series

    def report(self, outcomes) -> ExperimentResult:
        result = ExperimentResult(self.name, self.description)
        phase = self.phase_s
        (series,) = outcomes
        rows: List[List[object]] = []
        for label, trace in series.items():
            result.add_series(f"fig13/{label}", trace)
            row: List[object] = [label]
            for index in range(4):
                row.append(round(trace.mean(start=(index + 0.5) * phase,
                                            end=(index + 1) * phase)))
            rows.append(row)
        result.add_table(
            "fig13: per-phase mean cache occupancy (MB)",
            ["vm", "phase1 (VM1)", "phase2 (+VM2)", "phase3 (+VM3 SSD)",
             "phase4 (+VM4, 4GB)"],
            rows,
        )
        result.note(
            "Paper shape: VM1 fills 2 GB alone; 60/40 (~1200/800) with VM2; "
            "VM3 on SSD leaves that split untouched; after the grow to 4 GB "
            "and 40/35/25 weights: ~1600/1400/1000."
        )
        return result
