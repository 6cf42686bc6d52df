"""Experiment harness: one class per table/figure of the paper.

See DESIGN.md's per-experiment index for the mapping.  Every experiment
takes ``scale`` (shrinks datasets/cache sizes together, preserving
ratios) and ``seed``; ``run()`` returns an
:class:`~repro.experiments.runner.ExperimentResult` whose ``summary()``
prints the same rows/series the paper reports.
"""

from .app_behavior import AppBehaviorExperiment
from .caching_modes import CachingModesExperiment
from .cooperative import CooperativeExperiment
from .dynamic import DynamicContainersExperiment, DynamicVMsExperiment
from .endurance import EnduranceExperiment
from .fleet import FleetExperiment
from .flexible import FlexiblePolicyExperiment
from .motivation import MotivationExperiment
from .runner import Experiment, ExperimentResult, OccupancySampler
from .scenarios import Scenario, ScenarioResult

ALL_EXPERIMENTS = {
    "motivation": MotivationExperiment,
    "app_behavior": AppBehaviorExperiment,
    "caching_modes": CachingModesExperiment,
    "flexible_policy": FlexiblePolicyExperiment,
    "cooperative": CooperativeExperiment,
    "dynamic_containers": DynamicContainersExperiment,
    "dynamic_vms": DynamicVMsExperiment,
    "endurance": EnduranceExperiment,
    "fleet": FleetExperiment,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "AppBehaviorExperiment",
    "CachingModesExperiment",
    "CooperativeExperiment",
    "DynamicContainersExperiment",
    "DynamicVMsExperiment",
    "EnduranceExperiment",
    "Experiment",
    "ExperimentResult",
    "FleetExperiment",
    "FlexiblePolicyExperiment",
    "MotivationExperiment",
    "OccupancySampler",
    "Scenario",
    "ScenarioResult",
]
