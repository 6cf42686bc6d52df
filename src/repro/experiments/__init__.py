"""Experiment harness: one class per table/figure of the paper.

See DESIGN.md's per-experiment index for the mapping.  Every experiment
takes ``scale`` (shrinks datasets/cache sizes together, preserving
ratios) and ``seed``; ``run()`` returns an
:class:`~repro.experiments.runner.ExperimentResult` whose ``summary()``
prints the same rows/series the paper reports.
"""

from .._lazy import lazy_exports

#: Experiment name -> class name, in ``--list`` order.
_REGISTRY = {
    "motivation": "MotivationExperiment",
    "app_behavior": "AppBehaviorExperiment",
    "caching_modes": "CachingModesExperiment",
    "flexible_policy": "FlexiblePolicyExperiment",
    "cooperative": "CooperativeExperiment",
    "dynamic_containers": "DynamicContainersExperiment",
    "dynamic_vms": "DynamicVMsExperiment",
    "endurance": "EnduranceExperiment",
}


def _all_experiments():
    """``ALL_EXPERIMENTS``: a plain dict, built on first access, that
    callers may patch."""
    return {name: __getattr__(cls) for name, cls in _REGISTRY.items()}


#: Public name -> the module that defines it, imported on first use, so
#: a simulation imports only the experiment it runs.
_EXPORTS = {
    "ALL_EXPERIMENTS": _all_experiments,
    "AppBehaviorExperiment": ".app_behavior",
    "CachingModesExperiment": ".caching_modes",
    "CooperativeExperiment": ".cooperative",
    "DynamicContainersExperiment": ".dynamic",
    "DynamicVMsExperiment": ".dynamic",
    "EnduranceExperiment": ".endurance",
    "Experiment": ".runner",
    "ExperimentResult": ".runner",
    "FlexiblePolicyExperiment": ".flexible",
    "MotivationExperiment": ".motivation",
    "OccupancySampler": ".runner",
    "Scenario": ".scenarios",
    "ScenarioResult": ".scenarios",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
