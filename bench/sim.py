"""``sim_*``: one ``Experiment.run()`` in a worker process.

The whole ``run()`` is timed (caches start empty).  The summary's
SHA-256 is the determinism check: every repetition of one seed must
produce the same fingerprint, traced, audited or plain.
"""

from __future__ import annotations

import hashlib
import time

from .launch import PhaseProfiler


def build(spec: dict):
    """The experiment and the number of simulations one run() performs."""
    if spec["workload"] == "sim_filebench":
        from repro.experiments.caching_modes import (MODES,
                                                     CachingModesExperiment)
        return CachingModesExperiment(
            scale=0.05, seed=spec["seed"], warmup_s=spec["warmup_s"],
            duration_s=spec["duration_s"]), len(MODES)
    if spec["workload"] == "sim_datastore":
        from repro.experiments.cooperative import CooperativeExperiment
        candidates = [(25.0, 25.0, 25.0, 25.0), (60.0, 0.0, 0.0, 40.0)]
        return CooperativeExperiment(
            scale=0.02, seed=spec["seed"], warmup_s=spec["warmup_s"],
            duration_s=spec["duration_s"],
            candidates=candidates), 2 * len(candidates)
    raise ValueError(f"not a simulator workload: {spec['workload']}")


def run(spec: dict) -> dict:
    experiment, simulations = build(spec)
    if spec.get("audit"):
        # An auditor violation raises out of run(): the worker dies and
        # the repetition counts as failed.
        from repro.core import set_audit_interval
        set_audit_interval(10.0)
    ready = time.monotonic()
    with PhaseProfiler(spec.get("profile")):
        started = time.perf_counter()
        result = experiment.run()
        wall_s = time.perf_counter() - started
    ended = time.monotonic()
    simulated_s = simulations * (spec["warmup_s"] + spec["duration_s"])
    summary = result.summary(plots=False)
    return {
        "ready": ready, "ended": ended, "wall_s": wall_s, "simulated_s": simulated_s,
        "sim_speed": simulated_s / wall_s,
        "fingerprint_sha256": hashlib.sha256(
            summary.encode("utf-8")).hexdigest(),
        "scalars": {key: value for key, value in result.scalars.items()},
    }
