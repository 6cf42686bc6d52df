"""End-to-end speed check for the hot-path optimization pass.

Times a fixed-seed ``caching_modes`` run (the heaviest per-event code
path: guest page cache + cleancache + DoubleDecker data path) and writes
``BENCH_core.json`` comparing against the recorded pre-optimization
baseline, so the speedup claim stays reproducible:

* baseline: 29.21 s wall for ``CachingModesExperiment(scale=0.05,
  seed=42, warmup_s=40, duration_s=50)`` on the commit before the
  optimization pass (re-measure with ``git stash`` / ``git checkout``
  if the config changes).

Run either way::

    PYTHONPATH=src python benchmarks/bench_e2e_speed.py
    PYTHONPATH=src python -m pytest benchmarks/bench_e2e_speed.py -q

The record also includes the cost of shadow-accounting audits
(``--audit``-style runs with a 10-simulated-second interval), so the
overhead of self-checking stays measured rather than guessed.

The record also times the SSD admission hook (``second_access`` as the
process-wide default) against the admission-off run, so the cost of the
endurance subsystem's per-put check stays measured too.

The record also times the observability subsystem: tracing-off overhead
(the cost of the disabled ``if tracer is not None`` guards, bounded at
<= 1.02x because the comparison is against the same binary) and a
tracing-on (sampled) run with the flight recorder installed.

Environment overrides: ``REPRO_E2E_BASELINE_S`` (seconds),
``REPRO_E2E_ROUNDS`` (default 2; the minimum is reported, which is the
standard noise filter for wall-clock timing), ``REPRO_E2E_AUDIT_ROUNDS``
(default 1; 0 skips the audit-on timing), ``REPRO_E2E_ADMISSION_ROUNDS``
(default 1; 0 skips the admission-on timing), ``REPRO_E2E_TRACE_ROUNDS``
(default 1; 0 skips the tracing-on timing), ``REPRO_E2E_TRACE_SAMPLE``
(default 16), and ``REPRO_E2E_MIN_SPEEDUP`` (default 0 — informational
unless set).
"""

import json
import os
import time
from pathlib import Path

from repro.core import set_audit_interval, set_default_admission
from repro.experiments.caching_modes import CachingModesExperiment
from repro.obs import Tracer, set_tracer

#: Fixed configuration the baseline number was measured with.
SCALE = 0.05
SEED = 42
WARMUP_S = 40.0
DURATION_S = 50.0

#: Pre-optimization wall time for the configuration above (seconds).
BASELINE_S = float(os.environ.get("REPRO_E2E_BASELINE_S", "29.21"))

#: Required speedup; 0 keeps the check informational on slow machines.
MIN_SPEEDUP = float(os.environ.get("REPRO_E2E_MIN_SPEEDUP", "0"))

#: Timing rounds; min-of-N filters scheduler noise out of the wall clock.
ROUNDS = max(1, int(os.environ.get("REPRO_E2E_ROUNDS", "2")))

#: Audit-enabled timing rounds (0 skips the audit-on measurement).
AUDIT_ROUNDS = max(0, int(os.environ.get("REPRO_E2E_AUDIT_ROUNDS", "1")))

#: Shadow-accounting self-check cadence for the audit-on rounds.
AUDIT_INTERVAL_S = 10.0

#: Admission-enabled timing rounds (0 skips the admission-on measurement).
ADMISSION_ROUNDS = max(0, int(os.environ.get("REPRO_E2E_ADMISSION_ROUNDS", "1")))

#: Admission policy timed against the admission-off run.
ADMISSION_POLICY = "second_access"

#: Tracing-enabled timing rounds (0 skips the tracing-on measurement).
TRACE_ROUNDS = max(0, int(os.environ.get("REPRO_E2E_TRACE_ROUNDS", "1")))

#: Span sampling for the tracing-on rounds (histograms see every op).
TRACE_SAMPLE = max(1, int(os.environ.get("REPRO_E2E_TRACE_SAMPLE", "16")))

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _time_run():
    started = time.perf_counter()
    result = CachingModesExperiment(
        scale=SCALE, seed=SEED, warmup_s=WARMUP_S, duration_s=DURATION_S
    ).run()
    return time.perf_counter() - started, result


def run_e2e():
    """Time fixed-seed caching_modes runs and record the comparison."""
    times = []
    result = None
    for _ in range(ROUNDS):
        elapsed_round, result = _time_run()
        times.append(elapsed_round)
    elapsed = min(times)
    record = {
        "benchmark": "caching_modes e2e wall time",
        "config": {
            "scale": SCALE,
            "seed": SEED,
            "warmup_s": WARMUP_S,
            "duration_s": DURATION_S,
        },
        "baseline_s": BASELINE_S,
        "rounds": ROUNDS,
        "current_s": round(elapsed, 2),
        "speedup": round(BASELINE_S / elapsed, 2),
    }
    if AUDIT_ROUNDS:
        audit_times = []
        set_audit_interval(AUDIT_INTERVAL_S)
        try:
            for _ in range(AUDIT_ROUNDS):
                audit_elapsed, _ = _time_run()
                audit_times.append(audit_elapsed)
        finally:
            set_audit_interval(0.0)
        record["audit_interval_s"] = AUDIT_INTERVAL_S
        record["audit_rounds"] = AUDIT_ROUNDS
        record["audit_on_s"] = round(min(audit_times), 2)
        record["audit_overhead"] = round(min(audit_times) / elapsed, 2)
    if ADMISSION_ROUNDS:
        admission_times = []
        set_default_admission(ADMISSION_POLICY)
        try:
            for _ in range(ADMISSION_ROUNDS):
                admission_elapsed, _ = _time_run()
                admission_times.append(admission_elapsed)
        finally:
            set_default_admission(None)
        record["admission_policy"] = ADMISSION_POLICY
        record["admission_rounds"] = ADMISSION_ROUNDS
        record["admission_on_s"] = round(min(admission_times), 2)
        record["admission_overhead"] = round(min(admission_times) / elapsed, 2)
    if TRACE_ROUNDS:
        # The plain rounds above already time the tracing-off path (the
        # guards are always compiled in), so ``speedup`` doubles as the
        # tracing-off overhead bound; here we time the recorder live.
        trace_times = []
        try:
            for _ in range(TRACE_ROUNDS):
                set_tracer(Tracer(max_events=200_000, sample=TRACE_SAMPLE))
                trace_elapsed, _ = _time_run()
                trace_times.append(trace_elapsed)
        finally:
            set_tracer(None)
        record["trace_sample"] = TRACE_SAMPLE
        record["trace_rounds"] = TRACE_ROUNDS
        record["trace_on_s"] = round(min(trace_times), 2)
        record["trace_overhead"] = round(min(trace_times) / elapsed, 2)
    # Fold into the existing file: perf_smoke.py's sections are kept.
    merged = {}
    if OUT_PATH.exists():
        try:
            merged = json.loads(OUT_PATH.read_text())
        except ValueError:
            merged = {}
    merged.update(record)
    OUT_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    return record, result


def test_e2e_speedup():
    record, result = run_e2e()
    print(f"\n{json.dumps(record, indent=2)}")
    # The run must still produce the experiment's three mode rows.
    assert result is not None
    assert record["current_s"] > 0
    if MIN_SPEEDUP:
        assert record["speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x vs {BASELINE_S}s baseline, "
            f"got {record['speedup']}x"
        )


if __name__ == "__main__":
    record, _ = run_e2e()
    print(json.dumps(record, indent=2))
