"""Fixed-seed perf smoke: fingerprint goldens + wall-time regression gate.

CI's perf-smoke job runs this in check mode (no arguments).  It executes
two smoke scenarios and asserts each against the committed record in
``BENCH_core.json``:

* ``perf_smoke`` — ``caching_modes`` at ``scale=0.02, seed=42``, the
  same configuration the runtime sanitizer double-runs (single-host
  path; its fingerprint also pins the fleet refactor's no-op guarantee);
* ``fleet_smoke`` — the ``fleet`` experiment at ``scale=0.02, seed=42``
  with 2 hosts (sharded simulation, lending, live migration).

For each record two things are checked:

* **Fingerprint** — the SHA-256 of the run's summary table must equal
  the recorded ``fingerprint_sha256`` exactly.  Any drift in simulated
  results (not wall time) fails the job; this is the cross-machine
  complement to the sanitizer's same-process double run.
* **Wall time** — the run must not take more than ``1 + threshold``
  times the recorded ``smoke_s`` (default threshold 0.25, override with
  ``REPRO_SMOKE_MAX_REGRESSION``; set a large value on known-slow
  runners).  Generous compared to `python3 -m bench`'s ten-seed
  precision, because a single CI round is noisy — the gate is for
  order-of-magnitude regressions (an accidental O(n^2) sweep, a debug
  loop left enabled), not for micro-tuning.

Re-record after an intentional perf or behaviour change::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/perf_smoke.py --record

which updates the ``perf_smoke`` and ``fleet_smoke`` sections of
``BENCH_core.json``.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.experiments.caching_modes import CachingModesExperiment
from repro.experiments.fleet import FleetExperiment

#: Smoke configuration — matches the runtime sanitizer's double run.
SCALE = 0.02
SEED = 42
FLEET_HOSTS = 2

#: Allowed fractional wall-time regression before the gate fails.
MAX_REGRESSION = float(os.environ.get("REPRO_SMOKE_MAX_REGRESSION", "0.25"))

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _fingerprint(result):
    summary = result.summary(plots=False)
    return hashlib.sha256(summary.encode("utf-8")).hexdigest()


def run_smoke():
    """One caching_modes smoke round; returns ``(elapsed_s, sha256)``."""
    started = time.perf_counter()
    result = CachingModesExperiment(scale=SCALE, seed=SEED).run()
    elapsed = time.perf_counter() - started
    return elapsed, _fingerprint(result)


def run_fleet_smoke():
    """One 2-host fleet smoke round; returns ``(elapsed_s, sha256)``."""
    started = time.perf_counter()
    result = FleetExperiment(scale=SCALE, seed=SEED, hosts=FLEET_HOSTS).run()
    elapsed = time.perf_counter() - started
    return elapsed, _fingerprint(result)


#: Record key -> (runner, descriptive metadata).
SCENARIOS = {
    "perf_smoke": (run_smoke, {"experiment": "caching_modes",
                               "scale": SCALE, "seed": SEED}),
    "fleet_smoke": (run_fleet_smoke, {"experiment": "fleet",
                                      "scale": SCALE, "seed": SEED,
                                      "hosts": FLEET_HOSTS}),
}


def record():
    """Run both smoke scenarios and write the golden records."""
    data = {}
    if OUT_PATH.exists():
        data = json.loads(OUT_PATH.read_text())
    for key, (runner, meta) in SCENARIOS.items():
        elapsed, digest = runner()
        data[key] = dict(meta, smoke_s=round(elapsed, 2),
                         fingerprint_sha256=digest)
        print(f"recorded {key}: {elapsed:.2f}s, fingerprint {digest[:16]}…")
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return 0


def check():
    """Run both smoke scenarios and gate against the committed records."""
    if not OUT_PATH.exists():
        print(f"{OUT_PATH} missing; run with --record first", file=sys.stderr)
        return 2
    data = json.loads(OUT_PATH.read_text())
    failures = []
    for key, (runner, _) in SCENARIOS.items():
        golden = data.get(key)
        if not golden:
            print(f"BENCH_core.json has no {key} record; run --record first",
                  file=sys.stderr)
            return 2
        elapsed, digest = runner()
        round_failures = []
        if digest != golden["fingerprint_sha256"]:
            round_failures.append(
                f"{key} fingerprint mismatch: simulated results drifted "
                f"from the committed golden ({digest[:16]}… != "
                f"{golden['fingerprint_sha256'][:16]}…)"
            )
        budget = golden["smoke_s"] * (1.0 + MAX_REGRESSION)
        if elapsed > budget:
            round_failures.append(
                f"{key} wall-time regression: {elapsed:.2f}s > {budget:.2f}s "
                f"(recorded {golden['smoke_s']:.2f}s + {MAX_REGRESSION:.0%})"
            )
        status = "FAIL" if round_failures else "ok"
        print(f"{key} {status}: {elapsed:.2f}s "
              f"(recorded {golden['smoke_s']:.2f}s), "
              f"fingerprint {digest[:16]}…")
        failures.extend(round_failures)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- pytest entry point (record shape only; timing gates are CI's) ------

def test_perf_smoke_record_is_committed():
    """The golden record must exist and describe the smoke config."""
    data = json.loads(OUT_PATH.read_text())
    golden = data["perf_smoke"]
    assert golden["experiment"] == "caching_modes"
    assert golden["scale"] == SCALE
    assert golden["seed"] == SEED
    assert golden["smoke_s"] > 0
    assert len(golden["fingerprint_sha256"]) == 64


def test_fleet_smoke_record_is_committed():
    """The fleet golden must exist and describe the smoke config."""
    data = json.loads(OUT_PATH.read_text())
    golden = data["fleet_smoke"]
    assert golden["experiment"] == "fleet"
    assert golden["scale"] == SCALE
    assert golden["seed"] == SEED
    assert golden["hosts"] == FLEET_HOSTS
    assert golden["smoke_s"] > 0
    assert len(golden["fingerprint_sha256"]) == 64


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-record the golden fingerprints and wall times")
    args = parser.parse_args(argv)
    return record() if args.record else check()


if __name__ == "__main__":
    raise SystemExit(main())
