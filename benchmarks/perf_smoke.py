"""Fixed-seed fingerprint goldens for all eight experiments.

CI's perf-smoke job runs this in check mode (no arguments).  It runs
every experiment in ``repro.experiments.ALL_EXPERIMENTS`` once at
``scale=0.02, seed=42`` (``cooperative`` also at two more seeds) and
asserts the SHA-256 of the run's summary
table against the committed record in ``BENCH_core.json``.  Any drift
in simulated results fails the job; this is the cross-machine
complement to the sanitizer's same-process double run.  Wall time is
not gated here — ``python3 -m bench`` is the ruler for speed.

* ``perf_smoke`` — ``caching_modes`` at its default span, the same
  configuration the runtime sanitizer double-runs;
* ``<experiment>_smoke`` — the other seven, on each constructor's span
  override so the whole check stays under three minutes on two cores;
* ``cooperative_seed<N>_smoke`` — ``cooperative`` again at two more
  seeds.  Same-instant events pop in scheduling (``eid``) order, so a
  change that claims to schedule the same instants from fewer events is
  pinned on more than one random stream.

Re-record after an intentional behaviour change::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/perf_smoke.py --record
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS

#: Smoke configuration — matches the runtime sanitizer's double run.
SCALE = 0.02
SEED = 42

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Record key -> (experiment name, constructor overrides; ``seed`` among
#: them replaces :data:`SEED`).
SMOKES = {
    "perf_smoke": ("caching_modes", {}),
    "motivation_smoke": ("motivation", {}),
    "app_behavior_smoke": ("app_behavior",
                           {"warmup_s": 10.0, "duration_s": 20.0}),
    "flexible_policy_smoke": ("flexible_policy",
                              {"warmup_s": 40.0, "duration_s": 60.0}),
    "cooperative_smoke": ("cooperative",
                          {"warmup_s": 10.0, "duration_s": 20.0}),
    "cooperative_seed7_smoke": ("cooperative",
                                {"seed": 7, "warmup_s": 10.0,
                                 "duration_s": 20.0}),
    "cooperative_seed4001_smoke": ("cooperative",
                                   {"seed": 4001, "warmup_s": 10.0,
                                    "duration_s": 20.0}),
    "dynamic_containers_smoke": ("dynamic_containers", {"phase_s": 60.0}),
    "dynamic_vms_smoke": ("dynamic_vms", {"phase_s": 40.0}),
    "endurance_smoke": ("endurance", {"warmup_s": 30.0, "duration_s": 50.0}),
}


def run_smoke(key):
    """One smoke round; returns ``(elapsed_s, sha256)``."""
    name, overrides = SMOKES[key]
    started = time.perf_counter()
    params = {"scale": SCALE, "seed": SEED, **overrides}
    result = ALL_EXPERIMENTS[name](**params).run()
    elapsed = time.perf_counter() - started
    summary = result.summary(plots=False)
    return elapsed, hashlib.sha256(summary.encode("utf-8")).hexdigest()


def record():
    """Run every smoke and write the golden records."""
    data = {}
    for key, (name, overrides) in SMOKES.items():
        elapsed, digest = run_smoke(key)
        data[key] = {"experiment": name, "scale": SCALE, "seed": SEED,
                     **overrides, "fingerprint_sha256": digest}
        print(f"recorded {key}: {elapsed:.2f}s, fingerprint {digest[:16]}…")
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return 0


def check():
    """Run every smoke and gate against the committed records."""
    if not OUT_PATH.exists():
        print(f"{OUT_PATH} missing; run with --record first", file=sys.stderr)
        return 2
    data = json.loads(OUT_PATH.read_text())
    failures = []
    for key in SMOKES:
        golden = data.get(key)
        if not golden:
            print(f"BENCH_core.json has no {key} record; run --record first",
                  file=sys.stderr)
            return 2
        elapsed, digest = run_smoke(key)
        drifted = digest != golden["fingerprint_sha256"]
        if drifted:
            failures.append(
                f"{key} fingerprint mismatch: simulated results drifted "
                f"from the committed golden ({digest[:16]}… != "
                f"{golden['fingerprint_sha256'][:16]}…)"
            )
        print(f"{key} {'FAIL' if drifted else 'ok'}: {elapsed:.2f}s, "
              f"fingerprint {digest[:16]}…")
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- pytest entry point (record shape only; running them is CI's) -------

def test_smoke_records_are_committed():
    """Every golden must exist and describe its smoke configuration."""
    data = json.loads(OUT_PATH.read_text())
    assert set(data) == set(SMOKES)
    for key, (name, overrides) in SMOKES.items():
        golden = data[key]
        assert golden["experiment"] == name
        assert golden["scale"] == SCALE
        assert golden["seed"] == overrides.get("seed", SEED)
        for option, value in overrides.items():
            assert golden[option] == value
        assert len(golden["fingerprint_sha256"]) == 64


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-record the golden fingerprints")
    args = parser.parse_args(argv)
    return record() if args.record else check()


if __name__ == "__main__":
    raise SystemExit(main())
