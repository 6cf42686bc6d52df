"""TAB-4 — cooperative two-level provisioning vs centralized Morai++.

Shape checks (the paper's core claim): the centralized partition search
cannot satisfy the anon-memory apps (Redis misses its SLA badly), while
DoubleDecker's in-VM + cache provisioning meets more SLAs and lifts
Redis by a large factor.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import CooperativeExperiment

#: A reduced candidate grid keeps the bench affordable; it includes the
#: paper's reported winner (60:40 mongo:web).
CANDIDATES = [
    (25.0, 25.0, 25.0, 25.0),
    (60.0, 0.0, 0.0, 40.0),
    (40.0, 0.0, 0.0, 60.0),
    (30.0, 0.0, 0.0, 70.0),
]


def test_table4_cooperative():
    exp = CooperativeExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                warmup_s=120, duration_s=150,
                                candidates=CANDIDATES)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    # DD satisfies at least as many SLAs as Morai++, and strictly more
    # overall (the paper: 4 vs 2).
    assert result.scalars["dd_slas_met"] > result.scalars["morai_slas_met"]
    assert result.scalars["dd_slas_met"] == 4
    # Redis is the headline: a huge factor under cooperative provisioning.
    assert result.scalars["redis_dd_vs_morai"] > 5.0
    # MySQL also improves (paper: 48.5 -> 132.7).
    assert result.scalars["mysql_dd_vs_morai"] > 1.0
