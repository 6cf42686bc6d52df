"""FIG-1 / FIG-2 — motivation: non-deterministic global cache sharing.

Regenerates the four motivation scenarios and checks the paper's shape:
each container alone fills the cache; together the 3-thread container
takes a disproportionate (>1.2x) share.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import MotivationExperiment


def test_fig1_2_motivation():
    exp = MotivationExperiment(scale=BENCH_SCALE, seed=BENCH_SEED)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    cache_mb = exp.mb(1024)
    headers, rows = result.rows[
        "steady-state cache share (MB, mean of second half)"
    ]
    by_scenario = {row[0]: row for row in rows}

    # Fig 1: alone, each container fills (>=85% of) the whole cache.
    assert by_scenario["container1 alone"][1] >= 0.85 * cache_mb
    assert by_scenario["container2 alone"][2] >= 0.85 * cache_mb

    # Fig 2a: together, the 3-thread container dominates.
    ratio = result.scalars["simultaneous_share_ratio"]
    assert ratio > 1.2, f"expected disproportionate split, got {ratio:.2f}"

    # Fig 2b: the offset run also ends with container2 ahead.
    assert by_scenario["offset 200s"][2] > by_scenario["offset 200s"][1]
