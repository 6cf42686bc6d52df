"""FIG-3 — application throughput vs in-VM : hypervisor-cache split.

Shape checks: file-backed apps (webserver, mongodb) are flat across
splits; anon-memory apps (redis, mysql) degrade as in-VM memory shrinks,
with redis collapsing at the extreme split.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import AppBehaviorExperiment


def test_fig3_app_behavior():
    exp = AppBehaviorExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                warmup_s=200, duration_s=200)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    # File-backed apps: tight split costs at most ~45% (paper: flat).
    assert result.scalars["webserver_degradation"] > 0.55
    assert result.scalars["mongodb_degradation"] > 0.55
    # Redis collapses (paper: stall); MySQL degrades.
    assert result.scalars["redis_degradation"] < 0.15
    assert result.scalars["mysql_degradation"] < 0.95
