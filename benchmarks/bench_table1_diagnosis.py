"""TAB-1 — guest-OS metrics at the equal (1 GB : 1 GB) split.

Shape checks: Redis and MySQL swap and leave the hypervisor cache unused
(anonymous memory cannot be offloaded); Webserver and MongoDB never swap
and fill the hypervisor cache instead.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import AppBehaviorExperiment


def test_table1_diagnosis():
    exp = AppBehaviorExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                warmup_s=200, duration_s=200)
    result = exp.run_table1_only()
    print()
    print(result.summary(plots=False))

    cache_mb = exp.mb(1024)
    # Anon-memory apps swap; file apps do not.
    assert result.scalars["redis_swap_mb"] > 0
    assert result.scalars["mysql_swap_mb"] > 0
    assert result.scalars["webserver_swap_mb"] == 0
    assert result.scalars["mongodb_swap_mb"] == 0
    # File apps fill the hypervisor cache; Redis cannot use it.
    assert result.scalars["webserver_hvcache_mb"] > 0.5 * cache_mb
    assert result.scalars["mongodb_hvcache_mb"] > 0.5 * cache_mb
    assert result.scalars["redis_hvcache_mb"] < 0.1 * cache_mb
