"""FIG-13 — dynamic VM-level provisioning.

Shape checks: VM1 fills the cache alone; VM2's arrival splits it ~60/40;
the SSD-only VM3 does not disturb that split; growing the store and
re-weighting to 40/35/25 redistributes across VM1/VM2/VM4.
"""

import pytest
from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import DynamicVMsExperiment

PHASE_S = 180.0


def test_fig13_dynamic_vms():
    exp = DynamicVMsExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                               phase_s=PHASE_S)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    series = {key.split("/", 1)[1]: ts for key, ts in result.series.items()}

    def phase_mean(label, phase):
        return series[label].mean(start=(phase + 0.5) * PHASE_S,
                                  end=(phase + 1) * PHASE_S)

    cache_mb = exp.mb(2048)
    # Phase 1: VM1 alone fills (most of) the cache.
    assert phase_mean("vm1", 0) > 0.85 * cache_mb
    # Phase 2: ~60/40 split.
    vm1_p2, vm2_p2 = phase_mean("vm1", 1), phase_mean("vm2", 1)
    assert vm1_p2 > vm2_p2 > 0
    assert vm1_p2 / max(1.0, vm2_p2) == pytest.approx(1.5, rel=0.35)
    # Phase 3: the SSD-only VM3 does not disturb the memory split.
    assert phase_mean("vm1", 2) == pytest.approx(vm1_p2, rel=0.15)
    assert phase_mean("vm2", 2) == pytest.approx(vm2_p2, rel=0.15)
    assert phase_mean("vm3", 2) > 0  # VM3 is busy on the SSD store
    # Phase 4: the grown store serves all three memory VMs, 40/35/25.
    vm1_p4 = phase_mean("vm1", 3)
    vm2_p4 = phase_mean("vm2", 3)
    vm4_p4 = phase_mean("vm4", 3)
    assert vm1_p4 > vm1_p2  # everyone gained from the capacity grow
    assert vm1_p4 >= vm2_p4 >= vm4_p4 > 0
