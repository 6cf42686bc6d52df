"""FIG-10 / FIG-11 / TAB-3 — flexible differentiated cache policies.

Shape checks (paper's Fig 10): webserver gains large factors under every
DD policy; webproxy gains moderately; videoserver *loses* under the
memory policies but gains when moved to the SSD store (DDHybrid).
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import FlexiblePolicyExperiment
from repro.experiments.flexible import POLICY_TABLE


def test_fig10_11_table3_flexible():
    exp = FlexiblePolicyExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                   warmup_s=250, duration_s=300)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    # Table 3 is configuration: assert it matches the paper exactly.
    assert POLICY_TABLE["DDMem"]["webserver"].mem_weight == 32
    assert POLICY_TABLE["DDMemEx"]["videoserver"].uses_cache is False
    assert POLICY_TABLE["DDHybrid"]["videoserver"].ssd_weight == 100

    # Fig 10 shapes.
    assert result.scalars["webserver_ddmem_speedup"] > 3.0
    assert result.scalars["webserver_ddmemex_speedup"] > 3.0
    assert result.scalars["webserver_ddhybrid_speedup"] > 3.0
    assert result.scalars["webproxy_ddmem_speedup"] > 1.2
    # Video is curtailed by the memory policies...
    assert result.scalars["videoserver_ddmem_speedup"] < 1.0
    assert result.scalars["videoserver_ddmemex_speedup"] < 1.0
    # ...but the SSD offload more than recovers it (paper: 3.6x).
    assert (result.scalars["videoserver_ddhybrid_speedup"]
            > result.scalars["videoserver_ddmem_speedup"] * 1.5)

    # Fig 11 shape: under DDHybrid the video pool leaves the memory store
    # entirely (it lives on the SSD).
    t_half = (250 + 300) / 2
    hybrid_video_mem = result.series["DDHybrid/videoserver"].mean(start=t_half)
    ddmem_video_mem = result.series["DDMem/videoserver"].mean(start=t_half)
    assert hybrid_video_mem > ddmem_video_mem  # SSD pool holds more ...
    global_video = result.series["Global/videoserver"].mean(start=t_half)
    assert global_video > result.series["Global/webserver"].mean(start=t_half)
