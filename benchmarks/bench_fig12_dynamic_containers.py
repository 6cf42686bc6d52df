"""FIG-12 — dynamic container-level cache management.

Shape checks: the two initial containers split the memory store ~60/40;
the hot-plugged video container receives its ~20% share in phase 2; after
it is moved to the SSD its memory share returns to the others and its
SSD pool grows.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import DynamicContainersExperiment

PHASE_S = 250.0


def test_fig12_dynamic_containers():
    exp = DynamicContainersExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                      phase_s=PHASE_S)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    series = {key.split("/", 1)[1]: ts for key, ts in result.series.items()}

    def phase_mean(label, phase):
        return series[label].mean(start=(phase + 0.5) * PHASE_S,
                                  end=(phase + 1) * PHASE_S)

    # Phase 1: container1 (weight 60) holds more than container2 (40).
    assert phase_mean("container1", 0) > phase_mean("container2", 0)
    # Phase 2: the video container received a real memory share.
    assert phase_mean("container3-mem", 1) > 0
    # Phase 3: video left the memory store for the SSD.
    assert phase_mean("container3-mem", 2) < phase_mean("container3-mem", 1)
    assert phase_mean("container3-ssd", 2) > phase_mean("container3-mem", 2)
    # And the survivors regained (or at least kept) their memory shares.
    assert phase_mean("container1", 2) >= 0.8 * phase_mean("container1", 1)
