"""The live service against the simulator, op for op.

A one-VM, SSD-only ``Scenario`` (three containers, unequal weights, no
compression, dedup, trickle-down or admission) is recorded at
``DoubleDeckerCache``'s driver interface and replayed into a
``ServiceCache`` (``tests/support/replay.py``).  At an eviction batch of
one block both sides must agree after every op: hits, each tenant's
``used``, each tenant's FIFO order and the store total ``engine.used[SSD]``.
"""

from unittest import mock

from repro.core import StoreKind, stores
from repro.experiments.scenarios import Scenario
from repro.hypervisor.host import BLOCK_BYTES
from repro.storage import MB

from .support.replay import Recorder, replay

#: container, ssd weight, workload (webproxy deletes files: flush_inode)
CONTAINERS = (("web", 50, "webserver"), ("mail", 30, "webserver"),
              ("proxy", 20, "webproxy"))


def record():
    recorder = Recorder()
    scenario = (
        Scenario(seed=11)
        .cache("doubledecker", mem_mb=0, ssd_mb=4,
               eviction_batch_mb=BLOCK_BYTES / MB)
        .vm("vm1", memory_mb=512)
        .at(0, recorder.attach)
    )
    for name, weight, workload in CONTAINERS:
        scenario.container("vm1", name, 12, policy=f"ssd:{weight}",
                           workload=(workload, {"nfiles": 150, "threads": 1}))
    # A buffer no put outruns: the service has no write backpressure.
    with mock.patch.object(stores, "SSD_WRITE_BUFFER_MB", 1024.0):
        scenario.run(warmup_s=0, duration_s=15)
    return recorder.cache, recorder.finish()


def test_service_replays_the_simulated_stream_without_divergence(tmp_path):
    cache, ops = record()
    assert cache._eviction_batch == 1
    assert 2000 <= len(ops) <= 6000
    assert {op.name for op in ops} == {"put", "get", "flush", "flush_inode"}
    pools = list(cache._pools.values())
    assert [pool.policy.ssd_weight for pool in pools] == [w for _, w, _ in CONTAINERS]
    for pool in pools:
        # Every tenant is evicted from and none is refused for want of
        # write buffer (the service has no such refusal).
        assert pool.stats.evictions > 0
        assert pool.stats.put_rejected_backpressure == 0
        assert pool.stats.put_rejected_capacity == 0
        assert pool.used[StoreKind.MEMORY] == 0
    assert replay(cache, ops, str(tmp_path)) == []
