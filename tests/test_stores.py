"""Tests for cache store backends (memory costs, SSD async writes)."""


from unittest import mock

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, stores
from repro.core.stores import MemBackend, SSDBackend
from repro.simkernel import Environment
from repro.storage import SSD, SSDSpec, block_runs

BLK = 64 * 1024


def ssd_runs(keys):
    """The ``(start, length)`` requests an SSD-store get of ``keys`` (all
    resident, in this order) sends to the device."""
    env = Environment()
    cache = DoubleDeckerCache(env, DDConfig(mem_capacity_mb=0,
                                            ssd_capacity_mb=64),
                              BLK, ssd_device=SSD(env, BLK))
    vm = cache.register_vm("vm")
    pool = cache.create_pool(vm, "p", CachePolicy.ssd(100))
    env.run(until=env.process(cache.put_many(vm, pool, sorted(keys))))
    requested = []

    def read_runs(runs):
        requested.extend(runs)
        yield from ()

    cache.ssd_backend.read_runs = read_runs
    found = env.run(until=env.process(cache.get_many(vm, pool, keys)))
    assert found == set(keys)
    return requested


class TestContiguousRuns:
    """:func:`block_runs` over ascending block numbers, and the SSD
    store's get, which sorts its keys and splits them per file."""

    def test_empty(self):
        assert block_runs([]) == []
        assert ssd_runs([]) == []

    def test_single(self):
        assert block_runs([5]) == [(5, 1)]
        assert ssd_runs([(1, 5)]) == [(5, 1)]

    def test_merges_adjacent(self):
        assert block_runs([0, 1, 2, 5, 6]) == [(0, 3), (5, 2)]
        keys = [(1, 0), (1, 1), (1, 2), (1, 5), (1, 6)]
        assert ssd_runs(keys) == [(0, 3), (5, 2)]

    def test_does_not_merge_across_files(self):
        keys = [(1, 0), (1, 1), (2, 2), (2, 3)]
        assert ssd_runs(keys) == [(0, 2), (2, 2)]

    def test_unsorted_input(self):
        # The helper never sorts: a number that does not extend the run
        # starts a new one.  Callers with unordered blocks sort first.
        assert block_runs([2, 0, 1]) == [(2, 1), (0, 2)]
        assert ssd_runs([(1, 2), (1, 0), (1, 1)]) == [(0, 3)]

    def test_adjacent_blocks_in_different_inodes_do_not_merge(self):
        # Block numbers continue across the inode boundary ((1,5) then
        # (2,6)), but runs must never span files.
        keys = [(1, 4), (1, 5), (2, 6), (2, 7)]
        assert ssd_runs(keys) == [(4, 2), (6, 2)]

    def test_all_single_block_runs(self):
        assert block_runs([0, 2, 4]) == [(0, 1), (2, 1), (4, 1)]
        keys = [(1, 0), (1, 2), (1, 4), (2, 0)]
        assert ssd_runs(keys) == [(0, 1), (2, 1), (4, 1), (0, 1)]

    def test_same_block_number_restarting_per_inode(self):
        # Each inode restarts at block 0; identical (start, len) tuples
        # from different files stay separate runs.
        keys = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        assert ssd_runs(keys) == [(0, 2), (0, 2), (0, 1)]


class TestMemBackend:
    def test_costs_scale_with_blocks(self):
        backend = MemBackend(BLK)
        assert backend.read_cost(2) > backend.read_cost(1)
        assert backend.read_cost(0) == 0.0
        assert backend.write_cost(0) == 0.0


class TestSSDBackend:
    def make(self, buffer_mb=1.0):
        env = Environment()
        device = SSD(env, BLK, spec=SSDSpec())
        with mock.patch.object(stores, "SSD_WRITE_BUFFER_MB", buffer_mb):
            backend = SSDBackend(env, device)
        return env, device, backend

    def test_enqueue_within_buffer(self):
        env, device, backend = self.make(buffer_mb=1.0)  # 16 blocks
        assert backend.enqueue_write(8)
        assert backend.pending_blocks == 8

    def test_enqueue_overflow_rejected(self):
        env, device, backend = self.make(buffer_mb=1.0)
        assert backend.enqueue_write(16)
        assert not backend.enqueue_write(1)
        assert backend.pending_blocks == backend.writes_enqueued == 16

    def test_writer_drains_buffer(self):
        env, device, backend = self.make(buffer_mb=1.0)
        backend.enqueue_write(16)
        env.run(until=1.0)
        assert backend.pending_blocks == 0
        assert device.stats.blocks_written == 16

    def test_buffer_reusable_after_drain(self):
        env, device, backend = self.make(buffer_mb=1.0)
        backend.enqueue_write(16)
        env.run(until=1.0)
        assert backend.enqueue_write(16)

    def test_read_runs_cost_time(self):
        env, device, backend = self.make()

        def proc(env):
            yield from backend.read_runs([(0, 4), (100, 4)])

        env.run(until=env.process(proc(env)))
        assert env.now > 0
        assert device.stats.blocks_read == 8

    def test_zero_enqueue_is_trivially_true(self):
        env, device, backend = self.make()
        assert backend.enqueue_write(0)

    def test_rejection_leaves_counters_balanced(self):
        # A rejected enqueue must not disturb the buffer ledger:
        # writes_enqueued == blocks_written + pending_blocks throughout.
        env, device, backend = self.make(buffer_mb=1.0)
        assert backend.enqueue_write(10)
        assert not backend.enqueue_write(7)
        assert backend.writes_enqueued == 10
        assert backend.blocks_written + backend.pending_blocks == 10

    def test_blocks_written_tracks_drained_blocks(self):
        env, device, backend = self.make(buffer_mb=4.0)
        backend.enqueue_write(16)
        backend.enqueue_write(16)
        env.run(until=5.0)
        assert backend.blocks_written == 32
        assert backend.pending_blocks == 0
        assert backend.writes_enqueued == backend.blocks_written
        # The device-side byte counter agrees with the block counter.
        assert device.stats.bytes_written == 32 * BLK
