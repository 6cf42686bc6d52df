"""Tests for workload models: counters, filesets, op behaviour."""

import pytest

from repro import SimContext
from repro.core import CachePolicy, DDConfig
from repro.workloads import (
    MongoWorkload,
    MySQLWorkload,
    RedisWorkload,
    VarmailWorkload,
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
    YCSBWorkload,
)
from repro.workloads.filebench import Fileset


def build(limit_mb=256, cache_mb=128, vm_mb=2048):
    ctx = SimContext(seed=11)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=cache_mb))
    vm = host.create_vm("vm1", memory_mb=vm_mb)
    container = vm.create_container("c", limit_mb, CachePolicy.memory(100))
    return ctx, container


class TestWorkloadBase:
    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            WebserverWorkload(threads=0)

    def test_snapshot_rates(self):
        ctx, container = build()
        workload = WebserverWorkload(nfiles=50, mean_size_kb=64, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        s0 = workload.snapshot()
        ctx.run(until=30)
        rates = workload.snapshot().rates_since(s0)
        assert rates["ops_per_s"] > 0
        assert rates["mb_per_s"] > 0
        assert rates["mean_latency_ms"] > 0

    def test_rates_since_zero_interval(self):
        ctx, container = build()
        workload = WebserverWorkload(nfiles=10, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=5)
        snap = workload.snapshot()
        assert snap.rates_since(snap)["ops_per_s"] == 0.0

    def test_stop_halts_ops(self):
        ctx, container = build()
        workload = WebserverWorkload(nfiles=10, threads=2)
        workload.start(container, ctx.streams)
        ctx.run(until=5)
        workload.stop()
        ops = workload.counters.ops
        ctx.run(until=20)
        assert workload.counters.ops == ops


class TestFileset:
    def test_sizes_positive(self):
        ctx, container = build()
        fileset = Fileset(container, 100, 64.0, ctx.streams.stream("fs"))
        assert len(fileset) == 100
        assert all(f.nblocks >= 1 for f in fileset.files)
        assert fileset.total_mb > 0

    def test_mean_size_roughly_respected(self):
        ctx, container = build()
        fileset = Fileset(container, 2000, 256.0, ctx.streams.stream("fs"))
        mean_kb = fileset.total_blocks * container.vm.block_bytes / 1024 / 2000
        # ceil-to-block inflates small files; allow a loose band.
        assert 200 < mean_kb < 500

    def test_replace_swaps_file(self):
        ctx, container = build()
        fileset = Fileset(container, 10, 64.0, ctx.streams.stream("fs"))
        old, new = fileset.replace()
        assert old not in fileset.files
        assert new in fileset.files
        assert len(fileset) == 10

    def test_needs_at_least_one_file(self):
        ctx, container = build()
        with pytest.raises(ValueError):
            Fileset(container, 0, 64.0, ctx.streams.stream("fs"))


class TestFilebenchProfiles:
    def test_webserver_reads_and_appends(self):
        ctx, container = build()
        workload = WebserverWorkload(nfiles=100, threads=1, reads_per_op=3)
        workload.start(container, ctx.streams)
        ctx.run(until=20)
        assert workload.counters.ops > 0
        assert workload.counters.bytes_read > 0
        assert workload.counters.bytes_written > 0

    def test_webproxy_churns_files(self):
        ctx, container = build()
        workload = WebproxyWorkload(nfiles=100, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=20)
        fs = container.vm.os.fs
        # Every op replaces one object: the live count stays put while
        # inode numbers move past it.
        assert workload.counters.ops > 0
        assert len(fs) == 100 + 1  # objects + the log
        assert max(fs.files) >= len(fs) + workload.counters.ops

    def test_varmail_fsyncs(self):
        ctx, container = build()
        workload = VarmailWorkload(nfiles=100, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=20)
        assert workload.counters.ops > 0
        # fsyncs force synchronous disk writes
        host_disk = container.vm.os.disk
        assert host_disk.stats.writes > 0

    def test_videoserver_streams_sequentially(self):
        ctx, container = build()
        workload = VideoserverWorkload(
            nvideos=2, video_mb=16, threads=1, writer_interval_s=0
        )
        workload.start(container, ctx.streams)
        ctx.run(until=20)
        assert workload.counters.ops > 0
        disk = container.vm.os.disk
        assert disk.stats.sequential_reads > 0

    def test_videoserver_writer_creates_and_retires(self):
        ctx, container = build()
        workload = VideoserverWorkload(
            nvideos=2, video_mb=4, threads=1, writer_interval_s=5,
            stream_pace_ms=0.1,
        )
        workload.start(container, ctx.streams)
        fs = container.vm.os.fs
        ctx.run(until=5.0001)  # just after the writer's first wake-up
        ingest = [f for f in fs.files.values() if "ingest" in f.name]
        assert len(ingest) == 1  # an ingest file appeared
        ctx.run(until=30)
        assert ingest[0].inode not in fs.files  # and was retired
        assert len(fs) <= 3  # the passive set does not accumulate


class TestYCSBApps:
    def test_redis_pure_anon(self):
        ctx, container = build()
        workload = RedisWorkload(nrecords=64_000, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        assert workload.counters.ops > 0
        assert container.anon_mb > 0
        assert container.file_mb == 0  # no file IO at all

    def test_redis_read_fraction_validated(self):
        with pytest.raises(ValueError):
            YCSBWorkload("x", 10, 1, read_fraction=1.5, cpu_us_per_op=0.0)

    def test_mongo_file_backed(self):
        ctx, container = build()
        workload = MongoWorkload(nrecords=64_000, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        assert workload.counters.ops > 0
        assert container.file_mb > 0
        assert container.anon_mb == 0  # mmap store: no anon

    def test_mysql_mixed(self):
        ctx, container = build()
        workload = MySQLWorkload(
            nrecords=64_000, buffer_pool_mb=16, threads=1
        )
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        assert workload.counters.ops > 0
        assert container.anon_mb > 0  # buffer pool
        assert container.file_mb > 0  # data file + redo

    def test_mysql_respects_pool_capacity(self):
        ctx, container = build()
        workload = MySQLWorkload(
            nrecords=640_000, buffer_pool_mb=4, threads=1
        )
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        assert len(workload._pool) <= workload._pool_slots

    def test_zipf_read_update_mix(self):
        ctx, container = build()
        workload = MySQLWorkload(nrecords=64_000, buffer_pool_mb=16, threads=1)
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        # Reads return (record, 0) and updates (0, record) bytes.
        reads = workload.counters.bytes_read // 1024
        updates = workload.counters.bytes_written // 1024
        assert reads + updates == workload.counters.ops
        assert 0.3 < reads / workload.counters.ops < 0.7  # MySQL's 50:50


class TestRateLimiting:
    def test_zero_target_is_closed_loop(self):
        ctx, container = build()
        workload = WebserverWorkload(nfiles=50, threads=1, reads_per_op=1)
        workload.start(container, ctx.streams)
        ctx.run(until=10)
        snap0 = workload.snapshot()
        ctx.run(until=20)
        # Unlimited: far faster than any modest target.
        assert workload.snapshot().rates_since(snap0)["ops_per_s"] > 100


class TestPrepareGating:
    def test_threads_wait_for_prepare(self):
        """Non-zero threads must not run ops before prepare() finishes."""
        ctx, container = build()

        class SlowPrepare(WebserverWorkload):
            def prepare(self):
                yield self.env.timeout(5.0)  # slow dataset setup
                result = super().prepare()
                # super().prepare is a generator; drive it (it's instant).
                try:
                    while True:
                        next(result)
                except StopIteration:
                    pass

        workload = SlowPrepare(nfiles=50, threads=3)
        workload.start(container, ctx.streams)
        ctx.run(until=4.0)
        assert workload.counters.ops == 0  # nobody jumped the gun
        ctx.run(until=20.0)
        assert workload.counters.ops > 0
