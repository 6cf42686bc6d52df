"""Tests for trace record/replay and VM ballooning."""

import io

import pytest

from repro import SimContext
from repro.core import CachePolicy, DDConfig
from repro.workloads import (
    RedisWorkload,
    TraceRecord,
    TraceRecorder,
    TraceReplayWorkload,
    WebserverWorkload,
    dump_trace,
    load_trace,
)


def build(limit_mb=128, cache_mb=128, vm_mb=1024):
    ctx = SimContext(seed=23)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=cache_mb))
    vm = host.create_vm("vm1", memory_mb=vm_mb, vcpus=4)
    container = vm.create_container("c", limit_mb, CachePolicy.memory(100))
    return ctx, host, vm, container


class TestTraceFormat:
    def test_roundtrip(self):
        records = [
            TraceRecord(0.5, "r", 3, 0, 16),
            TraceRecord(1.0, "w", 3, 4, 2),
            TraceRecord(1.5, "a", 0, 42, 1),
        ]
        buffer = io.StringIO()
        assert dump_trace(records, buffer) == 3
        buffer.seek(0)
        assert load_trace(buffer) == records

    def test_load_skips_comments(self):
        buffer = io.StringIO("# header\n\n0.0 r 1 0 4\n")
        records = load_trace(buffer)
        assert len(records) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord.from_line("0.0 r 1")


class TestTraceRecorder:
    def test_records_reads_writes_anon(self):
        ctx, host, vm, container = build()
        recorder = TraceRecorder(container)
        recorder.attach()
        f = container.create_file(8)

        def driver():
            yield from container.read(f)
            yield from container.write(f, 0, 2, sync=True)
            yield from container.touch_anon([1, 2])
            return None

        ctx.env.run(until=ctx.env.process(driver()))
        ops = [r.op for r in recorder.records]
        assert ops == ["r", "s", "a", "a"]
        assert recorder.records[0].nblocks == 8

        # A recorded Redis serves its CPU cost inside the wrapped touch
        # (``then=``): each op still starts where the touch timeout and
        # then the CPU timeout, chained, would have put it.
        redis_box = vm.create_container("redis", 256, CachePolicy.none())
        redis_recorder = TraceRecorder(redis_box)
        redis_recorder.attach()
        redis = RedisWorkload(nrecords=2_000, threads=1)
        redis.start(redis_box, ctx.streams)
        ctx.run(until=ctx.now + 0.05)
        records = redis_recorder.records
        assert len(records) > 100
        assert recorder.records[4:] == []  # the first recorder saw none
        touch = vm.os.mem_spec.touch_latency_us * 1e-6
        seen = set()
        for record, following in zip(records, records[1:]):
            if record.block in seen:
                assert following.time == (record.time + touch) + redis.cpu_s
            else:
                assert following.time == record.time + redis.cpu_s
            seen.add(record.block)

    def test_only_target_container_recorded(self):
        ctx, host, vm, container = build()
        other = vm.create_container("other", 64, CachePolicy.none())
        recorder = TraceRecorder(container)
        recorder.attach()
        f = other.create_file(4)
        ctx.env.run(until=ctx.env.process(other.read(f)))
        assert recorder.records == []

    def test_attach_idempotent(self):
        ctx, host, vm, container = build()
        recorder = TraceRecorder(container)
        recorder.attach()
        recorder.attach()
        f = container.create_file(2)
        ctx.env.run(until=ctx.env.process(container.read(f)))
        assert len(recorder.records) == 1


class TestTraceReplay:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayWorkload([])

    def test_replay_executes_ops(self):
        ctx, host, vm, container = build()
        records = [
            TraceRecord(0.0, "r", 1, 0, 8),
            TraceRecord(1.0, "w", 1, 0, 4),
            TraceRecord(2.0, "a", 0, 7, 1),
        ]
        workload = TraceReplayWorkload(records, loop=False, time_scale=1.0)
        workload.start(container, ctx.streams)
        ctx.run(until=30)
        assert workload.counters.ops >= 3
        assert container.cgroup.anon_blocks == 1

    def test_replay_preserves_gaps(self):
        ctx, host, vm, container = build()
        records = [
            TraceRecord(0.0, "r", 1, 0, 1),
            TraceRecord(10.0, "r", 1, 0, 1),
        ]
        workload = TraceReplayWorkload(records, loop=False)
        workload.start(container, ctx.streams)
        ctx.run(until=5)
        ops_at_5 = workload.counters.ops
        ctx.run(until=30)
        assert ops_at_5 == 1      # second op waited for the 10 s gap
        assert workload.counters.ops == 2

    def test_loop_wraps(self):
        ctx, host, vm, container = build()
        records = [TraceRecord(0.0, "r", 1, 0, 1)]
        workload = TraceReplayWorkload(records, loop=True, time_scale=0)
        workload.start(container, ctx.streams)
        ctx.run(until=1)
        assert workload.counters.ops > 1

    def test_record_then_replay_reproduces_behaviour(self):
        """End-to-end: record a webserver, replay it, compare block mix."""
        ctx, host, vm, container = build()
        recorder = TraceRecorder(container)
        recorder.attach()
        source = WebserverWorkload(nfiles=200, threads=1, reads_per_op=2)
        source.start(container, ctx.streams)
        ctx.run(until=20)
        source.stop()
        assert len(recorder.records) > 10

        ctx2, host2, vm2, container2 = build()
        replay = TraceReplayWorkload(list(recorder.records), loop=False)
        replay.start(container2, ctx2.streams)
        ctx2.run(until=40)
        assert replay.counters.ops > 0
        assert vm2.os.stats.pc_lookups > 0


class TestBallooning:
    def test_deflate_triggers_reclaim(self):
        ctx, host, vm, container = build(limit_mb=768, vm_mb=1024)
        f = container.create_file(8192)  # 512 MB
        ctx.env.run(until=ctx.env.process(container.read(f)))
        used_before = vm.os.total_usage_blocks()
        assert used_before > 0
        vm.set_memory_mb(256)
        ctx.run(until=ctx.now + 60)
        assert vm.os.total_usage_blocks() <= vm.os.memory_blocks
        # The deflated pages were pushed to the hypervisor cache.
        assert container.hvcache_mb > 0

    def test_inflate_raises_headroom(self):
        ctx, host, vm, container = build(vm_mb=512)
        before = vm.os.memory_blocks
        vm.set_memory_mb(1024)
        assert vm.os.memory_blocks > before

    def test_validation(self):
        ctx, host, vm, container = build()
        with pytest.raises(ValueError):
            vm.set_memory_mb(0)
        with pytest.raises(ValueError):
            vm.os.set_memory_blocks(0)
