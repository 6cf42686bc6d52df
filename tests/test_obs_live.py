"""Live telemetry: clocked tracer, ops logging, store probe, sidecar.

Unit tests inject a fake nanosecond clock so spans and slow-op windows
are exact; the integration tests at the bottom run a real server with a
clocked :class:`Tracer` attached and push the resulting trace through
the same strict validator and Perfetto exporter the simulated traces
use.
"""

import asyncio
import gc
import io
import json
import tempfile
import time
import unittest
from unittest import mock

from repro.metrics import check_exposition
from repro.obs import (
    Tracer,
    events_to_perfetto,
    live,
    parse_jsonl,
    to_jsonl,
    validate_trace,
)
from repro.obs.export import time_scale_us
from repro.obs.live import (
    OpsLogger,
    TelemetrySidecar,
    bind_store_probe,
)
from repro.service import DiskStore, ServiceCache
from repro.service.server import CacheServer


class FakeClock:
    """Deterministic monotonic-ns clock: +step per call, settable."""

    def __init__(self, start=1_000, step=100):
        self.t = start
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class LiveTracerTests(unittest.TestCase):
    def test_span_records_wallclock_duration(self):
        clock = FakeClock(start=0, step=50)
        tracer = Tracer(clock=clock)
        with tracer.span("cmd.get", tenant="t0") as span:
            span.note(hit=True)
        (event,) = list(tracer.events)
        self.assertEqual(event["name"], "cmd.get")
        self.assertEqual(event["dur"], 50)
        self.assertEqual(event["args"]["tenant"], "t0")
        self.assertTrue(event["args"]["hit"])

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with self.assertRaises(RuntimeError):
            with tracer.span("cmd.set"):
                raise RuntimeError("boom")
        self.assertEqual(tracer.open_spans, 0)
        self.assertEqual(len(tracer.events), 1)

    def test_meta_declares_ns_unit_and_validates(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("cmd.get"):
            pass
        tracer.instant("conn.accept", tracer.clock(), conn=1)
        meta, events = parse_jsonl(to_jsonl(tracer))
        self.assertEqual(meta["time_unit"], "ns")
        self.assertEqual(validate_trace(meta, events), [])

    def test_time_scale_us_ns_vs_simulated(self):
        self.assertEqual(time_scale_us({"time_unit": "ns"}), 1e-3)
        self.assertEqual(time_scale_us({}), 1e6)

    def test_perfetto_export_scales_ns_to_us(self):
        tracer = Tracer(clock=FakeClock(start=0, step=500))
        with tracer.span("cmd.get"):
            pass
        meta, events = parse_jsonl(to_jsonl(tracer))
        payload = json.loads(events_to_perfetto(meta, events))
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(spans), 1)
        self.assertEqual(spans[0]["dur"], 0.5)  # 500 ns == 0.5 us


class OpsLoggerTests(unittest.TestCase):
    def _logger(self, **kwargs):
        stream = io.StringIO()
        clock = kwargs.pop("clock", FakeClock(start=0, step=1))
        return OpsLogger(stream=stream, clock=clock, **kwargs), stream, clock

    def test_log_is_one_json_object_per_line(self):
        ops, stream, _ = self._logger()
        ops.log("server.start", port=11311)
        ops.log("server.stop")
        lines = stream.getvalue().splitlines()
        self.assertEqual(len(lines), 2)
        first = json.loads(lines[0])
        self.assertEqual(first["event"], "server.start")
        self.assertEqual(first["port"], 11311)
        self.assertIn("t_ns", first)
        self.assertEqual(ops.emitted, 2)

    def test_slow_op_threshold(self):
        ops, stream, _ = self._logger(slow_op_ns=1_000_000)
        self.assertFalse(ops.slow_op("get", "t0", 999_999))
        self.assertTrue(ops.slow_op("get", "t0", 1_000_000))
        record = json.loads(stream.getvalue())
        self.assertEqual(record["event"], "slow_op")
        self.assertEqual(record["op"], "get")
        self.assertEqual(record["threshold_ns"], 1_000_000)

    def test_slow_op_rate_limit_and_window_reset(self):
        clock = FakeClock(start=0, step=1)
        ops, stream, _ = self._logger(slow_op_ns=1, slow_op_per_s=2,
                                      clock=clock)
        self.assertTrue(ops.slow_op("get", "t0", 10))
        self.assertTrue(ops.slow_op("get", "t0", 10))
        self.assertFalse(ops.slow_op("get", "t0", 10))  # over the limit
        self.assertEqual(ops.suppressed, 1)
        clock.t += 2_000_000_000  # two seconds later: fresh window
        self.assertTrue(ops.slow_op("get", "t0", 10))
        self.assertEqual(
            sum(1 for line in stream.getvalue().splitlines()
                if json.loads(line)["event"] == "slow_op"), 3)

    def test_rejects_nonpositive_rate(self):
        with self.assertRaises(ValueError):
            OpsLogger(stream=io.StringIO(), slow_op_per_s=0)


class StoreProbeTests(unittest.TestCase):
    def test_probe_records_spans_and_histograms(self):
        clock = FakeClock(start=10_000, step=10)
        tracer = Tracer(clock=clock)
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            cache = ServiceCache(store, capacity_mb=1.0, tracer=tracer)
            bind_store_probe(store, tracer, registry=cache.registry)
            cache.set("t0", "k", b"value")
            cache.get("t0", "k")
            cache.close()
        names = {event["name"] for event in tracer.events}
        self.assertIn("store.set", names)
        self.assertIn("store.get", names)
        self.assertIn("svc.put", names)
        self.assertIn("svc.get", names)
        get_hist = cache.registry.wallclock_histogram("service.disk.get")
        self.assertGreaterEqual(get_hist.count, 1)
        # Probe spans re-base onto the tracer clock: every event's end
        # must be at or before "now" on that clock.
        now = clock.t
        for event in tracer.events:
            self.assertLessEqual(event["ts"] + event.get("dur", 0), now)


class SidecarTests(unittest.IsolatedAsyncioTestCase):
    async def asyncSetUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        store = DiskStore(self._tmp.name, sync_writes=False)
        self.cache = ServiceCache(store, capacity_mb=1.0)
        self.server = CacheServer(self.cache, port=0)
        await self.server.start()
        self.sidecar = TelemetrySidecar(
            self.cache, protocol=self.server.protocol, port=0)
        await self.sidecar.start()

    async def asyncTearDown(self):
        self.sidecar.close()
        await self.sidecar.wait_closed()
        await self.server.close()
        self._tmp.cleanup()

    async def http(self, request: str):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.sidecar.port)
        writer.write(request.encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, head.decode(), body.decode()

    async def test_metrics_endpoint_is_valid_exposition(self):
        self.cache.set("tenant0", "k", b"v")
        self.cache.get("tenant0", "k")
        self.cache.get("tenant0", "missing")
        status, head, body = await self.http(
            "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        self.assertEqual(status, 200)
        self.assertIn("version=0.0.4", head)
        self.assertEqual(check_exposition(body), [])
        self.assertIn('dd_tenant_gets_total{tenant="tenant0"} 2', body)
        self.assertIn('dd_tenant_get_hits_total{tenant="tenant0"} 1', body)
        self.assertIn('dd_tenant_get_misses_total{tenant="tenant0"} 1',
                      body)
        self.assertIn("dd_cache_used_blocks", body)
        self.assertEqual(self.sidecar.scrapes, 1)

    async def test_healthz_and_stats_json(self):
        status, _, body = await self.http(
            "GET /healthz HTTP/1.0\r\n\r\n")
        self.assertEqual(status, 200)
        self.assertEqual(json.loads(body), {"ok": True})
        # The wire `stats` command and /metrics are the two renderings of
        # ServiceCache.stats(); there is no third over HTTP.
        status, _, _ = await self.http("GET /stats.json HTTP/1.0\r\n\r\n")
        self.assertEqual(status, 404)

    async def test_unknown_path_404_and_post_405(self):
        status, _, _ = await self.http("GET /nope HTTP/1.0\r\n\r\n")
        self.assertEqual(status, 404)
        status, _, _ = await self.http("POST /metrics HTTP/1.0\r\n\r\n")
        self.assertEqual(status, 405)

    async def test_head_omits_body(self):
        status, head, body = await self.http(
            "HEAD /healthz HTTP/1.0\r\n\r\n")
        self.assertEqual(status, 200)
        self.assertEqual(body, "")
        self.assertIn("Content-Length:", head)


    # -- hostile scrapers: the port shares the cache's event loop --------

    async def test_overlong_request_line_is_answered_400(self):
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.sidecar.port)
        writer.write(b"GET /" + b"a" * 200_000 + b" HTTP/1.0\r\n\r\n")
        # The status line only: what the server left unread of the
        # request turns its close into a reset right behind the reply.
        self.assertEqual(await reader.readline(),
                         b"HTTP/1.0 400 Bad Request\r\n")
        writer.close()
        gc.collect()  # an exception lost in a handler task reports here
        self.assertEqual(errors, [])

    async def test_silent_client_is_answered_408_and_closed(self):
        with mock.patch.object(live, "_HEAD_SECONDS", 0.05):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.sidecar.port)
            raw = await asyncio.wait_for(reader.read(), 2.0)  # to EOF
        writer.close()
        self.assertTrue(raw.startswith(b"HTTP/1.0 408 Request Timeout\r\n"),
                        raw)

    async def test_endless_headers_are_cut_at_head_bytes(self):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.sidecar.port)
        header = b"X-Pad: " + b"x" * 1015 + b"\r\n"  # 1 KiB, no blank line
        writer.write(b"GET /metrics HTTP/1.0\r\n"
                     + header * (4 * live._HEAD_BYTES // len(header)))
        self.assertEqual(await reader.readline(),
                         b"HTTP/1.0 400 Bad Request\r\n")
        writer.close()
        self.assertEqual(self.sidecar.scrapes, 0)  # refused, not routed


class LiveTraceEndToEndTests(unittest.IsolatedAsyncioTestCase):
    """A traced server under real traffic produces a strict-valid trace."""

    async def test_full_request_path_trace_validates(self):
        tracer = Tracer(clock=time.monotonic_ns)
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            cache = ServiceCache(store, capacity_mb=1.0, tracer=tracer)
            bind_store_probe(store, tracer, registry=cache.registry)
            server = CacheServer(cache, port=0, tracer=tracer)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"set k 0 0 3\r\nabc\r\nget k\r\nquit\r\n")
            await writer.drain()
            await reader.read()
            writer.close()
            await server.close()
        meta, events = parse_jsonl(to_jsonl(tracer))
        self.assertEqual(validate_trace(meta, events), [])  # strict
        names = {event["name"] for event in events}
        for expected in ("conn", "conn.accept", "cmd.set", "cmd.get",
                         "svc.put", "svc.get", "store.set", "store.get"):
            self.assertIn(expected, names)
        # Perfetto export of the live trace parses and carries ns->us.
        payload = json.loads(events_to_perfetto(meta, events))
        self.assertTrue(payload["traceEvents"])


if __name__ == "__main__":
    unittest.main()
