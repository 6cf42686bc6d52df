"""Telemetry gate: what the recorder, the exporters and ``/metrics`` emit,
pinned before the telemetry stack is cut down.

Three artifacts are pinned, each against a fixed scenario:

(a) the simulated trace of the ``tests/test_obs.py`` scenario
    (``build_traced_cache(tracer, admission="second_access")`` +
    ``drive``): sha256 of ``to_jsonl(tracer)`` and of the Perfetto JSON
    ``events_to_perfetto`` renders from the parsed JSONL;
(b) a fixed three-tenant memcached script sent over loopback to a real
    ``CacheServer`` with a fake-clock tracer and the store probe bound:
    the trace's events with ``ts``/``dur`` dropped (the store probe's
    durations are real time; names, phases, ids and args are not), a
    strict ``validate_trace``, and the scraped ``/metrics`` body with
    the sample lines of the ``dd_service_lat_*``/``dd_service_disk_*``
    histograms dropped (which bucket a sample lands in is real time;
    their ``TYPE`` lines and every other line are exact);
(c) the latency table ``attach_latency_report`` adds for trace (a).

Everything goes through names both sides of the cut export — the
clocked tracer is built as ``getattr(repro.obs, "LiveTracer", Tracer)``
— so the file runs unmodified before and after and has to stay
byte-identical, pinned digests included.
"""

import asyncio
import hashlib
import json
import tempfile
import unittest

import repro.obs
from repro.metrics import check_exposition
from repro.obs import (
    Tracer,
    attach_latency_report,
    events_to_perfetto,
    parse_jsonl,
    set_tracer,
    to_jsonl,
    validate_trace,
)
from repro.obs.live import TelemetrySidecar, bind_store_probe
from repro.service import DiskStore, ServiceCache
from repro.service.check import check_service
from repro.service.server import CacheServer

from .test_obs import build_traced_cache, drive

_MB = 1 << 20
BLOCK = 4096
CAPACITY_BLOCKS = 48          # 192 KiB: the overwrite run must evict
BATCH_BLOCKS = 8
MAX_VALUE_BYTES = 50_000

SIM_EVENTS = 441
SIM_JSONL_BYTES = 87_277
SIM_JSONL_SHA256 = (
    "147457f9662f411c302c23c256a482bb5dc11f2400f70f180d47aa046fa7d9ab")
SIM_PERFETTO_SHA256 = (
    "7a7ac6c401f3e2e0f2236c74272f36ba5a9a452c042a179d919b45715b5f12c3")
SIM_LATENCY_TABLE_SHA256 = (
    "d82a33cd06dc98c7e5e43e48349b619d83f423cdea1b92245e2dd3016c0a41f4")

LIVE_EVENTS = 304
LIVE_EVENTS_SHA256 = (
    "9ab187e1b896de63caa7a11810901d74d535617feb445a7c67c3a5ffc1d0fd88")
LIVE_METRICS_SHA256 = (
    "ffef611ba730395f6a354901c74afde3ce05b56afedd1f286c5c8c73dc85c011")

_REAL_TIME_FAMILIES = ("dd_service_lat_", "dd_service_disk_")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def simulated_tracer() -> Tracer:
    tracer = Tracer()
    try:
        env, cache = build_traced_cache(tracer, admission="second_access")
        drive(env, cache)
    finally:
        set_tracer(None)
    return tracer


class SimulatedTraceGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tracer = simulated_tracer()
        cls.jsonl = to_jsonl(cls.tracer)

    def test_jsonl_bytes(self):
        self.assertEqual(len(self.tracer.events), SIM_EVENTS)
        self.assertEqual(len(self.jsonl.encode("utf-8")), SIM_JSONL_BYTES)
        self.assertEqual(sha256(self.jsonl), SIM_JSONL_SHA256)

    def test_simulated_meta_has_no_time_unit(self):
        meta, _ = parse_jsonl(self.jsonl)
        self.assertNotIn("time_unit", meta)

    def test_perfetto_of_parsed_jsonl(self):
        perfetto = events_to_perfetto(*parse_jsonl(self.jsonl))
        self.assertEqual(sha256(perfetto), SIM_PERFETTO_SHA256)

    def test_latency_table(self):
        tables = []

        class Result:
            def add_table(self, *table):
                tables.append(table)

        attach_latency_report(Result(), self.tracer)
        self.assertEqual(len(tables), 1)
        key, headers, rows = tables[0]
        self.assertEqual(key, "op latency (ms)")
        self.assertEqual(headers,
                         ["op", "count", "mean", "p50", "p90", "p99", "p999"])
        self.assertEqual([row[0] for row in rows],
                         ["obs.lat.flush", "obs.lat.flush_inode",
                          "obs.lat.get", "obs.lat.put"])
        self.assertEqual(sha256(json.dumps(tables[0])),
                         SIM_LATENCY_TABLE_SHA256)


class FakeClock:
    """Monotonic integer "nanoseconds": +100 per reading."""

    def __init__(self):
        self.t = 10 ** 12  # the probe re-bases real durations below "now"

    def __call__(self):
        self.t += 100
        return self.t


def build_script() -> bytes:
    """The fixed command script, ``quit`` last."""
    out = []

    def send(text: str, body: bytes = None):
        out.append(text.encode() + b"\r\n")
        if body is not None:
            out.append(body + b"\r\n")

    def put(key: str, size: int, flags: int = 0, fill: str = "v"):
        send(f"set {key} {flags} 0 {size}", (fill * size).encode())

    # default tenant: sets either side of the 1 KiB inline bound.
    for key, size in (("d100", 100), ("d1024", 1024), ("d1025", 1025),
                      ("d5000", 5000), ("d0", 0)):
        put(key, size, flags=size % 7)
    send("get d100 d1024 nope d1025")         # 3 hits, 1 miss
    send("gets d5000 d0")
    send("delete d1024")
    send("delete d1024")                      # NOT_FOUND
    send("get d1024")                         # miss
    send("tenant alice")
    for index in range(15):                   # 30 blocks: over her share
        put(f"a{index}", 5000 + index, fill="a")
    send("get a0 a14 a15")
    put("a14", 700, fill="A")                 # overwrite: file -> inline
    send("tenant bob")
    for index in range(30):                   # 5 blocks each over 10 keys:
        put(f"b{index % 10}", 20_000, fill="b")  # overwrites that evict
    send("get b0 b3 b6 b9")
    send("tenant alice")
    send("get a0 a2 a4 a6 a8 a10 a12 a14")    # what eviction left of hers
    send("flush_all")
    send("get a14")
    send("tenant default")
    send("set huge 0 0 50001", b"h" * 50_001)  # refused at the header
    send("get")                               # CLIENT_ERROR
    send("bogus")                             # ERROR -> cmd.unknown
    send("version")
    send("stats")
    send("stats tenants")
    send("quit")
    return b"".join(out)


async def http_get(port: int, path: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: gate\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n"), body.decode("utf-8")


class LiveTraceGate(unittest.IsolatedAsyncioTestCase):
    async def asyncSetUp(self):
        clocked = getattr(repro.obs, "LiveTracer", Tracer)
        self.tracer = clocked(clock=FakeClock())
        self._tmp = tempfile.TemporaryDirectory()
        store = DiskStore(self._tmp.name, sync_writes=False)
        cache = ServiceCache(
            store, capacity_mb=CAPACITY_BLOCKS * BLOCK / _MB,
            eviction_batch_mb=BATCH_BLOCKS * BLOCK / _MB,
            tracer=self.tracer)
        bind_store_probe(store, self.tracer, registry=cache.registry)
        server = CacheServer(cache, port=0, max_value_bytes=MAX_VALUE_BYTES,
                             tracer=self.tracer)
        await server.start()
        sidecar = TelemetrySidecar(cache, protocol=server.protocol, port=0)
        await sidecar.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(build_script())
            await writer.drain()
            self.replies = await reader.read()  # the server closes on quit
            writer.close()
            await writer.wait_closed()
            self.head, self.body = await http_get(sidecar.port, "/metrics")
            self.violations = check_service(cache)
        finally:
            sidecar.close()
            await sidecar.wait_closed()
            await server.close()
            self._tmp.cleanup()

    def test_script_ran_to_the_end(self):
        self.assertTrue(self.replies.endswith(b"END\r\n"), self.replies[-80:])
        self.assertEqual(self.replies.count(b"SERVER_ERROR object too large"),
                         1)
        self.assertEqual(self.violations, [])

    def test_trace_events_but_for_time(self):
        meta, events = parse_jsonl(to_jsonl(self.tracer))
        self.assertEqual(meta["time_unit"], "ns")
        self.assertEqual(validate_trace(meta, events), [])  # strict
        timeless = [{key: value for key, value in event.items()
                     if key not in ("ts", "dur")} for event in events]
        names = {event["name"] for event in timeless}
        for expected in ("conn.accept", "conn", "cmd.set", "cmd.get",
                         "cmd.delete", "cmd.flush_all", "cmd.tenant",
                         "cmd.stats", "cmd.version", "cmd.unknown",
                         "cmd.quit", "svc.put", "svc.get", "svc.delete",
                         "svc.evict.round", "service.evict", "store.set",
                         "store.get", "store.delete"):
            self.assertIn(expected, names)
        self.assertEqual(len(timeless), LIVE_EVENTS)
        self.assertEqual(sha256(json.dumps(timeless, sort_keys=True)),
                         LIVE_EVENTS_SHA256)

    def test_metrics_body_but_for_real_time_buckets(self):
        self.assertEqual(self.head[0], "HTTP/1.0 200 OK")
        self.assertIn(
            "Content-Type: text/plain; version=0.0.4; charset=utf-8",
            self.head)
        self.assertIn(f"Content-Length: {len(self.body.encode('utf-8'))}",
                      self.head)
        self.assertEqual(check_exposition(self.body), [])
        kept = [line for line in self.body.splitlines(keepends=True)
                if not line.startswith(_REAL_TIME_FAMILIES)]
        for op in ("get", "set", "delete"):
            self.assertIn(f"# TYPE dd_service_lat_{op} histogram\n", kept)
            self.assertIn(f"# TYPE dd_service_disk_{op} histogram\n", kept)
        self.assertIn('dd_tenant_evictions_total{tenant="alice"} ',
                      "".join(kept))
        self.assertEqual(sha256("".join(kept)), LIVE_METRICS_SHA256)


if __name__ == "__main__":
    unittest.main()
