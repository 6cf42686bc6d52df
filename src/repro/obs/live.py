"""Wall-clock telemetry for the live service path (``repro.obs.live``).

The service records into the same :class:`~repro.obs.tracer.Tracer` the
simulator uses, built with a clock (``Tracer(clock=time.monotonic_ns)``:
integer nanoseconds, ``"time_unit": "ns"`` in the meta record), so one
toolchain — the JSONL/Perfetto exporters, ``python -m repro.obs``
validation and analysis — reads both kinds of trace.  This module holds
what only a live process needs:

* :class:`OpsLogger` — structured JSON operational logging with a
  rate-limited slow-op log.
* :class:`TelemetrySidecar` — a stdlib-asyncio HTTP endpoint on the
  service's own event loop serving ``/metrics`` (Prometheus text
  exposition via :mod:`repro.metrics.exposition`) and ``/healthz``.
* :func:`bind_store_probe` — hooks :class:`repro.service.store.DiskStore`
  I/O timing into a tracer as ``store.*`` spans.

Nothing here touches the simulator, and fixed-seed fingerprints are
pinned by the perf-smoke goldens.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional

from ..metrics.exposition import (
    MetricFamily,
    registry_families,
    render_families,
)
from .tracer import Tracer

__all__ = [
    "OpsLogger",
    "TelemetrySidecar",
    "service_families",
    "bind_store_probe",
]

_NS_PER_S = 1_000_000_000


# ----------------------------------------------------------------------
# Structured operational logging
# ----------------------------------------------------------------------

class OpsLogger:
    """One-JSON-object-per-line operational log.

    Every record carries ``event`` and a monotonic ``t_ns``; the rest is
    the caller's fields.  :meth:`slow_op` is the latency tripwire: ops
    slower than ``slow_op_ns`` are logged, rate-limited to
    ``slow_op_per_s`` records per one-second window so a latency storm
    cannot amplify itself through logging I/O (the ``suppressed``
    counter records what the limiter swallowed).
    """

    def __init__(self, stream=None, slow_op_ns: int = 10_000_000,
                 slow_op_per_s: int = 10, clock=time.monotonic_ns) -> None:
        if slow_op_per_s < 1:
            raise ValueError(
                f"slow_op_per_s must be >= 1, got {slow_op_per_s}")
        self.stream = stream if stream is not None else sys.stderr
        self.slow_op_ns = slow_op_ns
        self.slow_op_per_s = slow_op_per_s
        self.clock = clock
        self.emitted = 0
        self.suppressed = 0
        self._window_start: Optional[int] = None
        self._window_emitted = 0

    def log(self, event: str, **fields: Any) -> None:
        """Emit one record unconditionally."""
        record: Dict[str, Any] = {"event": event, "t_ns": self.clock()}
        record.update(fields)
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.stream.flush()
        self.emitted += 1

    def slow_op(self, op: str, tenant: str, dur_ns: int,
                **fields: Any) -> bool:
        """Log a slow op if over threshold and under the rate limit.

        Returns whether a record was written (False: fast op or
        suppressed).
        """
        if dur_ns < self.slow_op_ns:
            return False
        now = self.clock()
        if (self._window_start is None
                or now - self._window_start >= _NS_PER_S):
            self._window_start = now
            self._window_emitted = 0
        if self._window_emitted >= self.slow_op_per_s:
            self.suppressed += 1
            return False
        self._window_emitted += 1
        self.log("slow_op", op=op, tenant=tenant, dur_ns=dur_ns,
                 threshold_ns=self.slow_op_ns, **fields)
        return True


# ----------------------------------------------------------------------
# Prometheus exposition of the service's state
# ----------------------------------------------------------------------

#: Per-tenant monotone counters from ``ServiceCache.stats()``.
_TENANT_COUNTERS = (
    "gets", "get_hits", "puts", "puts_stored", "evictions",
    "put_rejected_admission", "put_rejected_capacity",
)
#: Per-tenant point-in-time gauges.
_TENANT_GAUGES = ("used_blocks", "entitlement_blocks")


def service_families(cache, protocol=None,
                     prefix: str = "dd") -> List[MetricFamily]:
    """The service's full metric set as exposition families.

    Per-tenant hit/miss/eviction counters (``tenant`` label), host
    occupancy gauges, server connection/op counters, and everything in
    the cache's :class:`MetricsRegistry` — which includes the
    nanosecond latency histograms the protocol layer and the store
    probe record (``dd_service_lat_get``, ``dd_service_disk_get`` et al.).
    """
    snapshot = cache.stats()
    host = snapshot.pop("_host", {})
    tenants = sorted(snapshot)
    families: List[MetricFamily] = []

    for field in _TENANT_COUNTERS:
        family = MetricFamily(f"{prefix}_tenant_{field}_total", "counter")
        for tenant in tenants:
            family.add(snapshot[tenant][field], labels={"tenant": tenant})
        families.append(family)
    misses = MetricFamily(f"{prefix}_tenant_get_misses_total", "counter")
    for tenant in tenants:
        misses.add(snapshot[tenant]["gets"] - snapshot[tenant]["get_hits"],
                   labels={"tenant": tenant})
    families.append(misses)
    for field in _TENANT_GAUGES:
        family = MetricFamily(f"{prefix}_tenant_{field}", "gauge")
        for tenant in tenants:
            family.add(snapshot[tenant][field], labels={"tenant": tenant})
        families.append(family)

    for field in sorted(host):
        family = MetricFamily(f"{prefix}_cache_{field}", "gauge")
        family.add(host[field])
        families.append(family)

    if protocol is not None:
        for field in ("connections", "ops", "protocol_errors"):
            family = MetricFamily(
                f"{prefix}_server_{field}_total", "counter")
            family.add(getattr(protocol, field))
            families.append(family)

    families.extend(registry_families(cache.registry, prefix=prefix))
    return families


#: Bounds on one request head (request line + headers).  The sidecar
#: shares the cache's event loop, so a scraper gets one bounded, timed
#: read: a head over ``_HEAD_BYTES`` is answered 400, one not finished
#: within ``_HEAD_SECONDS`` 408, and either way the connection closes.
_HEAD_BYTES = 8192
_HEAD_SECONDS = 5.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout"}


class TelemetrySidecar:
    """Minimal HTTP/1.0 metrics endpoint on the service's event loop.

    Stdlib-only by design (no aiohttp in the container): one bounded read
    of the request head, headers ignored, one response, connection
    closed.  That is all a Prometheus scraper, ``curl``, or a load
    balancer's health check needs.

    Routes: ``/metrics`` (text exposition 0.0.4), ``/healthz`` (JSON
    liveness).
    """

    def __init__(self, cache, protocol=None, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.cache = cache
        self.protocol = protocol
        self.host = host
        self.port = port
        self.scrapes = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "TelemetrySidecar":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_HEAD_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def close(self) -> None:
        if self._server is not None:
            self._server.close()

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    def render_metrics(self) -> str:
        """The ``/metrics`` body (sync: tests and the gate call it)."""
        return render_families(
            service_families(self.cache, protocol=self.protocol))

    def _route(self, path: str):
        if path == "/metrics":
            self.scrapes += 1
            return (200, "text/plain; version=0.0.4; charset=utf-8",
                    self.render_metrics())
        if path == "/healthz":
            return (200, "application/json",
                    json.dumps({"ok": True}) + "\n")
        return (404, "text/plain", "not found\n")

    # -- connection handling --------------------------------------------

    async def _request_line(self, reader: asyncio.StreamReader) -> List[str]:
        """The request line's words, from one bounded, timed read of the
        whole head."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), _HEAD_SECONDS)
        except asyncio.IncompleteReadError as exc:
            head = exc.partial  # half-closed instead of a blank line
        return head.split(b"\r\n", 1)[0].decode("latin-1").split()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            parts: List[str] = []
            try:
                parts = await self._request_line(reader)
                if not parts or parts[0] not in ("GET", "HEAD"):
                    status, ctype, body = 405, "text/plain", "GET only\n"
                else:
                    status, ctype, body = self._route(
                        parts[1] if len(parts) >= 2 else "")
            except asyncio.LimitOverrunError:
                status, ctype, body = (
                    400, "text/plain", "request head too large\n")
            except asyncio.TimeoutError:
                status, ctype, body = (
                    408, "text/plain", "request head not received\n")
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head if parts and parts[0] == "HEAD"
                         else head + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # a scraper that hung up mid-response costs nothing
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# DiskStore I/O probing
# ----------------------------------------------------------------------

def bind_store_probe(store, tracer: Tracer, registry=None):
    """Attach a timing probe to a :class:`DiskStore`.

    The store times its own journal + slab work (``t0_ns``/``t1_ns`` from
    ``time.monotonic_ns``) and calls the probe once per op.  The probe
    re-bases the interval onto the tracer's clock — identical in
    production, but it keeps a test's injected fake clock coherent —
    and records a ``store.{op}`` span plus a ``service.disk.{op}``
    nanosecond histogram sample.
    """
    def probe(op: str, t0_ns: int, t1_ns: int, nbytes: int) -> None:
        t1 = tracer.clock()
        t0 = t1 - (t1_ns - t0_ns)
        tracer.span_begin()
        tracer.span_end(f"store.{op}", t0, t1, nbytes=nbytes)
        if registry is not None:
            registry.wallclock_histogram(
                f"service.disk.{op}").add(t1_ns - t0_ns)

    store.probe = probe
    return probe
