"""Memcached text protocol for the DD cache service.

Implements the subset a stock memcached client library exercises:
``set``, ``get``/``gets`` (multi-key), ``delete``, ``flush_all``,
``stats``, ``version``, ``quit`` — plus ``noreply`` on mutations and
natural pipelining (commands are consumed from the stream back to back,
so a batch written in one TCP segment is answered in order).

One extension: ``tenant <name>`` switches the connection's namespace,
mapping it onto that tenant's DD container.  Connections start in the
``default`` tenant, so plain memcached clients work unmodified.

Error discipline follows memcached: unknown commands answer ``ERROR``,
malformed arguments answer ``CLIENT_ERROR``, an oversized body is *fully
consumed* and answered ``SERVER_ERROR object too large for cache`` so
the stream stays in sync; a ``set`` whose key exceeds 250 bytes is
drained the same way and answered ``CLIENT_ERROR key too long``, and a
``tenant`` naming one tenant too many answers ``SERVER_ERROR too many
tenants``.  An abrupt disconnect mid-body is not an error — the partial
command is simply discarded.
"""

from __future__ import annotations

# The handlers call ServiceCache/DiskStore synchronously on the event
# loop: those are bounded sub-ms blob+SQLite ops at memcached entry
# sizes, and a thread offload costs more than it buys — see the
# svc_tcp_* workloads of `python3 -m bench run`.

import asyncio
import time
from typing import Optional

from .cache import ServiceCache, SetStatus

__all__ = ["MemcacheProtocol", "DEFAULT_TENANT", "MAX_KEY_BYTES",
           "MAX_TENANTS", "MAX_VALUE_BYTES", "parse_stats"]

DEFAULT_TENANT = "default"
#: Stock memcached's default item-size ceiling.
MAX_VALUE_BYTES = 1 << 20
#: memcached's key-length ceiling; also applied to tenant names.
MAX_KEY_BYTES = 250
#: Distinct tenants one server will create: each is a ``Pool`` plus an
#: O(pools) entitlement recompute, so names from the wire must not mint
#: them without bound.
MAX_TENANTS = 1024

_CRLF = b"\r\n"
#: Read size while discarding the body of an oversized ``set``.
_DRAIN_CHUNK_BYTES = 64 * 1024

#: Commands with dedicated span names; anything else is ``cmd.unknown``
#: so a hostile client cannot balloon the tracer's span-name table.
_COMMANDS = frozenset((
    "set", "get", "gets", "delete", "flush_all", "stats", "version",
    "tenant", "quit",
))


def _fmt_stat(value: float) -> str:
    """Render one STAT value: integral stays ``int``, derived ratios
    keep their fraction (``parse_stats`` mirrors this)."""
    if float(value) == int(value):
        return str(int(value))
    return f"{value:.6g}"


class MemcacheProtocol:
    """Per-server protocol state: one instance handles every connection."""

    def __init__(self, cache: ServiceCache,
                 max_value_bytes: int = MAX_VALUE_BYTES,
                 tracer=None, ops_log=None) -> None:
        self.cache = cache
        self.max_value_bytes = max_value_bytes
        #: ERROR/CLIENT_ERROR/SERVER_ERROR replies sent (the load
        #: generator asserts this stays 0 on a clean run).
        self.protocol_errors = 0
        self.connections = 0
        self.ops = 0
        #: Optional :class:`repro.obs.live.LiveTracer` for conn/cmd spans.
        self.tracer = tracer
        #: Optional :class:`repro.obs.live.OpsLogger` for the slow-op log.
        self.ops_log = ops_log

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Serve one connection until EOF or ``quit``."""
        self.connections += 1
        tracer = self.tracer
        if tracer is None:
            await self._serve(reader, writer)
            return
        conn_id = self.connections
        tracer.instant("conn.accept", tracer.clock(), conn=conn_id)
        ops_before = self.ops
        with tracer.span("conn", conn=conn_id, ops=0) as span:
            try:
                await self._serve(reader, writer)
            finally:
                span.note(ops=self.ops - ops_before)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        tenant = DEFAULT_TENANT
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError,
                        ValueError):
                    break
                if not line:
                    break  # EOF
                line = line.rstrip(b"\r\n")
                if not line:
                    continue
                try:
                    parts = line.decode("utf-8").split()
                except UnicodeDecodeError:
                    if not await self._reply(
                            writer, b"CLIENT_ERROR malformed command\r\n",
                            error=True):
                        break
                    continue
                keep_going, tenant = await self._dispatch(
                    reader, writer, parts, tenant)
                if not keep_going:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- dispatch -------------------------------------------------------

    async def _dispatch(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        parts: list, tenant: str) -> tuple:
        """Run one command (span-wrapped); returns ``(keep_going, tenant)``."""
        tracer = self.tracer
        if tracer is None:
            return await self._run_command(reader, writer, parts, tenant)
        command = parts[0]
        name = f"cmd.{command}" if command in _COMMANDS else "cmd.unknown"
        with tracer.span(name, tenant=tenant):
            return await self._run_command(reader, writer, parts, tenant)

    async def _run_command(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           parts: list, tenant: str) -> tuple:
        command = parts[0]
        self.ops += 1
        if command == "set":
            ok = await self._cmd_set(reader, writer, parts[1:], tenant)
            return (ok, tenant)
        if command in ("get", "gets"):
            ok = await self._cmd_get(writer, parts[1:], tenant,
                                     with_cas=(command == "gets"))
            return (ok, tenant)
        if command == "delete":
            ok = await self._cmd_delete(writer, parts[1:], tenant)
            return (ok, tenant)
        if command == "flush_all":
            ok = await self._cmd_flush(writer, parts[1:], tenant)
            return (ok, tenant)
        if command == "stats":
            ok = await self._cmd_stats(writer, parts[1:], tenant)
            return (ok, tenant)
        if command == "version":
            ok = await self._reply(writer, b"VERSION repro-dd/1\r\n")
            return (ok, tenant)
        if command == "tenant":
            if len(parts) != 2 or len(parts[1].encode()) > MAX_KEY_BYTES:
                ok = await self._reply(
                    writer, b"CLIENT_ERROR usage: tenant <name>\r\n",
                    error=True)
                return (ok, tenant)
            if parts[1] not in self.cache.tenants:
                if len(self.cache.tenants) >= MAX_TENANTS:
                    ok = await self._reply(
                        writer, b"SERVER_ERROR too many tenants\r\n",
                        error=True)
                    return (ok, tenant)
                # Claim the slot now (no await since the check), so
                # concurrent connections cannot overshoot the cap.
                self.cache.pool(parts[1])
            ok = await self._reply(writer, b"OK\r\n")
            return (ok, parts[1])
        if command == "quit":
            return (False, tenant)
        ok = await self._reply(writer, b"ERROR\r\n", error=True)
        return (ok, tenant)

    # -- commands -------------------------------------------------------

    async def _cmd_set(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       args: list, tenant: str) -> bool:
        noreply = bool(args) and args[-1] == "noreply"
        if noreply:
            args = args[:-1]
        if len(args) != 4:
            return await self._reply(
                writer, b"CLIENT_ERROR bad command line format\r\n",
                error=True, suppress=noreply)
        key = args[0]
        try:
            flags = int(args[1])
            int(args[2])  # exptime accepted and ignored (no TTL support)
            nbytes = int(args[3])
            if nbytes < 0 or flags < 0:
                raise ValueError
        except ValueError:
            return await self._reply(
                writer, b"CLIENT_ERROR bad command line format\r\n",
                error=True, suppress=noreply)

        key_too_long = len(key.encode()) > MAX_KEY_BYTES
        oversized = nbytes > self.max_value_bytes
        try:
            if oversized or key_too_long:
                # Never buffer what will be refused: consume the declared
                # body in bounded chunks so the stream stays in sync.
                remaining = nbytes + 2
                while remaining:
                    chunk = min(remaining, _DRAIN_CHUNK_BYTES)
                    await reader.readexactly(chunk)
                    remaining -= chunk
            else:
                body = await reader.readexactly(nbytes + 2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False  # abrupt disconnect mid-body: discard quietly
        if key_too_long:
            return await self._reply(
                writer, b"CLIENT_ERROR key too long\r\n",
                error=True, suppress=noreply)
        if oversized:
            return await self._reply(
                writer, b"SERVER_ERROR object too large for cache\r\n",
                error=True, suppress=noreply)
        if not body.endswith(_CRLF):
            return await self._reply(
                writer, b"CLIENT_ERROR bad data chunk\r\n",
                error=True, suppress=noreply)

        t0 = time.perf_counter_ns()
        status = self.cache.set(tenant, key, body[:-2], flags)
        self._observe("set", t0, tenant)
        if status == SetStatus.STORED:
            return await self._reply(writer, b"STORED\r\n",
                                     suppress=noreply)
        if status == SetStatus.TOO_LARGE:
            return await self._reply(
                writer, b"SERVER_ERROR object too large for cache\r\n",
                error=True, suppress=noreply)
        return await self._reply(writer, b"NOT_STORED\r\n",
                                 suppress=noreply)

    async def _cmd_get(self, writer: asyncio.StreamWriter, keys: list,
                       tenant: str, with_cas: bool) -> bool:
        if not keys:
            return await self._reply(
                writer, b"CLIENT_ERROR get requires a key\r\n", error=True)
        chunks = []
        for key in keys:
            t0 = time.perf_counter_ns()
            found = self.cache.get(tenant, key)
            self._observe("get", t0, tenant)
            if found is None:
                continue
            value, flags, cas = found
            header = f"VALUE {key} {flags} {len(value)}"
            if with_cas:
                header += f" {cas}"
            chunks.append(header.encode("utf-8") + _CRLF + value + _CRLF)
        chunks.append(b"END\r\n")
        return await self._reply(writer, b"".join(chunks))

    async def _cmd_delete(self, writer: asyncio.StreamWriter, args: list,
                          tenant: str) -> bool:
        noreply = bool(args) and args[-1] == "noreply"
        if noreply:
            args = args[:-1]
        if len(args) != 1:
            return await self._reply(
                writer, b"CLIENT_ERROR usage: delete <key> [noreply]\r\n",
                error=True, suppress=noreply)
        t0 = time.perf_counter_ns()
        deleted = self.cache.delete(tenant, args[0])
        self._observe("delete", t0, tenant)
        return await self._reply(
            writer, b"DELETED\r\n" if deleted else b"NOT_FOUND\r\n",
            suppress=noreply)

    async def _cmd_flush(self, writer: asyncio.StreamWriter, args: list,
                         tenant: str) -> bool:
        noreply = bool(args) and args[-1] == "noreply"
        self.cache.flush_all(tenant)
        return await self._reply(writer, b"OK\r\n", suppress=noreply)

    async def _cmd_stats(self, writer: asyncio.StreamWriter,
                         args: list, tenant: str) -> bool:
        if args == ["tenants"]:
            return await self._cmd_stats_tenants(writer)
        if args:
            return await self._reply(
                writer, b"CLIENT_ERROR usage: stats [tenants]\r\n",
                error=True)
        lines = []
        snapshot = self.cache.stats()
        for scope in sorted(snapshot):
            fields = dict(snapshot[scope])
            if scope != "_host":
                gets = fields.get("gets", 0)
                fields["hit_ratio"] = (
                    fields.get("get_hits", 0) / gets if gets else 0.0)
            for field in sorted(fields):
                lines.append(
                    f"STAT {scope}:{field} {_fmt_stat(fields[field])}\r\n")
        for op in ("get", "set", "delete"):
            hist = self.cache.registry.wallclock_histogram(
                f"service.lat.{op}")
            if hist.count:
                lines.append(
                    f"STAT lat:{op}:p50_ns {int(hist.quantile(0.5))}\r\n")
                lines.append(
                    f"STAT lat:{op}:p99_ns {int(hist.quantile(0.99))}\r\n")
        lines.append("END\r\n")
        return await self._reply(writer, "".join(lines).encode("utf-8"))

    async def _cmd_stats_tenants(self, writer: asyncio.StreamWriter) -> bool:
        """``stats tenants``: the per-tenant breakdown over the wire —
        ledger counters plus derived hit ratio, stored bytes, and each
        tenant's share of the host's occupied blocks."""
        lines = []
        snapshot = self.cache.stats()
        host = snapshot.pop("_host", {})
        host_used = host.get("used_blocks", 0)
        stored_bytes = self.cache.store.tenant_bytes()
        for tenant in sorted(snapshot):
            fields = dict(snapshot[tenant])
            gets = fields.get("gets", 0)
            fields["hit_ratio"] = (
                fields.get("get_hits", 0) / gets if gets else 0.0)
            fields["bytes"] = stored_bytes.get(tenant, 0)
            fields["occupancy_share"] = (
                fields.get("used_blocks", 0) / host_used if host_used
                else 0.0)
            for field in sorted(fields):
                lines.append(
                    f"STAT {tenant}:{field} {_fmt_stat(fields[field])}\r\n")
        lines.append("END\r\n")
        return await self._reply(writer, "".join(lines).encode("utf-8"))

    # -- plumbing -------------------------------------------------------

    def _observe(self, op: str, t0_ns: int, tenant: str) -> None:
        duration = time.perf_counter_ns() - t0_ns
        self.cache.registry.wallclock_histogram(
            f"service.lat.{op}").add(duration)
        if self.ops_log is not None:
            self.ops_log.slow_op(op, tenant, duration)

    async def _reply(self, writer: asyncio.StreamWriter, payload: bytes,
                     error: bool = False, suppress: bool = False) -> bool:
        """Send a reply (unless ``noreply`` suppressed it); False means
        the connection died and the caller should stop."""
        if error:
            self.protocol_errors += 1
        if suppress:
            return True
        try:
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True


def parse_stats(payload: str) -> dict:
    """Parse a ``stats`` reply (client-side helper).

    Counter values come back ``int``, derived values (hit ratios,
    occupancy shares — anything with a fraction) come back ``float``,
    and a value that is neither survives as the raw string rather than
    raising mid-parse.
    """
    out: dict = {}
    for line in payload.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[0] != "STAT":
            continue
        raw = parts[2]
        try:
            out[parts[1]] = int(raw)
        except ValueError:
            try:
                out[parts[1]] = float(raw)
            except ValueError:
                out[parts[1]] = raw
    return out
