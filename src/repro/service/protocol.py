"""Memcached text protocol for the DD cache service.

Implements the subset a stock memcached client library exercises:
``set``, ``get``/``gets`` (multi-key), ``delete``, ``flush_all``,
``stats``, ``version``, ``quit`` — plus ``noreply`` on mutations and
pipelining (a batch written in one TCP segment is answered in order).
One extension: ``tenant <name>`` switches the connection's namespace,
mapping it onto that tenant's DD container; connections start in the
``default`` tenant, so plain memcached clients work unmodified.

Error discipline follows memcached: unknown commands answer ``ERROR``,
malformed arguments ``CLIENT_ERROR``; the body of a ``set`` that is too
large, or whose key exceeds 250 bytes, is *fully consumed* before the
``SERVER_ERROR object too large for cache`` / ``CLIENT_ERROR key too
long`` reply, so the stream stays in sync; one tenant too many answers
``SERVER_ERROR too many tenants``.  An abrupt disconnect mid-body is not
an error — the partial command is simply discarded.

Each connection is one :class:`asyncio.BufferedProtocol`; its parser
state is which buffer it hands the transport:

* **command** — the connection's 64 KiB buffer.  One pass runs *every*
  complete command in it and moves the unfinished tail to the front.
  The buffer bounds a line (filling it without a newline closes the
  connection) and the work of one callback, the fairness unit.
* **awaiting-body** — a storable ``set`` whose body is not all here gets
  a buffer of the declared size and the transport reads straight into
  it: no join or re-scan per segment, and never past the body.
* **skip-n** — a body that will be refused is counted off as it arrives
  and never kept; the owed reply is sent, and counted as a protocol
  error, when its last byte is gone.

Replies collect in a list and go to the transport in one ``write`` per
pass, earlier once 64 KiB are pending.  If that write takes the
transport over its high-water mark (``pause_writing``) the pass stops,
the unparsed tail stays and reading pauses until ``resume_writing``: a
client that pipelines and never reads makes the server buffer at most
the high-water mark plus one flush.
"""

from __future__ import annotations

# Commands call ServiceCache/DiskStore synchronously on the event loop:
# those are bounded sub-ms journal+slab ops at memcached entry sizes, and
# a thread offload costs more than it buys — see the svc_tcp_* workloads
# of `python3 -m bench run`.

import asyncio
import time
from typing import Any, List, Optional, Set

from .cache import ServiceCache, SetStatus

__all__ = ["MemcacheProtocol", "DEFAULT_TENANT", "IDLE_SECONDS",
           "MAX_CONNECTIONS", "MAX_KEY_BYTES", "MAX_TENANTS",
           "MAX_VALUE_BYTES", "parse_stats"]

DEFAULT_TENANT = "default"
#: Stock memcached's default item-size ceiling.
MAX_VALUE_BYTES = 1 << 20
#: memcached's key-length ceiling; also applied to tenant names.
MAX_KEY_BYTES = 250
#: Distinct tenants one server will create: each is a ``Pool`` plus an
#: O(pools) entitlement recompute, so names from the wire must not mint
#: them without bound.
MAX_TENANTS = 1024
#: Open connections one server keeps (each owns a 64 KiB buffer); one
#: more is answered ``SERVER_ERROR too many connections`` and closed.
MAX_CONNECTIONS = 1024
#: A connection that read nothing for one to two of these is dropped.
IDLE_SECONDS = 300.0

_CRLF = b"\r\n"
_BUFFER_BYTES = 64 * 1024  # receive buffer: longest line, input of one pass
_FLUSH_BYTES = 64 * 1024  # pending replies that force a write mid-pass
_TOO_LARGE = b"SERVER_ERROR object too large for cache\r\n"
_SET_REPLIES = {SetStatus.STORED: b"STORED\r\n", SetStatus.TOO_LARGE: _TOO_LARGE,
                SetStatus.NOT_STORED: b"NOT_STORED\r\n"}
_SET = ("set",)  # `parts` of the pending set: only the name is needed

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
    """Per-server protocol state; :meth:`connection` is the factory
    ``loop.create_server`` calls for each accepted socket."""

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
        #: Optional clocked :class:`repro.obs.Tracer` for conn/cmd spans.
        self.tracer = tracer
        #: Optional :class:`repro.obs.live.OpsLogger` for the slow-op log.
        self.ops_log = ops_log
        #: Open connections: the cap counts them, the sweep and
        #: :meth:`close` walk them.
        self.live: Set["_Connection"] = set()
        self._latency = {
            op: cache.registry.wallclock_histogram(f"service.lat.{op}")
            for op in ("get", "set", "delete")}
        self._sweep: Optional[asyncio.TimerHandle] = None

    def connection(self) -> "_Connection":
        return _Connection(self)

    def sweep_idle(self) -> None:
        """Drop every connection that read nothing since the last sweep
        and re-arm: one timer per server, none on the request path."""
        for conn in list(self.live):
            if not conn.active:
                conn.transport.abort()  # its unread replies go with it
            conn.active = False
        self._sweep = asyncio.get_running_loop().call_later(
            IDLE_SECONDS, self.sweep_idle)

    def close(self) -> None:
        """Stop the sweep and drop every connection."""
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        for conn in list(self.live):
            conn.transport.abort()

    def observe(self, op: str, t0_ns: int, tenant: str) -> None:
        duration = time.perf_counter_ns() - t0_ns
        self._latency[op].add(duration)
        if self.ops_log is not None:
            self.ops_log.slow_op(op, tenant, duration)

    def stats(self, by_tenant: bool) -> bytes:
        """``stats``: every scope's counters plus the latency quantiles;
        ``stats tenants``: the per-tenant breakdown — ledger counters,
        stored bytes and each tenant's share of the occupied blocks."""
        snapshot = self.cache.stats()
        host_used = snapshot["_host"].get("used_blocks", 0)
        stored_bytes = self.cache.store.tenant_bytes() if by_tenant else {}
        if by_tenant:
            del snapshot["_host"]
        lines = []
        for scope in sorted(snapshot):
            fields = dict(snapshot[scope])
            if scope != "_host":
                gets = fields.get("gets", 0)
                fields["hit_ratio"] = (
                    fields.get("get_hits", 0) / gets if gets else 0.0)
            if by_tenant:
                fields["bytes"] = stored_bytes.get(scope, 0)
                fields["occupancy_share"] = (
                    fields.get("used_blocks", 0) / host_used if host_used
                    else 0.0)
            for field in sorted(fields):
                lines.append(
                    f"STAT {scope}:{field} {_fmt_stat(fields[field])}\r\n")
        if not by_tenant:
            for op, hist in self._latency.items():
                if hist.count:
                    lines.append(
                        f"STAT lat:{op}:p50_ns {int(hist.quantile(0.5))}\r\n")
                    lines.append(
                        f"STAT lat:{op}:p99_ns {int(hist.quantile(0.99))}\r\n")
        lines.append("END\r\n")
        return "".join(lines).encode("utf-8")


class _Connection(asyncio.BufferedProtocol):
    """One client connection: parser state and the pending replies."""

    def __init__(self, server: MemcacheProtocol) -> None:
        self._server = server
        self._cache = server.cache
        self._tenant = DEFAULT_TENANT
        self._buf = bytearray(_BUFFER_BYTES)
        self._view = memoryview(self._buf)
        self._end = 0           # _buf[:_end] is input not yet parsed
        self._need = 0          # body bytes of the pending set still to come
        self._body: Optional[bytearray] = None  # ... into here; None: skipped
        self._pending: tuple = ()  # that set: (key, flags, noreply, refusal)
        self._out: List[bytes] = []  # replies not yet handed to the transport
        self._out_bytes = 0
        self._paused = False    # the transport is above its high-water mark
        self._span: Any = None
        self._ops_before = 0
        #: Read something since the last idle sweep.
        self.active = True
        self.transport: Any = None

    # -- transport callbacks --------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        server = self._server
        self.transport = transport
        server.connections += 1
        if len(server.live) >= MAX_CONNECTIONS:
            server.protocol_errors += 1
            self.transport.write(b"SERVER_ERROR too many connections\r\n")
            self.transport.close()
            return
        server.live.add(self)
        tracer = server.tracer
        if tracer is not None:
            tracer.instant("conn.accept", tracer.clock(),
                           conn=server.connections)
            self._ops_before = server.ops
            self._span = tracer.span("conn", conn=server.connections, ops=0)
            self._span.__enter__()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server.live.discard(self)
        if self._span is not None:
            self._span.note(ops=self._server.ops - self._ops_before)
            self._span.__exit__(None, None, None)

    def get_buffer(self, sizehint: int) -> memoryview:
        need = self._need
        if not need:
            return self._view[self._end:]
        if self._body is None:
            return self._view[:min(need, _BUFFER_BYTES)]
        return memoryview(self._body)[-need:]

    def buffer_updated(self, nbytes: int) -> None:
        self.active = True
        if not self._need:
            self._end += nbytes
            self._parse()
            return
        self._need -= nbytes
        if not self._need:
            self._run(_SET)
            self._flush()

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self.active = True  # a slow reader is not an idle one
        if not self.transport.is_closing():
            self.transport.resume_reading()
            self._parse()

    # -- parsing --------------------------------------------------------

    def _parse(self) -> None:
        """Run every complete command in ``_buf[:_end]``, keep the tail."""
        buf, end, pos = self._buf, self._end, 0
        while not self._paused:
            newline = buf.find(b"\n", pos, end)
            if newline < 0:
                if end - pos == _BUFFER_BYTES:  # a line longer than the buffer
                    self.transport.close()
                break
            try:
                parts = buf[pos:newline].decode("utf-8").split()
            except UnicodeDecodeError:
                parts = None
            pos = newline + 1
            if parts is None:
                self._reply(b"CLIENT_ERROR malformed command\r\n", error=True)
            elif not parts:
                continue
            elif parts[0] == "set":
                pos = self._begin_set(parts, pos, end)
            elif not self._run(parts):
                self._flush()
                self.transport.close()  # quit: nothing after it is run
                return
            if self._out_bytes >= _FLUSH_BYTES:
                self._flush()
        self._flush()
        if pos:
            self._end = end - pos
            self._view[:self._end] = self._view[pos:end]

    def _begin_set(self, parts: list, pos: int, end: int) -> int:
        """Parse the ``set`` header that ends at ``pos``: run the command
        if its body is all in the buffer, else enter awaiting-body or
        skip-n.  Returns the position after what it consumed."""
        args = parts[1:]
        noreply = args[-1:] == ["noreply"]
        if noreply:
            args = args[:-1]
        key, flags, need = "", 0, 0
        refusal: Optional[bytes] = b"CLIENT_ERROR bad command line format\r\n"
        try:
            if len(args) == 4:
                flags, nbytes = int(args[1]), int(args[3])
                int(args[2])  # exptime accepted and ignored (no TTL support)
                if flags >= 0 and nbytes >= 0:
                    key, need = args[0], nbytes + 2
                    if len(key.encode()) > MAX_KEY_BYTES:
                        refusal = b"CLIENT_ERROR key too long\r\n"
                    elif nbytes > self._server.max_value_bytes:
                        refusal = _TOO_LARGE
                    else:
                        refusal = None
        except ValueError:
            pass
        self._pending = (key, flags, noreply, refusal)
        have = min(need, end - pos)
        self._need = need - have
        if refusal is None:  # else never buffer what will be refused
            self._body = bytearray(need)
            self._body[:have] = self._view[pos:pos + have]
        if not self._need:
            self._run(_SET)
        return pos + have

    def _run(self, parts) -> bool:
        """Execute one complete command (span-wrapped); False on ``quit``."""
        tracer = self._server.tracer
        if tracer is None:
            return self._execute(parts)
        command = parts[0]
        name = f"cmd.{command}" if command in _COMMANDS else "cmd.unknown"
        with tracer.span(name, tenant=self._tenant):
            return self._execute(parts)

    def _execute(self, parts) -> bool:
        self._server.ops += 1
        command = parts[0]
        if command == "get" or command == "gets":
            self._cmd_get(parts[1:], with_cas=(command == "gets"))
        elif command == "set":
            self._cmd_set()
        elif command == "delete":
            self._cmd_delete(parts[1:])
        elif command == "flush_all":
            self._cache.flush_all(self._tenant)
            self._reply(b"OK\r\n", suppress=parts[-1] == "noreply")
        elif command == "stats":
            if len(parts) == 1 or parts[1:] == ["tenants"]:
                self._reply(self._server.stats(by_tenant=len(parts) > 1))
            else:
                self._reply(b"CLIENT_ERROR usage: stats [tenants]\r\n",
                            error=True)
        elif command == "version":
            self._reply(b"VERSION repro-dd/1\r\n")
        elif command == "tenant":
            self._cmd_tenant(parts)
        elif command == "quit":
            return False
        else:
            self._reply(b"ERROR\r\n", error=True)
        return True

    # -- commands -------------------------------------------------------

    def _cmd_set(self) -> None:
        """The pending set, its body all here (``_body``: the declared
        bytes plus terminator) or, refused at the header, all skipped."""
        key, flags, noreply, refusal = self._pending
        body, self._body = self._body, None
        if body is None:
            return self._reply(refusal, error=True, suppress=noreply)
        if not body.endswith(_CRLF):
            return self._reply(b"CLIENT_ERROR bad data chunk\r\n",
                               error=True, suppress=noreply)
        t0 = time.perf_counter_ns()
        value = bytes(memoryview(body)[:-2])  # the body's only copy
        status = self._cache.set(self._tenant, key, value, flags)
        self._server.observe("set", t0, self._tenant)
        self._reply(_SET_REPLIES[status], error=status == SetStatus.TOO_LARGE,
                    suppress=noreply)

    def _cmd_get(self, keys: list, with_cas: bool) -> None:
        if not keys:
            return self._reply(b"CLIENT_ERROR get requires a key\r\n",
                               error=True)
        tenant, out, observe = self._tenant, self._out, self._server.observe
        for key in keys:
            t0 = time.perf_counter_ns()
            found = self._cache.get(tenant, key)
            observe("get", t0, tenant)
            if found is None:
                continue
            value, flags, cas = found
            header = f"VALUE {key} {flags} {len(value)}"
            if with_cas:
                header += f" {cas}"
            head = header.encode("utf-8") + _CRLF
            out += (head, value, _CRLF)  # the value is copied once, at flush
            self._out_bytes += len(head) + len(value) + 2
        self._reply(b"END\r\n")

    def _cmd_delete(self, args: list) -> None:
        noreply = args[-1:] == ["noreply"]
        if noreply:
            args = args[:-1]
        if len(args) != 1:
            return self._reply(
                b"CLIENT_ERROR usage: delete <key> [noreply]\r\n",
                error=True, suppress=noreply)
        t0 = time.perf_counter_ns()
        deleted = self._cache.delete(self._tenant, args[0])
        self._server.observe("delete", t0, self._tenant)
        self._reply(b"DELETED\r\n" if deleted else b"NOT_FOUND\r\n",
                    suppress=noreply)

    def _cmd_tenant(self, parts: list) -> None:
        if len(parts) != 2 or len(parts[1].encode()) > MAX_KEY_BYTES:
            return self._reply(b"CLIENT_ERROR usage: tenant <name>\r\n",
                               error=True)
        if parts[1] not in self._cache.tenants:
            if len(self._cache.tenants) >= MAX_TENANTS:
                return self._reply(b"SERVER_ERROR too many tenants\r\n",
                                   error=True)
            self._cache.pool(parts[1])  # naming a tenant claims its slot
        self._tenant = parts[1]
        self._reply(b"OK\r\n")

    # -- plumbing -------------------------------------------------------

    def _reply(self, payload: bytes, error: bool = False,
               suppress: bool = False) -> None:
        """Queue a reply (unless ``noreply`` suppressed it)."""
        if error:
            self._server.protocol_errors += 1
        if not suppress:
            self._out.append(payload)
            self._out_bytes += len(payload)

    def _flush(self) -> None:
        """One ``transport.write`` for everything queued; the transport
        may call :meth:`pause_writing` before it returns."""
        if self._out:
            payload = b"".join(self._out)
            self._out.clear()
            self._out_bytes = 0
            self.transport.write(payload)


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
