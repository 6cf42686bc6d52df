"""The benchmark's own memcached client: blocking sockets, one thread.

It lives outside ``src/`` on purpose — a change to the program cannot
speed up the load generator.  Every reply is verified: a hit must equal,
byte for byte, the last value this client saw acknowledged ``STORED``
for that key, and the server's ``stats`` counters must reconcile with
what the client sent.  Everything that fails lands in :class:`Account`.

Closed loop with two connections, each with one request (or one
16-command batch) outstanding.  The single thread alternates between
them: while it blocks on connection A's reply, connection B's request is
already queued at the server, so the server never waits for the client.
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Callable, Dict, Generator, Iterable, List, Optional

from .calibrate import factor, sample
from .inputs import TcpInputs, key_name, payload
from .metrics import percentile, upper_quartile

_now = time.perf_counter_ns


class Account:
    """Attempted checks and failures by kind (feeds ``fail_ratio``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    def check(self, ok: bool, kind: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(kind)
        return ok

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class KeyModel:
    """What one tenant's keys must read back as: the version last
    acknowledged ``STORED`` per key (absent = never stored)."""

    def __init__(self, buffer: bytes, account: Account) -> None:
        self.buffer = buffer
        self.account = account
        self.versions: Dict[str, int] = {}
        self.sizes: Dict[str, int] = {}
        self.gets = 0
        self.hits = 0
        self.sets = 0
        self.stored = 0

    def reset_counters(self) -> None:
        """Start counting afresh (the server was restarted, so its
        ``stats`` counters are zero again); what is stored stays."""
        self.gets = self.hits = self.sets = self.stored = 0

    def next_value(self, key: str, size: int) -> bytes:
        """The value to send for the next ``set`` of ``key``."""
        return payload(self.buffer, key, self.versions.get(key, 0) + 1, size)

    def on_set_reply(self, key: str, size: int, stored: bool) -> None:
        self.sets += 1
        self.account.attempted += 1
        if stored:
            self.stored += 1
            self.versions[key] = self.versions.get(key, 0) + 1
            self.sizes[key] = size
        else:
            self.account.fail("not_stored")

    def on_delete(self, key: str) -> None:
        """The key is gone (its version counter survives, so a later
        set never reuses a payload)."""
        self.sizes.pop(key, None)

    def on_get_reply(self, key: str, value: Optional[bytes]) -> bool:
        """Verify one get; returns True on a hit.  A miss is legal (the
        cache may evict); a payload that is not the last stored version
        of this key is a failure."""
        self.gets += 1
        self.account.attempted += 1
        if value is None:
            return False
        self.hits += 1
        size = self.sizes.get(key)
        if size is None or value != payload(
                self.buffer, key, self.versions[key], size):
            self.account.fail("wrong_payload")
        return True


class Conn:
    """One blocking connection bound to a tenant."""

    def __init__(self, port: int, tenant: str, account: Account) -> None:
        self.account = account
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb", buffering=1 << 16)
        self.send = self.sock.sendall
        self.send(f"tenant {tenant}\r\n".encode("ascii"))
        self.expect(b"OK\r\n")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def expect(self, line: bytes) -> bool:
        got = self.rfile.readline()
        if got != line:
            self.account.fail("protocol_error")
            return False
        return True

    def read_value(self) -> Optional[bytes]:
        """Reply to a single-key ``get``: the value, or None on a miss."""
        head = self.rfile.readline()
        if head == b"END\r\n":
            return None
        parts = head.split()
        if len(parts) != 4 or parts[0] != b"VALUE":
            self.account.fail("protocol_error")
            return None
        body = self.rfile.read(int(parts[3]) + 2)
        if body[-2:] != b"\r\n" or self.rfile.readline() != b"END\r\n":
            self.account.fail("protocol_error")
            return None
        return body[:-2]

    def read_stored(self) -> bool:
        line = self.rfile.readline()
        if line == b"STORED\r\n":
            return True
        if line != b"NOT_STORED\r\n":
            self.account.fail("protocol_error")
        return False

    def stats(self, arg: str = "") -> Dict[str, float]:
        """``stats`` / ``stats tenants`` as ``{"scope:field": number}``."""
        self.send(f"stats {arg}".strip().encode("ascii") + b"\r\n")
        out: Dict[str, float] = {}
        while True:
            line = self.rfile.readline()
            if line == b"END\r\n":
                return out
            parts = line.split()
            if len(parts) != 3 or parts[0] != b"STAT":
                self.account.fail("protocol_error")
                return out
            out[parts[1].decode("ascii")] = float(parts[2])


def set_command(key: str, value: bytes) -> bytes:
    return b"set %s 0 0 %d\r\n%s\r\n" % (key.encode("ascii"), len(value), value)


def get_command(key: str) -> bytes:
    return b"get %s\r\n" % key.encode("ascii")


def preload(conn: Conn, model: KeyModel, ranks: Iterable[int], size: int,
            depth: int = 64) -> None:
    """Pipelined verified sets (untimed set-up)."""
    batch: List[str] = []

    def flush() -> None:
        conn.send(b"".join(
            set_command(key, model.next_value(key, size)) for key in batch))
        for key in batch:
            model.on_set_reply(key, size, conn.read_stored())
        batch.clear()

    for rank in ranks:
        batch.append(key_name(rank))
        if len(batch) == depth:
            flush()
    if batch:
        flush()


def alternate(steppers: List[Generator[None, None, None]]) -> None:
    """Round-robin the per-connection state machines.  Each yields right
    after sending, and is resumed when it is its turn to read."""
    done = object()
    live = list(steppers)
    while live:
        live = [stepper for stepper in live if next(stepper, done) is not done]


class Timed:
    """One timed phase, cut into slices with a calibration point between
    them (see :mod:`bench.calibrate`).  Steppers append raw ns samples
    to ``get_ns`` / ``set_ns`` / ``batch_ns``; :meth:`close_slice` files
    them, raw and calibrated."""

    KINDS = ("get", "set", "batch")

    def __init__(self) -> None:
        self.get_ns: List[int] = []
        self.set_ns: List[int] = []
        self.batch_ns: List[int] = []
        self.ops = 0
        self.wall_ns = 0
        self.client_cpu_ns = 0
        self.calibrated_wall_ns = 0.0
        self.raw: Dict[str, List[int]] = {kind: [] for kind in self.KINDS}
        self.calibrated: Dict[str, List[float]] = {
            kind: [] for kind in self.KINDS}
        self.kernel_ns: List[int] = [sample()]
        self.slice_rates: List[float] = []  # calibrated ops/s per slice
        self._filed_ops = 0

    def close_slice(self, wall_ns: int) -> None:
        self.kernel_ns.append(sample())
        scale = factor((self.kernel_ns[-2] + self.kernel_ns[-1]) / 2)
        self.wall_ns += wall_ns
        self.calibrated_wall_ns += wall_ns * scale
        self.slice_rates.append(
            (self.ops - self._filed_ops) * 1e9 / (wall_ns * scale))
        self._filed_ops = self.ops
        for kind in self.KINDS:
            samples = getattr(self, f"{kind}_ns")
            self.raw[kind] += samples
            self.calibrated[kind] += [ns * scale for ns in samples]
            samples.clear()

    def summary(self) -> dict:
        """Calibrated throughput and latency percentiles (the raw ones
        under ``raw_``), with the sample count beside each percentile.
        Throughput is the upper-quartile slice's: what disturbs a slice
        (a stall shorter than the calibration interval, a neighbour's
        burst) only ever slows it, so the upper quartile estimates the
        undisturbed rate without trusting a single lucky slice."""
        out = {
            "ops": self.ops, "wall_s": self.calibrated_wall_ns / 1e9,
            "raw_wall_s": self.wall_ns / 1e9,
            "ops_per_s": upper_quartile(self.slice_rates),
            "raw_ops_per_s": self.ops * 1e9 / self.wall_ns,
            "kernel_ms": statistics.median(self.kernel_ns) / 1e6,
        }
        for kind in self.KINDS:
            if not self.raw[kind]:
                continue
            for prefix, samples in (("", self.calibrated[kind]),
                                    ("raw_", self.raw[kind])):
                samples.sort()
                out[f"{prefix}{kind}_p50_us"] = percentile(samples, 0.5)
                out[f"{prefix}{kind}_p99_us"] = percentile(samples, 0.99)
            out[f"{kind}_samples"] = len(self.raw[kind])
        return out


def _get_requests(ranks: List[int]) -> List[tuple]:
    """(key, encoded get) pairs, built before the clock starts."""
    keys = [key_name(rank) for rank in ranks]
    return [(key, get_command(key)) for key in keys]


def hot_stepper(conn: Conn, model: KeyModel, requests: List[tuple],
                timed: Timed) -> Generator[None, None, None]:
    for key, request in requests:
        t0 = _now()
        conn.send(request)
        yield
        value = conn.read_value()
        timed.get_ns.append(_now() - t0)
        timed.ops += 1
        model.on_get_reply(key, value)


def readthrough_stepper(conn: Conn, model: KeyModel, requests: List[tuple],
                        size: int, timed: Timed,
                        tick: Optional[Callable[[], None]] = None,
                        ) -> Generator[None, None, None]:
    """``get``; on a miss, ``set`` the key, as a read-through caller
    does.  ``tick`` runs between requests (the telemetry scraper)."""
    for key, request in requests:
        t0 = _now()
        conn.send(request)
        yield
        value = conn.read_value()
        timed.get_ns.append(_now() - t0)
        timed.ops += 1
        if not model.on_get_reply(key, value):
            command = set_command(key, model.next_value(key, size))
            t0 = _now()
            conn.send(command)
            yield
            stored = conn.read_stored()
            timed.set_ns.append(_now() - t0)
            timed.ops += 1
            model.on_set_reply(key, size, stored)
        if tick is not None:
            tick()


def pipelined_stepper(conn: Conn, model: KeyModel, batches, size: int,
                      timed: Timed) -> Generator[None, None, None]:
    """One ``sendall`` of 16 commands, then 16 replies."""
    for is_set, ranks in batches:
        keys = [key_name(rank) for rank in ranks]
        if is_set:
            # Duplicate keys in one batch take consecutive versions.
            commands, ahead = [], {}
            for key in keys:
                ahead[key] = ahead.get(key, 0) + 1
                version = model.versions.get(key, 0) + ahead[key]
                commands.append(set_command(
                    key, payload(model.buffer, key, version, size)))
        else:
            commands = [get_command(key) for key in keys]
        request = b"".join(commands)
        t0 = _now()
        conn.send(request)
        yield
        if is_set:
            replies = [conn.read_stored() for _ in keys]
        else:
            replies = [conn.read_value() for _ in keys]
        timed.batch_ns.append(_now() - t0)
        timed.ops += len(keys)
        for key, reply in zip(keys, replies):
            if is_set:
                model.on_set_reply(key, size, reply)
            else:
                model.on_get_reply(key, reply)


def run_timed(workload: str, conns: List[Conn], models: List[KeyModel],
              inputs: TcpInputs, slice_len: int,
              tick: Optional[Callable[[], None]] = None) -> Timed:
    """Replay the op streams, ``slice_len`` requests (or batches) per
    connection per slice."""
    timed = Timed()
    size = inputs.value_bytes
    if workload == "svc_tcp_hot":
        work = [_get_requests(ranks) for ranks in inputs.ops]

        def stepper(conn, model, part):
            return hot_stepper(conn, model, part, timed)
    elif workload == "svc_tcp_pipelined":
        work = inputs.batches

        def stepper(conn, model, part):
            return pipelined_stepper(conn, model, part, size, timed)
    elif workload == "svc_tcp_readthrough":
        work = [_get_requests(ranks) for ranks in inputs.ops]

        def stepper(conn, model, part):
            return readthrough_stepper(conn, model, part, size, timed, tick)
    else:
        raise ValueError(f"not a TCP workload: {workload}")
    for start in range(0, max(len(items) for items in work), slice_len):
        steppers = [stepper(conn, model, items[start:start + slice_len])
                    for conn, model, items in zip(conns, models, work)]
        cpu0, started = time.process_time_ns(), _now()
        alternate(steppers)
        wall_ns = _now() - started
        timed.client_cpu_ns += time.process_time_ns() - cpu0
        timed.close_slice(wall_ns)
    return timed


def totals(models: List[KeyModel]) -> tuple:
    """(gets, hits, sets) over all tenants; subtract two of these to
    count one phase."""
    return (sum(m.gets for m in models), sum(m.hits for m in models),
            sum(m.sets for m in models))


def cache_counters(stats: Dict[str, float], warm: Dict[str, float],
                   tenants: List[str], sets: int, usage: dict) -> tuple:
    """Per-layer counters read from public stats (``"tenant:field"``
    keys) and the store directory, and the blocks evicted in the timed
    phase: ``warm`` is the snapshot taken when it began, ``sets`` the
    sets issued since."""
    evicted = sum(stats[f"{t}:evictions"] - warm[f"{t}:evictions"]
                  for t in tenants)
    return evicted, {
        "service.cache.evicted_blocks_per_set": evicted / sets if sets else 0.0,
        "service.cache.puts_rejected": sum(
            stats[f"{t}:put_rejected_admission"]
            + stats[f"{t}:put_rejected_capacity"] for t in tenants),
        "service.store.entries": stats["_host:entries"],
        "service.store.disk_bytes": usage["logical"],
        "service.store.wal_bytes": usage["wal"],
    }


def reconcile(stats: Dict[str, float], tenants: List[str],
              models: List[KeyModel], account: Account) -> None:
    """The server's per-tenant counters must equal what this client
    sent and saw since the server started."""
    for tenant, model in zip(tenants, models):
        for field, mine in (("gets", model.gets), ("get_hits", model.hits),
                            ("puts", model.sets),
                            ("puts_stored", model.stored)):
            account.check(stats.get(f"{tenant}:{field}") == mine,
                          f"stats_mismatch_{field}")
