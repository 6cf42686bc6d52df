"""Wire gate: one seeded memcached transcript, pinned byte for byte.

A seeded stream of 5 000+ commands over three tenants is sent to a real
``CacheServer`` on a loopback port and every reply byte is collected.
The stream covers the whole command set, ``noreply``, inline and
file-backed value sizes, every refusal the protocol can answer and the
malformed input a hostile client can send; a small capacity keeps
Algorithm-1 eviction running underneath.  Four things are asserted:

(a) the sha256 of the reply bytes (minus the wall-clock ``STAT lat:``
    lines) equals a pinned constant, with and without ``second_access``
    admission;
(b) the same bytes come back however the stream is cut into TCP writes:
    one write, one command per write, and seeded random fragmentations
    that cut inside ``\\r\\n``, inside headers, inside bodies and inside
    bodies the server discards;
(c) on a capacity that never evicts, a plain dict model predicts every
    reply (all but the ``entitlement_blocks`` lines of ``stats``, which
    are the policy engine's);
(d) ``check_service`` finds the cache consistent after every run, and
    the server's ``ops``/``protocol_errors`` counters equal the model's.

Everything goes through the socket, ``check_service`` and public
counters, so the file runs unmodified against any front-end: it was
committed against the StreamReader-coroutine front-end and has to stay
byte-identical, pinned hashes included, across its replacement.
"""

import asyncio
import hashlib
import random
import re
import tempfile
import unittest
from typing import List, NamedTuple, Optional

from repro.service import DiskStore, ServiceCache
from repro.service.check import check_service
from repro.service.server import CacheServer

_MB = 1 << 20
BLOCK = 4096
EVICTING_BLOCKS = 48                 # 192 KiB: eviction runs all the time
ROOMY_BLOCKS = 16 * 1024             # 64 MiB: the stream never fills it
BATCH_BLOCKS = 8
MAX_VALUE_BYTES = 200_000            # above EVICTING_BLOCKS * BLOCK on purpose
OVER_CAPACITY = 198_000              # legal body, 49 blocks: TOO_LARGE
COMMANDS = 5200
STREAM_SEED = 20261001
FRAGMENTATIONS = 20

TENANTS = (("default", 90), ("alice", 40), ("bob", 14))   # name, key space
SIZES = (0, 1, 100, 100, 100, 100, 100, 100, 700, 700, 700, 700, 1024, 1024,
         1025, 1025, 3000, 3000, 3000, 4096, 4096, 4097, 5000, 5000, 20_000)

#: sha256 of the filtered reply bytes on the evicting capacity, by admission.
PINNED = {
    None: "5aa772471ab3fcca2e0668bae83442f6152649ecd7200bf1f15ae38295ca8380",
    "second_access":
        "f823274dc6e28d6b3e6c65033dc02158ca8c05d2f17d6a670eddc2b1bc21efe8",
}

_LAT_LINE = re.compile(rb"STAT lat:[^\r\n]*\r\n")
_ENTITLEMENT_LINE = re.compile(rb"STAT [^\r\n:]*:entitlement_blocks [^\r\n]*\r\n")

TOO_LARGE = b"SERVER_ERROR object too large for cache\r\n"
BAD_FORMAT = b"CLIENT_ERROR bad command line format\r\n"
BAD_CHUNK = b"CLIENT_ERROR bad data chunk\r\n"
KEY_TOO_LONG = b"CLIENT_ERROR key too long\r\n"
MALFORMED = b"CLIENT_ERROR malformed command\r\n"
GET_USAGE = b"CLIENT_ERROR get requires a key\r\n"
DELETE_USAGE = b"CLIENT_ERROR usage: delete <key> [noreply]\r\n"
STATS_USAGE = b"CLIENT_ERROR usage: stats [tenants]\r\n"
TENANT_USAGE = b"CLIENT_ERROR usage: tenant <name>\r\n"
VERSION = b"VERSION repro-dd/1\r\n"


class Unit(NamedTuple):
    """One command as sent: its header line plus its body, if any."""
    wire: bytes
    header: int              # bytes of the header line, newline included
    op: tuple                # what the model executes
    discarded: bool = False  # the body is refused and only counted off


def line(text, op, newline=b"\r\n") -> Unit:
    wire = (text if isinstance(text, bytes) else text.encode()) + newline
    return Unit(wire, len(wire), op)


def fixed(text, reply: bytes, error=True, counted=True) -> Unit:
    """A command whose reply does not depend on the cache's state."""
    return line(text, ("fixed", reply, error, counted))


def key_of(index: int) -> str:
    if index % 23 == 11:
        return "x" * 247 + f"{index:03d}"        # exactly the 250-byte limit
    if index % 17 == 5:
        return f"ключ{index}"                    # multi-byte UTF-8
    return f"k{index}"


def build_stream(seed: int = STREAM_SEED, commands: int = COMMANDS) -> List[Unit]:
    """The seeded transcript, ``quit`` last."""
    rng = random.Random(seed)
    filler = rng.randbytes(_MB)      # binary values: CR, LF and NUL included
    spaces = dict(TENANTS)
    tenant = "default"
    units: List[Unit] = []
    oversized_left = 4               # ~200 KB each: keep the stream light

    def pick_key() -> str:
        return key_of(int(rng.paretovariate(0.7)) % spaces[tenant])

    def value_of(key: str, size: int) -> bytes:
        start = rng.randrange(len(filler) - size)
        head = f"{tenant}:{key}:{len(units)}|".encode()
        return (head + filler[start:start + size])[:size]

    def set_unit(key: str, size: int, noreply=False,
                 terminator=b"\r\n") -> Unit:
        value = value_of(key, size)
        flags = rng.choice((0, 0, 1, 2, 3, 2 ** 32 - 1))
        exptime = rng.choice((0, 0, 0, 3600, -1))
        header = (f"set {key} {flags} {exptime} {size}"
                  f"{' noreply' if noreply else ''}\r\n").encode()
        refused = len(key.encode()) > 250 or size > MAX_VALUE_BYTES
        if len(key.encode()) > 250:
            op = ("fixed", KEY_TOO_LONG, True, True)
        elif refused:
            op = ("fixed", TOO_LARGE, True, True)
        elif terminator != b"\r\n":
            op = ("fixed", BAD_CHUNK, True, True)
        else:
            op = ("set", key, flags, value)
        if noreply:
            op = ("noreply", op)
        return Unit(header + value + terminator, len(header), op,
                    discarded=refused)

    def oddity() -> List[Unit]:
        nonlocal oversized_left
        key = pick_key()
        quiet = rng.random() < 0.3
        choice = rng.randrange(24)
        if choice == 0:
            return [fixed(b"", b"", error=False, counted=False)]
        if choice == 1:
            return [line(b"", ("fixed", b"", False, False), newline=b"\n")]
        if choice == 2:
            return [fixed(b"get \xff\xfe" + key.encode(), MALFORMED,
                          counted=False)]
        if choice == 3:
            return [fixed(rng.choice((f"incr {key} 1", f"GET {key}", "verbosity 1",
                                      f"touch {key} 0", f"Set {key} 0 0 1")),
                          b"ERROR\r\n")]
        if choice == 4:
            return [fixed(rng.choice((f"set {key} 0 0", "set", f"set {key}",
                                      f"set {key} 0 0 -1", f"set {key} 0 0 1 2 3",
                                      f"set {key} 0 0 1 yesreply")), BAD_FORMAT)]
        if choice == 5:     # refused at the header: the "body" is a command
            return [fixed(rng.choice((f"set {key} x 0 2", f"set {key} -1 0 2",
                                      f"set {key} 0 soon 2", f"set {key} 0 0 two")),
                          BAD_FORMAT),
                    fixed("vv", b"ERROR\r\n")]
        if choice == 6:     # noreply is recognised before the count is checked
            return [line(f"set {key} 0 0 noreply",
                         ("noreply", ("fixed", BAD_FORMAT, True, True)))]
        if choice == 7:     # junk where the body's CRLF belongs, then a bare CRLF
            return [set_unit(key, rng.choice((0, 2, 700, 5000)), noreply=quiet,
                             terminator=b"XX"),
                    fixed(b"", b"", error=False, counted=False)]
        if choice == 8:
            return [set_unit(key + "y" * (251 - len(key.encode())),
                             rng.choice((0, 5, 3000, 70_000)), noreply=quiet)]
        if choice == 9:
            if not oversized_left:
                return []
            oversized_left -= 1
            return [set_unit(key, MAX_VALUE_BYTES + rng.randrange(1, 5000),
                             noreply=quiet)]
        if choice == 10:
            return [set_unit(key, OVER_CAPACITY if rng.random() < 0.3 else 70_000,
                             noreply=quiet)]
        if choice == 11:
            return [fixed(rng.choice(("get", "gets", "get ", "gets\t")), GET_USAGE)]
        if choice == 12:
            return [fixed(rng.choice(("delete", f"delete {key} 0",
                                      f"delete {key} {key} {key}")), DELETE_USAGE)]
        if choice == 13:
            return [line(f"delete {key} 0 noreply",
                         ("noreply", ("fixed", DELETE_USAGE, True, True)))]
        if choice == 14:
            return [fixed(rng.choice(("stats bogus", "stats tenants now",
                                      "stats reset")), STATS_USAGE)]
        if choice == 15:
            return [fixed(rng.choice(("tenant", "tenant a b", "tenant " + "t" * 251)),
                          TENANT_USAGE)]
        if choice == 16:    # no length check on a get key: it is just a miss
            return [line(f"get {'g' * 251}", ("get", ["g" * 251], False))]
        if choice == 17:    # any run of blanks separates, trailing ones too
            other = pick_key()
            return [line(f"get   {key} \t {other} ", ("get", [key, other], False))]
        if choice == 18:
            return [line(f"gets {key}", ("get", [key], True), newline=b"\n")]
        if choice == 19:
            return [fixed(rng.choice(("version", "version 1 2")), VERSION,
                          error=False)]
        if choice == 20:
            return [line(rng.choice(("flush_all", "flush_all 0")), ("flush",))]
        if choice == 21:
            return [line("flush_all noreply", ("noreply", ("flush",)))]
        if choice == 22:
            return [line("stats tenants", ("stats_tenants",))]
        return [line("stats", ("stats",))]

    while len(units) < commands:
        roll = rng.random()
        if roll < 0.42:
            units.append(set_unit(pick_key(), rng.choice(SIZES),
                                  noreply=rng.random() < 0.15))
        elif roll < 0.62:
            key = pick_key()
            units.append(line(f"get {key}", ("get", [key], False)))
        elif roll < 0.72:
            keys = [pick_key() for _ in range(rng.randrange(2, 6))]
            verb = rng.choice(("get", "gets"))
            units.append(line(f"{verb} {' '.join(keys)}",
                              ("get", keys, verb == "gets")))
        elif roll < 0.76:
            key = pick_key()
            units.append(line(f"gets {key}", ("get", [key], True)))
        elif roll < 0.85:
            key = pick_key()
            if rng.random() < 0.2:
                units.append(line(f"delete {key} noreply",
                                  ("noreply", ("delete", key))))
            else:
                units.append(line(f"delete {key}", ("delete", key)))
        elif roll < 0.90:
            tenant = rng.choices([name for name, _ in TENANTS],
                                 weights=(5, 3, 2))[0]
            units.append(line(f"tenant {tenant}", ("tenant", tenant)))
        else:
            units.extend(oddity())
    units.append(line("quit", ("quit",)))
    return units


class Model:
    """What a correct server answers when nothing is ever evicted."""

    COUNTERS = ("gets", "get_hits", "puts", "puts_stored", "evictions",
                "put_rejected_admission", "put_rejected_capacity")

    def __init__(self, capacity_blocks: int, admission: Optional[str]) -> None:
        self.capacity_blocks = capacity_blocks
        self.admission = admission
        self.values = {}        # (tenant, key) -> (value, flags, cas)
        self.counters = {}      # tenant -> {counter: n}
        self.ghost = set()      # second_access: keys refused once
        self.next_cas = 1
        self.current = "default"
        self.ops = 0
        self.errors = 0

    def pool(self, tenant: Optional[str] = None) -> dict:
        return self.counters.setdefault(tenant or self.current,
                                        dict.fromkeys(self.COUNTERS, 0))

    @staticmethod
    def blocks(size: int) -> int:
        return max(1, -(-size // BLOCK))

    def run(self, op: tuple) -> bytes:
        """The reply bytes of one unit; counts ops and error replies."""
        kind = op[0]
        if kind == "noreply":
            self.run(op[1])
            return b""
        if kind == "fixed":
            _, reply, error, counted = op
            self.ops += counted
            self.errors += error
            return reply
        self.ops += 1
        if kind == "set":
            reply = self.set(*op[1:])
            self.errors += reply.startswith(b"SERVER_ERROR")
            return reply
        return getattr(self, kind)(*op[1:])

    def set(self, key: str, flags: int, value: bytes) -> bytes:
        pool = self.pool()
        pool["puts"] += 1
        ident = (self.current, key)
        if self.blocks(len(value)) > self.capacity_blocks:
            pool["put_rejected_capacity"] += 1
            return TOO_LARGE                    # the old value stays
        if self.admission == "second_access":
            if ident not in self.ghost:
                self.ghost.add(ident)
                pool["put_rejected_admission"] += 1
                self.values.pop(ident, None)    # a refused overwrite drops it
                return b"NOT_STORED\r\n"
            self.ghost.remove(ident)
        self.values[ident] = (value, flags, self.next_cas)
        self.next_cas += 1
        pool["puts_stored"] += 1
        return b"STORED\r\n"

    def get(self, keys: List[str], with_cas: bool) -> bytes:
        pool = self.pool()
        out = []
        for key in keys:
            pool["gets"] += 1
            found = self.values.get((self.current, key))
            if found is None:
                continue
            pool["get_hits"] += 1
            value, flags, cas = found
            header = f"VALUE {key} {flags} {len(value)}"
            if with_cas:
                header += f" {cas}"
            out.append(header.encode() + b"\r\n" + value + b"\r\n")
        return b"".join(out) + b"END\r\n"

    def delete(self, key: str) -> bytes:
        self.pool()
        found = self.values.pop((self.current, key), None)
        return b"DELETED\r\n" if found else b"NOT_FOUND\r\n"

    def flush(self) -> bytes:
        for ident in [ident for ident in self.values if ident[0] == self.current]:
            del self.values[ident]
        return b"OK\r\n"

    def tenant(self, name: str) -> bytes:
        self.pool(name)                     # named is enough to be listed
        self.current = name
        return b"OK\r\n"

    def quit(self) -> bytes:
        return b""

    # -- stats ----------------------------------------------------------

    def tenant_fields(self, tenant: str) -> dict:
        fields = dict(self.counters[tenant])
        fields["used_blocks"] = sum(
            self.blocks(len(value)) for (owner, _), (value, _, _)
            in self.values.items() if owner == tenant)
        fields["hit_ratio"] = (
            fields["get_hits"] / fields["gets"] if fields["gets"] else 0.0)
        return fields

    @staticmethod
    def render(scopes: dict) -> bytes:
        def fmt(value) -> str:
            return (str(int(value)) if float(value) == int(value)
                    else f"{value:.6g}")
        return "".join(
            f"STAT {scope}:{field} {fmt(fields[field])}\r\n"
            for scope, fields in sorted(scopes.items())
            for field in sorted(fields)).encode() + b"END\r\n"

    def stats(self) -> bytes:
        scopes = {tenant: self.tenant_fields(tenant) for tenant in self.counters}
        scopes["_host"] = {
            "capacity_blocks": self.capacity_blocks,
            "entries": len(self.values),
            "used_blocks": sum(f["used_blocks"] for f in scopes.values()),
        }
        return self.render(scopes)

    def stats_tenants(self) -> bytes:
        scopes = {tenant: self.tenant_fields(tenant) for tenant in self.counters}
        host_used = sum(fields["used_blocks"] for fields in scopes.values())
        for tenant, fields in scopes.items():
            fields["bytes"] = sum(
                len(value) for (owner, _), (value, _, _) in self.values.items()
                if owner == tenant)
            fields["occupancy_share"] = (
                fields["used_blocks"] / host_used if host_used else 0.0)
        return self.render(scopes)


def fragment(units: List[Unit], seed: int) -> List[bytes]:
    """The stream cut into seeded segments: cuts inside ``\\r\\n``, inside
    headers, inside stored and discarded bodies, one window cut at every
    byte, and a few hundred cuts anywhere."""
    rng = random.Random(seed)
    stream = b"".join(unit.wire for unit in units)
    cuts = set()
    offset = 0
    for unit in units:
        header_end = offset + unit.header
        end = offset + len(unit.wire)
        roll = rng.random()
        if roll < 0.04:
            cuts.add(header_end - 1)                 # before the header's LF
        elif roll < 0.08 and unit.header > 2:
            cuts.add(offset + rng.randrange(1, unit.header - 1))
        elif roll < 0.10:
            cuts.add(header_end)                     # header | body
        body = end - header_end
        if body:
            roll = rng.random()
            if roll < 0.25:
                cuts.add(header_end + rng.randrange(body))
            if roll < 0.06:
                cuts.add(end - 1)                    # inside the body's CRLF
            if unit.discarded:
                cuts.update(header_end + rng.randrange(body)
                            for _ in range(rng.randrange(1, 6)))
        offset = end
    window = rng.randrange(len(stream) - 400)
    cuts.update(range(window, window + 400))
    cuts.update(rng.randrange(len(stream)) for _ in range(rng.randrange(50, 400)))
    edges = [0] + sorted(cuts - {0}) + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def filtered(replies: bytes) -> bytes:
    return _LAT_LINE.sub(b"", replies)


def first_difference(got: bytes, want: bytes) -> str:
    limit = min(len(got), len(want))
    at = next((i for i in range(limit) if got[i] != want[i]), limit)
    lo = max(0, at - 60)
    return (f"replies differ at byte {at} (got {len(got)} bytes, want "
            f"{len(want)}): got {got[lo:at + 60]!r}, want {want[lo:at + 60]!r}")


class Outcome(NamedTuple):
    replies: bytes
    ops: int
    protocol_errors: int
    evictions: int
    rejected_admission: int
    rejected_capacity: int


class WireGate(unittest.TestCase):
    """Plain ``asyncio.run`` per transcript: ``IsolatedAsyncioTestCase``
    turns on the loop's debug mode, which quadruples the run time."""

    units = build_stream()

    def play(self, segments: List[bytes], blocks: int,
             admission: Optional[str]) -> Outcome:
        return asyncio.run(self._play(segments, blocks, admission))

    async def _play(self, segments: List[bytes], blocks: int,
                    admission: Optional[str]) -> Outcome:
        """Send ``segments`` one write each to a fresh server; collect every
        reply byte up to the close that answers the final ``quit``."""
        with tempfile.TemporaryDirectory() as tmp:
            cache = ServiceCache(
                DiskStore(tmp, sync_writes=False),
                capacity_mb=blocks * BLOCK / _MB, admission=admission,
                eviction_batch_mb=BATCH_BLOCKS * BLOCK / _MB)
            server = CacheServer(cache, port=0, max_value_bytes=MAX_VALUE_BYTES)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                collector = asyncio.ensure_future(reader.read())
                for segment in segments:
                    writer.write(segment)
                    await writer.drain()
                    if len(segments) > 1:
                        # Two passes of the loop: the server (same loop)
                        # reads this segment before the next is written.
                        await asyncio.sleep(0)
                        await asyncio.sleep(0)
                replies = await asyncio.wait_for(collector, 120)
                writer.close()
                await writer.wait_closed()
                self.assertEqual(check_service(cache), [])
                pools = [pool.stats for pool in cache.tenants.values()]
                return Outcome(
                    filtered(replies), server.protocol.ops,
                    server.protocol.protocol_errors,
                    sum(stats.evictions for stats in pools),
                    sum(stats.put_rejected_admission for stats in pools),
                    sum(stats.put_rejected_capacity for stats in pools))
            finally:
                await server.close()

    def whole(self) -> List[bytes]:
        return [b"".join(unit.wire for unit in self.units)]

    def assert_pinned(self, segments, admission) -> Outcome:
        outcome = self.play(segments, EVICTING_BLOCKS, admission)
        digest = hashlib.sha256(outcome.replies).hexdigest()
        if digest != PINNED[admission]:
            if len(segments) > 1:
                baseline = self.play(self.whole(), EVICTING_BLOCKS, admission)
                self.fail(f"admission={admission}: {len(segments)} writes: "
                          + first_difference(outcome.replies, baseline.replies))
            self.fail(f"admission={admission}: reply sha256 {digest}, "
                      f"pinned {PINNED[admission]}")
        model = Model(EVICTING_BLOCKS, admission)
        for unit in self.units:
            model.run(unit.op)      # its counters hold with eviction too
        self.assertEqual((outcome.ops, outcome.protocol_errors),
                         (model.ops, model.errors))
        return outcome

    def test_stream_covers_what_it_claims(self):
        units = self.units
        self.assertGreaterEqual(len(units), 5000)
        wire = b"".join(unit.wire for unit in units)
        for fragment_ in (b"set ", b" noreply\r\n", b"get ", b"gets ", b"delete ",
                          b"flush_all", b"tenant alice", b"tenant bob",
                          b"tenant default", b"stats\r\n", b"stats tenants\r\n",
                          b"version", b"\r\n\r\n", b"get \xff\xfe", b"incr ",
                          b"XX\r\n", b"y" * 100, b"quit\r\n"):
            self.assertIn(fragment_, wire)
        sizes = {len(unit.wire) - unit.header - 2 for unit in units
                 if unit.op[0] == "set"}
        self.assertTrue({0, 1024, 1025, 4096, 20_000, 70_000, OVER_CAPACITY}
                        <= sizes, sizes)
        self.assertTrue(any(len(unit.wire) > MAX_VALUE_BYTES for unit in units))
        self.assertGreater(sum(unit.discarded for unit in units), 10)

    def test_replies_match_the_pinned_transcript(self):
        for admission in PINNED:
            with self.subTest(admission=admission):
                outcome = self.assert_pinned(self.whole(), admission)
                self.assertGreater(outcome.evictions, 0)
                self.assertGreater(outcome.rejected_capacity, 0)
                self.assertEqual(outcome.rejected_admission > 0,
                                 admission is not None)
                for reply in (b"STORED\r\n", b"DELETED\r\n", b"NOT_FOUND\r\n",
                              b"OK\r\n", b"END\r\n", b"VALUE ", b"ERROR\r\n",
                              TOO_LARGE, BAD_FORMAT, BAD_CHUNK, KEY_TOO_LONG,
                              MALFORMED, GET_USAGE, DELETE_USAGE, STATS_USAGE,
                              TENANT_USAGE, VERSION, b"STAT _host:entries ",
                              b":occupancy_share "):
                    self.assertIn(reply, outcome.replies)
                self.assertEqual(b"NOT_STORED\r\n" in outcome.replies,
                                 admission is not None)

    def test_one_command_per_write(self):
        self.assert_pinned([unit.wire for unit in self.units], None)

    def test_seeded_fragmentations_answer_the_same_bytes(self):
        for seed in range(FRAGMENTATIONS):
            admission = list(PINNED)[seed % len(PINNED)]
            with self.subTest(seed=seed, admission=admission):
                self.assert_pinned(fragment(self.units, seed), admission)

    def test_dict_model_predicts_every_reply_without_eviction(self):
        for admission in PINNED:
            with self.subTest(admission=admission):
                outcome = self.play(self.whole(), ROOMY_BLOCKS, admission)
                self.assertEqual(outcome.evictions, 0)
                model = Model(ROOMY_BLOCKS, admission)
                want = b"".join(model.run(unit.op) for unit in self.units)
                got = _ENTITLEMENT_LINE.sub(b"", outcome.replies)
                if got != want:
                    self.fail(first_difference(got, want))
                self.assertEqual((outcome.ops, outcome.protocol_errors),
                                 (model.ops, model.errors))


class ConnectionEdges(unittest.IsolatedAsyncioTestCase):
    """Framing cases that end or interleave connections, so they cannot
    live inside the one-connection transcript."""

    async def asyncSetUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.cache = ServiceCache(DiskStore(self._tmp.name, sync_writes=False),
                                  capacity_mb=1.0)
        self.server = CacheServer(self.cache, port=0, max_value_bytes=8192)
        await self.server.start()

    async def asyncTearDown(self):
        await self.server.close()
        self._tmp.cleanup()

    async def connect(self):
        return await asyncio.open_connection("127.0.0.1", self.server.port)

    async def test_a_line_that_never_ends_closes_the_connection(self):
        reader, writer = await self.connect()
        writer.write(b"get " + b"a" * (100 * 1024))      # no newline, > 64 KiB
        try:
            await writer.drain()
            self.assertEqual(await asyncio.wait_for(reader.read(), 10), b"")
        except ConnectionError:
            pass    # closed with bytes of ours still unread: RST, not FIN
        writer.close()
        self.assertEqual(self.server.protocol.protocol_errors, 0)
        reader, writer = await self.connect()            # still serving
        writer.write(b"version\r\nquit\r\n")
        self.assertEqual(await asyncio.wait_for(reader.read(), 10), VERSION)
        writer.close()

    async def test_nothing_after_quit_is_executed(self):
        reader, writer = await self.connect()
        writer.write(b"set a 0 0 1\r\n1\r\nquit\r\nset b 0 0 1\r\n2\r\n")
        self.assertEqual(await asyncio.wait_for(reader.read(), 10),
                         b"STORED\r\n")
        writer.close()
        self.assertIsNotNone(self.cache.get("default", "a"))
        self.assertIsNone(self.cache.get("default", "b"))

    async def test_half_closed_client_is_answered_then_closed(self):
        self.cache.set("default", "k", b"value", 7)
        reader, writer = await self.connect()
        writer.write(b"get k\r\nget missing\r\nset torn 0 0 10\r\nhalf")
        writer.write_eof()
        self.assertEqual(await asyncio.wait_for(reader.read(), 10),
                         b"VALUE k 7 5\r\nvalue\r\nEND\r\nEND\r\n")
        writer.close()
        self.assertIsNone(self.cache.get("default", "torn"))
        self.assertEqual(self.server.protocol.protocol_errors, 0)

    async def test_partial_commands_on_two_connections_do_not_mix(self):
        reader_a, writer_a = await self.connect()
        reader_b, writer_b = await self.connect()
        writer_a.write(b"tenant a\r\nset k 1 0 6\r\nfrom")
        writer_b.write(b"tenant b\r\nset k 2 0 6\r\nFROM-B\r\nget k\r")
        await asyncio.sleep(0.05)
        writer_a.write(b"-a\r\nget k\r\nquit\r\n")
        writer_b.write(b"\nquit\r\n")
        self.assertEqual(await asyncio.wait_for(reader_a.read(), 10),
                         b"OK\r\nSTORED\r\nVALUE k 1 6\r\nfrom-a\r\nEND\r\n")
        self.assertEqual(await asyncio.wait_for(reader_b.read(), 10),
                         b"OK\r\nSTORED\r\nVALUE k 2 6\r\nFROM-B\r\nEND\r\n")
        writer_a.close()
        writer_b.close()


if __name__ == "__main__":
    unittest.main()
