"""Memcached protocol edge cases against a live asyncio server."""

import asyncio
import contextlib
import io
import os
import socket
import tempfile
import unittest
from unittest import mock

from repro.core import StoreKind
from repro.service import DiskStore, ServiceCache, SetStatus, protocol
from repro.service.server import CacheServer


class ServerHarness(unittest.IsolatedAsyncioTestCase):
    """A real server on a loopback port, torn down per test."""

    capacity_mb = 1.0
    max_value_bytes = 8192
    admission = None

    async def asyncSetUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        store = DiskStore(self._tmp.name, sync_writes=False)
        self.cache = ServiceCache(
            store, capacity_mb=self.capacity_mb, admission=self.admission,
            eviction_batch_mb=16 * 4096 / (1 << 20))
        self.server = CacheServer(self.cache, port=0,
                                  max_value_bytes=self.max_value_bytes)
        await self.server.start()

    async def asyncTearDown(self):
        await self.server.close()
        self._tmp.cleanup()

    async def connect(self):
        return await asyncio.open_connection("127.0.0.1", self.server.port)

    async def command(self, reader, writer, line: bytes) -> bytes:
        writer.write(line)
        await writer.drain()
        return await reader.readline()

    async def read_get(self, reader) -> dict:
        """Parse one get reply into ``{key: (flags, value)}``."""
        out = {}
        while True:
            line = await reader.readline()
            if line.startswith(b"END"):
                return out
            self.assertTrue(line.startswith(b"VALUE"), line)
            _, key, flags, nbytes = line.split()[:4]
            body = await reader.readexactly(int(nbytes) + 2)
            out[key.decode()] = (int(flags), body[:-2])


class BasicProtocolTests(ServerHarness):
    async def test_set_get_delete_flush_round_trip(self):
        reader, writer = await self.connect()
        reply = await self.command(
            reader, writer, b"set greet 5 0 5\r\nhello\r\n")
        self.assertEqual(reply, b"STORED\r\n")

        writer.write(b"get greet\r\n")
        await writer.drain()
        values = await self.read_get(reader)
        self.assertEqual(values, {"greet": (5, b"hello")})

        reply = await self.command(reader, writer, b"delete greet\r\n")
        self.assertEqual(reply, b"DELETED\r\n")
        reply = await self.command(reader, writer, b"delete greet\r\n")
        self.assertEqual(reply, b"NOT_FOUND\r\n")

        await self.command(reader, writer, b"set a 0 0 1\r\nx\r\n")
        reply = await self.command(reader, writer, b"flush_all\r\n")
        self.assertEqual(reply, b"OK\r\n")
        writer.write(b"get a\r\n")
        await writer.drain()
        self.assertEqual(await self.read_get(reader), {})
        writer.close()

    async def test_gets_reports_cas_id(self):
        reader, writer = await self.connect()
        await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        writer.write(b"gets k\r\n")
        await writer.drain()
        line = await reader.readline()
        parts = line.split()
        self.assertEqual(len(parts), 5)  # VALUE k flags bytes cas
        self.assertTrue(int(parts[4]) >= 1)
        await reader.readexactly(int(parts[3]) + 2)
        self.assertEqual(await reader.readline(), b"END\r\n")
        writer.close()

    async def test_unknown_command_is_error_and_counted(self):
        reader, writer = await self.connect()
        reply = await self.command(reader, writer, b"increment k 1\r\n")
        self.assertEqual(reply, b"ERROR\r\n")
        self.assertEqual(self.server.protocol.protocol_errors, 1)
        writer.close()

    async def test_binary_safe_values(self):
        reader, writer = await self.connect()
        value = bytes(range(256)) * 4
        writer.write(b"set blob 0 0 %d\r\n" % len(value) + value + b"\r\n")
        await writer.drain()
        self.assertEqual(await reader.readline(), b"STORED\r\n")
        writer.write(b"get blob\r\n")
        await writer.drain()
        values = await self.read_get(reader)
        self.assertEqual(values["blob"][1], value)
        writer.close()

    async def test_version_and_quit(self):
        reader, writer = await self.connect()
        reply = await self.command(reader, writer, b"version\r\n")
        self.assertTrue(reply.startswith(b"VERSION"))
        writer.write(b"quit\r\n")
        await writer.drain()
        self.assertEqual(await reader.read(), b"")  # server closed


class EdgeCaseTests(ServerHarness):
    async def test_oversized_value_is_consumed_and_rejected(self):
        reader, writer = await self.connect()
        huge = b"z" * (3 * 64 * 1024 + 1)  # several drain chunks
        writer.write(b"set big 0 0 %d\r\n" % len(huge) + huge + b"\r\n")
        # The stream must stay in sync: the next commands still work.
        writer.write(b"set small 0 0 2\r\nok\r\n")
        writer.write(b"get small\r\n")
        await writer.drain()
        self.assertEqual(await reader.readline(),
                         b"SERVER_ERROR object too large for cache\r\n")
        self.assertEqual(await reader.readline(), b"STORED\r\n")
        self.assertEqual(await self.read_get(reader), {"small": (0, b"ok")})
        writer.close()

    async def test_overlong_key_is_rejected_before_its_body_is_stored(self):
        reader, writer = await self.connect()
        key = b"k" * 251
        writer.write(b"set %s 0 0 2\r\nvv\r\n" % key)
        # The body was consumed, so the stream is still in sync.
        writer.write(b"set %s 0 0 2\r\nok\r\n" % key[:250])
        writer.write(b"get %s\r\n" % key[:250])
        await writer.drain()
        self.assertEqual(await reader.readline(),
                         b"CLIENT_ERROR key too long\r\n")
        self.assertEqual(await reader.readline(), b"STORED\r\n")
        self.assertEqual(await self.read_get(reader),
                         {key[:250].decode(): (0, b"ok")})
        self.assertEqual([entry.key for entry in
                          self.cache.store.iter_entries()],
                         [key[:250].decode()])
        writer.close()

    async def test_noreply_suppresses_responses(self):
        reader, writer = await self.connect()
        writer.write(b"set quiet 0 0 2 noreply\r\nhi\r\n")
        writer.write(b"delete quiet noreply\r\n")
        writer.write(b"delete quiet noreply\r\n")  # NOT_FOUND, suppressed
        writer.write(b"version\r\n")
        await writer.drain()
        # The only reply on the wire is the version line.
        self.assertTrue((await reader.readline()).startswith(b"VERSION"))
        writer.close()

    async def test_pipelined_commands_answer_in_order(self):
        reader, writer = await self.connect()
        batch = b"".join(
            b"set k%d 0 0 2\r\nv%d\r\n" % (i, i) for i in range(5))
        batch += b"get k0 k3 k4\r\n" + b"delete k1\r\n"
        writer.write(batch)
        await writer.drain()
        for _ in range(5):
            self.assertEqual(await reader.readline(), b"STORED\r\n")
        values = await self.read_get(reader)
        self.assertEqual(set(values), {"k0", "k3", "k4"})
        self.assertEqual(await reader.readline(), b"DELETED\r\n")
        writer.close()

    async def test_abrupt_disconnect_mid_body_discards_quietly(self):
        # Once mid-body of a storable value, once mid-drain of an
        # oversized one.
        for declared in (100, 100 * self.max_value_bytes):
            reader, writer = await self.connect()
            writer.write(b"set torn 0 0 %d\r\nonly-a-fragment" % declared)
            await writer.drain()
            writer.close()  # vanish with the rest outstanding
        await asyncio.sleep(0.05)
        # The server neither stored the fragment nor counted an error,
        # and keeps serving fresh connections.
        reader2, writer2 = await self.connect()
        writer2.write(b"get torn\r\n")
        await writer2.drain()
        self.assertEqual(await self.read_get(reader2), {})
        self.assertEqual(self.server.protocol.protocol_errors, 0)
        writer2.close()

    async def test_bad_data_chunk_terminator(self):
        reader, writer = await self.connect()
        # Body is followed by junk instead of CRLF.
        writer.write(b"set k 0 0 2\r\nvvXX")
        writer.write(b"\r\n")
        await writer.drain()
        reply = await reader.readline()
        self.assertEqual(reply, b"CLIENT_ERROR bad data chunk\r\n")
        writer.close()

    async def test_malformed_set_arguments(self):
        reader, writer = await self.connect()
        reply = await self.command(reader, writer, b"set k 0 0\r\n")
        self.assertTrue(reply.startswith(b"CLIENT_ERROR"))
        reply = await self.command(reader, writer,
                                   b"set k x 0 2\r\nvv\r\n")
        self.assertTrue(reply.startswith(b"CLIENT_ERROR"))
        writer.close()


class FakeTransport:
    """Just enough transport to drive a connection object by hand."""

    def __init__(self):
        self.sent = b""
        self.closed = False

    def write(self, data):
        self.sent += data

    def close(self):
        self.closed = True

    abort = close

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def feed(conn, data, buffers=None):
    """Deliver one TCP segment the way the transport does: ask for a
    buffer, fill as much as it takes, report the count, repeat."""
    data = memoryview(data)
    while data:
        buffer = conn.get_buffer(-1)
        if buffers is not None:
            buffers.append(buffer)
        count = min(len(buffer), len(data))
        buffer[:count] = data[:count]
        conn.buffer_updated(count)
        data = data[count:]


class BoundedMemoryTests(ServerHarness):
    """What a body costs the server while it arrives, and what unread
    replies cost it while the client stalls."""

    max_value_bytes = 1 << 20
    capacity_mb = 4.0

    def connection(self):
        conn = self.server.protocol.connection()
        transport = FakeTransport()
        conn.connection_made(transport)
        return conn, transport

    async def test_declared_gigabyte_body_is_counted_off_not_kept(self):
        conn, transport = self.connection()
        declared = 1 << 30
        segment = bytes(64 * 1024)
        buffers = []
        feed(conn, b"set big 0 0 %d\r\n" % declared, buffers)
        for _ in range(declared // len(segment)):
            feed(conn, segment, buffers)
            self.assertEqual(transport.sent, b"")  # owed, not sent early
        feed(conn, b"\r\nversion\r\n", buffers)
        self.assertEqual(
            transport.sent,
            b"SERVER_ERROR object too large for cache\r\nVERSION repro-dd/1\r\n")
        self.assertEqual(self.server.protocol.protocol_errors, 1)
        # Every byte went through one and the same 64 KiB buffer.
        self.assertEqual(len({id(buffer.obj) for buffer in buffers}), 1)
        self.assertEqual(len(buffers[0].obj), 64 * 1024)

    async def test_large_value_in_small_segments_needs_no_rejoin(self):
        conn, transport = self.connection()
        value = bytes(range(256)) * 4096                      # 1 MiB
        wire = b"set big 5 0 %d\r\n" % len(value) + value + b"\r\nget big\r\n"
        buffers = []
        for start in range(0, len(wire), 4096):
            feed(conn, wire[start:start + 4096], buffers)
        self.assertEqual(self.cache.get("default", "big")[:2], (value, 5))
        self.assertEqual(
            transport.sent, b"STORED\r\nVALUE big 5 %d\r\n" % len(value)
            + value + b"\r\nEND\r\n")
        # O(segment) work per segment: after the header's segment the
        # transport wrote straight into one buffer of the declared size
        # (no join, no re-scan), one get_buffer per segment.
        body = [buffer.obj for buffer in buffers
                if len(buffer.obj) == len(value) + 2]
        self.assertEqual(len({id(obj) for obj in body}), 1)
        self.assertGreaterEqual(len(body), len(value) // 4096 - 1)
        self.assertLessEqual(len(buffers), len(wire) // 4096 + 3)

    async def test_unread_replies_stall_the_server_at_high_water(self):
        value = bytes(range(256)) * 32                        # 8 KiB
        gets = 2000
        for index in range(7):
            self.cache.set("default", f"k{index}", value + b"%d" % index)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(
            sock, ("127.0.0.1", self.server.port))
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(b"".join(b"get k%d\r\n" % (index % 7)
                              for index in range(gets)))
        await writer.drain()
        (conn,) = self.server.protocol.live
        high_water = conn.transport.get_write_buffer_limits()[1]
        one_flush = 64 * 1024 + len(value) + 64
        stalled = 0
        for _ in range(20):                   # the client reads nothing
            await asyncio.sleep(0.01)
            buffered = conn.transport.get_write_buffer_size()
            self.assertLessEqual(buffered, high_water + one_flush)
            stalled += buffered > high_water
        self.assertGreater(stalled, 15)       # it did stall, above high water
        self.assertLess(self.server.protocol.ops, gets)
        for index in range(gets):             # now read: all there, in order
            self.assertEqual(await self.read_get(reader),
                             {f"k{index % 7}": (0, value + b"%d" % (index % 7))})
        self.assertEqual(self.server.protocol.ops, gets)
        writer.close()


class HostileClientTests(ServerHarness):
    """Connection cap, idle sweep, shutdown with clients attached."""

    async def test_connection_count_is_capped(self):
        with mock.patch.object(protocol, "MAX_CONNECTIONS", 2):
            first = await self.connect()
            second = await self.connect()
            for reader, writer in (first, second):
                self.assertTrue((await self.command(
                    reader, writer, b"version\r\n")).startswith(b"VERSION"))
            reader, writer = await self.connect()
            self.assertEqual(await asyncio.wait_for(reader.read(), 10),
                             b"SERVER_ERROR too many connections\r\n")
            writer.close()
            self.assertEqual(self.server.protocol.protocol_errors, 1)
            # The two inside keep working; a freed slot is reusable.
            self.assertEqual(
                await self.command(*first, b"set k 0 0 1\r\nv\r\n"),
                b"STORED\r\n")
            second[1].close()
            while len(self.server.protocol.live) > 1:
                await asyncio.sleep(0.01)
            reader, writer = await self.connect()
            self.assertTrue((await self.command(
                reader, writer, b"version\r\n")).startswith(b"VERSION"))
            writer.close()
            first[1].close()

    async def test_idle_connection_is_dropped_by_the_sweep(self):
        self.server.protocol.close()          # stop the 300 s timer ...
        with mock.patch.object(protocol, "IDLE_SECONDS", 0.05):
            self.server.protocol.sweep_idle()  # ... and re-arm it at 50 ms
            busy_reader, busy_writer = await self.connect()
            idle_reader, idle_writer = await self.connect()
            idle_writer.write(b"set half 0 0 10\r\nabc")   # then silence
            for _ in range(15):               # 0.3 s: at least five sweeps
                self.assertTrue((await self.command(
                    busy_reader, busy_writer, b"version\r\n")
                ).startswith(b"VERSION"))
                await asyncio.sleep(0.02)
            try:
                self.assertEqual(
                    await asyncio.wait_for(idle_reader.read(), 10), b"")
            except ConnectionError:
                pass
            self.assertEqual(len(self.server.protocol.live), 1)
            busy_writer.close()
            idle_writer.close()

    async def test_close_drops_live_connections_before_the_store(self):
        reader, writer = await self.connect()
        await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        writer.write(b"set half 0 0 10\r\nabc")             # mid-body
        await writer.drain()
        await self.server.close()
        self.assertEqual(self.server.protocol.live, set())
        try:
            self.assertEqual(await asyncio.wait_for(reader.read(), 10), b"")
        except ConnectionError:
            pass
        writer.close()
        with self.assertRaises(Exception):    # the store really is closed
            self.cache.store.count()


class TinyCapacityTests(ServerHarness):
    """Cache of 4 blocks (16KB) under a 1MB protocol ceiling."""

    capacity_mb = 4 * 4096 / (1 << 20)
    max_value_bytes = 1 << 20

    async def test_value_larger_than_whole_cache_rejected(self):
        # Fits the protocol ceiling but not the capacity budget.
        reader, writer = await self.connect()
        value = b"y" * (5 * 4096)
        writer.write(b"set big 0 0 %d\r\n" % len(value) + value + b"\r\n")
        await writer.drain()
        self.assertEqual(await reader.readline(),
                         b"SERVER_ERROR object too large for cache\r\n")
        self.assertEqual(
            self.cache.tenants["default"].stats.put_rejected_capacity, 1)
        writer.close()


class TenantTests(ServerHarness):
    async def test_tenants_map_to_distinct_containers(self):
        reader, writer = await self.connect()
        self.assertEqual(
            await self.command(reader, writer, b"tenant alice\r\n"),
            b"OK\r\n")
        await self.command(reader, writer, b"set k 0 0 5\r\nalice\r\n")
        self.assertEqual(
            await self.command(reader, writer, b"tenant bob\r\n"),
            b"OK\r\n")
        writer.write(b"get k\r\n")
        await writer.drain()
        self.assertEqual(await self.read_get(reader), {})  # isolated
        await self.command(reader, writer, b"set k 0 0 3\r\nbob\r\n")
        self.assertEqual(
            await self.command(reader, writer, b"tenant alice\r\n"),
            b"OK\r\n")
        writer.write(b"get k\r\n")
        await writer.drain()
        values = await self.read_get(reader)
        self.assertEqual(values["k"][1], b"alice")
        # Two distinct DD pools exist, one per tenant.
        self.assertEqual(
            {self.cache.tenants["alice"].pool_id,
             self.cache.tenants["bob"].pool_id}.__len__(), 2)
        writer.close()

    async def test_tenant_count_is_capped(self):
        from unittest import mock

        from repro.service import protocol

        reader, writer = await self.connect()
        with mock.patch.object(protocol, "MAX_TENANTS", 3):
            for index in range(3):
                self.assertEqual(
                    await self.command(reader, writer,
                                       b"tenant t%d\r\n" % index),
                    b"OK\r\n")
            self.assertEqual(
                await self.command(reader, writer, b"tenant t3\r\n"),
                b"SERVER_ERROR too many tenants\r\n")
            # Refused: no pool was minted and the connection stays where
            # it was; an existing tenant is still reachable.
            self.assertEqual(sorted(self.cache.tenants), ["t0", "t1", "t2"])
            await self.command(reader, writer, b"set k 0 0 1\r\nx\r\n")
            self.assertEqual(self.cache.store.tenant_bytes(), {"t2": 1})
            self.assertEqual(
                await self.command(reader, writer, b"tenant t0\r\n"),
                b"OK\r\n")
        writer.close()

    async def test_flush_all_scopes_to_connection_tenant(self):
        reader, writer = await self.connect()
        await self.command(reader, writer, b"tenant alice\r\n")
        await self.command(reader, writer, b"set k 0 0 1\r\na\r\n")
        await self.command(reader, writer, b"tenant bob\r\n")
        await self.command(reader, writer, b"set k 0 0 1\r\nb\r\n")
        await self.command(reader, writer, b"flush_all\r\n")  # bob only
        await self.command(reader, writer, b"tenant alice\r\n")
        writer.write(b"get k\r\n")
        await writer.drain()
        self.assertEqual(set(await self.read_get(reader)), {"k"})
        writer.close()

    async def test_concurrent_tenants_hitting_eviction(self):
        """Two tenants writing past capacity together: Algorithm 1 keeps
        both near their entitlements, no errors, accounting intact."""

        async def flood(tenant: str, count: int):
            reader, writer = await self.connect()
            await self.command(reader, writer,
                               b"tenant " + tenant.encode() + b"\r\n")
            payload = b"p" * 4096
            for i in range(count):
                writer.write(
                    b"set %s-%d 0 0 4096\r\n" % (tenant.encode(), i)
                    + payload + b"\r\n")
                await writer.drain()
                reply = await reader.readline()
                self.assertEqual(reply, b"STORED\r\n")
            writer.close()

        capacity = self.cache.capacity_blocks  # 256 blocks at 1MB/4KB
        per_tenant = capacity  # 2x capacity total → sustained eviction
        await asyncio.gather(flood("alice", per_tenant),
                             flood("bob", per_tenant))

        alice = self.cache.tenants["alice"]
        bob = self.cache.tenants["bob"]
        used = alice.used[StoreKind.SSD] + bob.used[StoreKind.SSD]
        self.assertEqual(used, self.cache.engine.used[StoreKind.SSD])
        self.assertLessEqual(used, capacity)
        # Both tenants survived with a fair share (Algorithm 1 evicts
        # the over-user, so neither can be starved below ~half of its
        # entitlement while the other holds a surplus).
        for pool in (alice, bob):
            self.assertGreaterEqual(
                pool.used[StoreKind.SSD],
                pool.entitlement[StoreKind.SSD] // 2)
        self.assertGreater(alice.stats.evictions + bob.stats.evictions, 0)
        self.assertEqual(self.server.protocol.protocol_errors, 0)
        # Disk store agrees with the metadata layer.
        self.assertEqual(self.cache.store.count(),
                         self.cache.stats()["_host"]["entries"])


class MetricsWiringTests(ServerHarness):
    async def test_wallclock_histograms_populate_at_ns_scale(self):
        reader, writer = await self.connect()
        await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        writer.write(b"get k\r\n")
        await writer.drain()
        await self.read_get(reader)
        writer.close()
        for op in ("get", "set"):
            hist = self.cache.registry.wallclock_histogram(
                f"service.lat.{op}")
            self.assertGreaterEqual(hist.count, 1)
            # ns-bucketed: real sub-millisecond latencies never collapse
            # into the underflow bucket.
            self.assertNotIn(0, hist._counts)
            self.assertGreater(hist.quantile(0.5), 1.0)

    async def test_stats_command_reports_latency_percentiles(self):
        reader, writer = await self.connect()
        await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        writer.write(b"stats\r\n")
        await writer.drain()
        lines = []
        while True:
            line = await reader.readline()
            if line.startswith(b"END"):
                break
            lines.append(line.decode())
        writer.close()
        joined = "".join(lines)
        self.assertIn("STAT default:puts_stored 1", joined)
        self.assertIn("lat:set:p50_ns", joined)
        self.assertIn("lat:set:p99_ns", joined)


class StatsCommandTests(ServerHarness):
    async def read_stats(self, reader, writer, line: bytes) -> str:
        writer.write(line)
        await writer.drain()
        lines = []
        while True:
            reply = await reader.readline()
            if reply.startswith((b"END", b"CLIENT_ERROR")):
                lines.append(reply.decode())
                return "".join(lines)
            lines.append(reply.decode())

    async def test_stats_reports_float_hit_ratio_and_parses(self):
        from repro.service.protocol import parse_stats

        reader, writer = await self.connect()
        await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        writer.write(b"get k\r\nget missing\r\n")
        await writer.drain()
        await self.read_get(reader)
        await self.read_get(reader)
        payload = await self.read_stats(reader, writer, b"stats\r\n")
        writer.close()
        parsed = parse_stats(payload)
        # Counters parse as ints, the derived ratio as a true float —
        # the old int-only parser dropped every fractional value.
        self.assertEqual(parsed["default:gets"], 2)
        self.assertEqual(parsed["default:get_hits"], 1)
        self.assertIsInstance(parsed["default:hit_ratio"], float)
        self.assertAlmostEqual(parsed["default:hit_ratio"], 0.5)

    async def test_stats_tenants_breakdown(self):
        from repro.service.protocol import parse_stats

        reader, writer = await self.connect()
        await self.command(reader, writer, b"tenant alpha\r\n")
        await self.command(reader, writer, b"set a 0 0 4\r\nAAAA\r\n")
        await self.command(reader, writer, b"tenant beta\r\n")
        await self.command(reader, writer, b"set b 0 0 4\r\nBBBB\r\n")
        payload = await self.read_stats(reader, writer, b"stats tenants\r\n")
        writer.close()
        parsed = parse_stats(payload)
        self.assertEqual(parsed["alpha:puts_stored"], 1)
        self.assertEqual(parsed["beta:puts_stored"], 1)
        self.assertEqual(parsed["alpha:bytes"], 4)
        # Two tenants, one stored block each: shares halve and sum to 1.
        self.assertAlmostEqual(parsed["alpha:occupancy_share"], 0.5)
        self.assertAlmostEqual(
            parsed["alpha:occupancy_share"]
            + parsed["beta:occupancy_share"], 1.0)
        self.assertNotIn("_host:used_blocks", parsed)

    async def test_stats_unknown_subcommand_is_client_error(self):
        reader, writer = await self.connect()
        reply = await self.command(reader, writer, b"stats bogus\r\n")
        self.assertTrue(reply.startswith(b"CLIENT_ERROR"), reply)
        # The connection survives a bad sub-command.
        reply = await self.command(reader, writer, b"version\r\n")
        self.assertTrue(reply.startswith(b"VERSION"), reply)
        writer.close()


class AdmissionTests(ServerHarness):
    admission = "second_access"

    async def test_second_access_admission_gates_first_put(self):
        reader, writer = await self.connect()
        reply = await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        self.assertEqual(reply, b"NOT_STORED\r\n")  # first sight: ghost
        reply = await self.command(reader, writer, b"set k 0 0 1\r\nv\r\n")
        self.assertEqual(reply, b"STORED\r\n")      # second sight: admit
        self.assertEqual(
            self.cache.tenants["default"].stats.put_rejected_admission, 1)
        writer.close()

    async def store_then_refuse_overwrite(self):
        """``set k v1`` (ghost, then stored), then a refused ``set k v2``."""
        reader, writer = await self.connect()
        for expected in (b"NOT_STORED\r\n", b"STORED\r\n"):
            reply = await self.command(reader, writer, b"set k 0 0 2\r\nv1\r\n")
            self.assertEqual(reply, expected)
        reply = await self.command(reader, writer, b"set k 0 0 2\r\nv2\r\n")
        self.assertEqual(reply, b"NOT_STORED\r\n")
        return reader, writer

    async def test_refused_overwrite_drops_the_old_value(self):
        reader, writer = await self.store_then_refuse_overwrite()
        writer.write(b"get k\r\n")
        await writer.drain()
        self.assertEqual(await self.read_get(reader), {})  # not stale v1
        self.assertEqual(self.cache.store.count(),
                         self.cache.stats()["_host"]["entries"])
        writer.close()

    async def test_refused_overwrite_stays_dropped_across_restart(self):
        _, writer = await self.store_then_refuse_overwrite()
        writer.close()
        await self.server.close()
        reopened = ServiceCache(
            DiskStore(self._tmp.name, sync_writes=False),
            capacity_mb=self.capacity_mb, admission=self.admission)
        try:
            self.assertIsNone(reopened.get("default", "k"))
            self.assertEqual(reopened.store.count(),
                             reopened.stats()["_host"]["entries"])
        finally:
            reopened.close()


    async def test_write_throttle_charges_every_block_of_an_entry(self):
        # At a frozen clock the 64 MiB burst buys exactly 64 one-MiB
        # values — not 16 383, which is what one block per entry admits.
        with tempfile.TemporaryDirectory() as tmp:
            cache = ServiceCache(
                DiskStore(tmp, sync_writes=False), capacity_mb=4.0,
                admission="write_throttle", clock=lambda: 0.0)
            try:
                value = b"x" * (1 << 20)
                statuses = [cache.set("default", f"k{i}", value)
                            for i in range(65)]
            finally:
                cache.close()
        self.assertEqual(
            statuses, [SetStatus.STORED] * 64 + [SetStatus.NOT_STORED])


class CapacityRefusalTests(ServerHarness):
    async def test_overwrite_refused_for_capacity_leaves_no_orphan_row(self):
        self.assertEqual(self.cache.set("default", "k", b"v1"), SetStatus.STORED)
        self.cache._make_room = lambda blocks: False  # eviction finds no victim
        self.assertEqual(self.cache.set("default", "k", b"v2"),
                         SetStatus.NOT_STORED)
        self.assertIsNone(self.cache.get("default", "k"))
        self.assertEqual(self.cache.store.count(),
                         self.cache.stats()["_host"]["entries"])


class LifecycleTests(ServerHarness):
    """Shutdown races: the DD012 finding fixed in server.close()."""

    async def test_concurrent_close_is_idempotent(self):
        # A SIGTERM handler racing a failed-startup unwind used to
        # double-close the listener: both coroutines read self._server,
        # suspended in wait_closed(), then each closed it again.  The
        # capture-and-swap makes the loser see None.
        await asyncio.gather(self.server.close(), self.server.close())
        # tearDown's third close() must also be a no-op.

    async def test_close_after_close_is_a_noop(self):
        await self.server.close()
        await self.server.close()
        self.assertIsNone(self.server._server)


class CommandLineTests(unittest.TestCase):
    """The numeric flags are checked while parsing: a bad value exits 2
    with a usage message, before ``main`` opens the store directory."""

    BAD = [
        ("--capacity-mb", "-1"), ("--capacity-mb", "0"),
        ("--capacity-mb", "nan"), ("--capacity-mb", "inf"),
        ("--eviction-batch-mb", "-1"), ("--eviction-batch-mb", "nan"),
        ("--max-value-bytes", "0"), ("--trace-sample", "0"),
        ("--slow-op-ms", "-0.5"), ("--slow-op-ms", "nan"),
        ("--capacity-mb", "lots"),
    ]

    def test_bad_values_exit_2_at_parse_time(self):
        from repro.service.__main__ import build_parser

        for flag, value in self.BAD:
            with self.subTest(flag=flag, value=value):
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), \
                        self.assertRaises(SystemExit) as exit_:
                    build_parser().parse_args([flag, value])
                self.assertEqual(exit_.exception.code, 2)
                self.assertIn(flag, stderr.getvalue())

    def test_boundary_values_parse(self):
        from repro.service.__main__ import build_parser

        args = build_parser().parse_args([
            "--capacity-mb", "0.5", "--eviction-batch-mb", "0.1",
            "--max-value-bytes", "1", "--trace-sample", "1",
            "--slow-op-ms", "0"])
        self.assertEqual((args.capacity_mb, args.eviction_batch_mb,
                          args.max_value_bytes, args.trace_sample,
                          args.slow_op_ms), (0.5, 0.1, 1, 1, 0.0))

    def test_bad_ports_exit_2_before_the_store_is_opened(self):
        from repro.service.__main__ import main

        for flag, value in [("--port", "70000"), ("--port", "-1"),
                            ("--port", "65536"), ("--metrics-port", "65536"),
                            ("--metrics-port", "-5"), ("--port", "http")]:
            with self.subTest(flag=flag, value=value), \
                    tempfile.TemporaryDirectory() as tmp:
                directory = os.path.join(tmp, "store")
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), \
                        self.assertRaises(SystemExit) as exit_:
                    main([flag, value, "--dir", directory])
                self.assertEqual(exit_.exception.code, 2)
                self.assertIn(flag, stderr.getvalue())
                self.assertFalse(os.path.exists(directory))

    def test_port_bounds_parse(self):
        from repro.service.__main__ import build_parser

        args = build_parser().parse_args(
            ["--port", "0", "--metrics-port", "65535"])
        self.assertEqual((args.port, args.metrics_port), (0, 65535))


if __name__ == "__main__":
    unittest.main()
