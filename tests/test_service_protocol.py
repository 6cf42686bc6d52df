"""Memcached protocol edge cases against a live asyncio server."""

import asyncio
import tempfile
import unittest

from repro.core import StoreKind
from repro.service import DiskStore, ServiceCache, SetStatus
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

    async def test_oversized_body_is_never_buffered(self):
        # A client may *declare* a gigabyte; the server must discard it
        # in bounded reads instead of asking the stream for all of it.
        declared = 1 << 30
        sizes = []

        class Reader:
            def __init__(self):
                self.lines = [b"set big 0 0 %d\r\n" % declared]

            async def readline(self):
                return self.lines.pop(0) if self.lines else b""

            async def readexactly(self, n):
                sizes.append(n)
                return b""

        class Writer:
            sent = b""

            def write(self, data):
                self.sent += data

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        writer = Writer()
        await self.server.protocol.handle(Reader(), writer)
        self.assertEqual(writer.sent,
                         b"SERVER_ERROR object too large for cache\r\n")
        self.assertEqual(sum(sizes), declared + 2)
        self.assertLessEqual(max(sizes), 64 * 1024)

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
        self.assertEqual(used, self.cache.used_blocks)
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


if __name__ == "__main__":
    unittest.main()
