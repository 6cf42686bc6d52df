"""``python -m repro.service`` end to end: one real server process.

The server is started the way an operator starts it (free ports, a
trace, an ops log, a store directory), driven with a fixed script over
a plain socket, scraped over HTTP, stopped with SIGTERM, and then every
artifact it leaves is checked: the strict trace, the ops log's stop
event, the offline store inspector and the stored bytes themselves.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import unittest
import urllib.request

from repro.metrics.exposition import check_exposition
from repro.obs.analyze import load_trace
from repro.obs.export import validate_trace
from repro.service.store import INLINE_BYTES, DiskStore

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

TENANTS = ("tenant0", "tenant1")
#: 1 MB holds 128 values of 8 KiB; two tenants set 100 each,
#: interleaved, so both go over their half and evict their oldest.
VALUE_BYTES = 8192
SETS_PER_TENANT = 100


def value_of(tenant, index):
    """A value no other (tenant, index) shares, any byte of it."""
    stem = f"{tenant}/{index}/".encode()
    return (stem * (VALUE_BYTES // len(stem) + 1))[:VALUE_BYTES]


class Client:
    """One memcached text-protocol connection, replies read exactly."""

    def __init__(self, port, tenant):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buffer = b""
        self.command(f"tenant {tenant}".encode(), b"OK\r\n")

    def _read(self, size):
        while len(self.buffer) < size:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        out, self.buffer = self.buffer[:size], self.buffer[size:]
        return out

    def command(self, line, expected, body=None):
        self.sock.sendall(line + b"\r\n" + (body + b"\r\n" if body else b""))
        reply = self._read(len(expected))
        assert reply == expected, (line, reply, expected)

    def get(self, key):
        """The value of ``key``, or None on a miss."""
        self.sock.sendall(b"get " + key + b"\r\n")
        header = self._read(5)
        if header == b"END\r\n":
            return None
        while not header.endswith(b"\r\n"):
            header += self._read(1)
        name, flags, size = header.split()[1:]
        assert (name, flags) == (key, b"0"), header
        data = self._read(int(size))
        assert self._read(7) == b"\r\nEND\r\n"
        return data

    def quit(self):
        """``quit``, then wait for the server's close."""
        self.sock.sendall(b"quit\r\n")
        assert self.sock.recv(1) == b""
        self.sock.close()


def http_get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as response:
        assert response.status == 200, path
        return response.read().decode()


class ServiceEntryPointTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.trace = os.path.join(tmp.name, "trace.jsonl")
        self.ops_log = os.path.join(tmp.name, "ops.jsonl")
        self.store_dir = os.path.join(tmp.name, "store")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--metrics-port", "0", "--no-fsync", "--capacity-mb", "1",
             "--trace", self.trace, "--ops-log", self.ops_log,
             "--dir", self.store_dir],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.addCleanup(self._reap)
        self.port = self._announced_port()
        self.metrics_port = self._announced_port()

    def _announced_port(self):
        """Parse ``... listening on host:port (...)`` /
        ``... metrics on http://host:port/metrics``."""
        line = self.proc.stdout.readline().decode()
        match = re.search(r"127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.fail(f"no port in the banner {line!r}: "
                      f"{self.proc.stderr.read().decode()}")
        return int(match.group(1))

    def _reap(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=10)

    def test_script_scrape_stop_and_artifacts(self):
        self.assertGreater(VALUE_BYTES, INLINE_BYTES)  # values go to the slab
        clients = {tenant: Client(self.port, tenant) for tenant in TENANTS}
        for index in range(SETS_PER_TENANT):
            for tenant, client in clients.items():
                value = value_of(tenant, index)
                client.command(f"set k{index} 0 0 {len(value)}".encode(),
                               b"STORED\r\n", body=value)
        for tenant, client in clients.items():
            # FIFO per tenant: the oldest went, the newest is served.
            self.assertIsNone(client.get(b"k0"), tenant)
            last = SETS_PER_TENANT - 1
            self.assertEqual(client.get(f"k{last}".encode()),
                             value_of(tenant, last))
            self.assertIsNone(client.get(b"never-set"))

        self.assertEqual(json.loads(http_get(self.metrics_port, "/healthz")),
                         {"ok": True})
        body = http_get(self.metrics_port, "/metrics")
        self.assertEqual(check_exposition(body), [])
        for tenant in TENANTS:
            self.assertIn(f'dd_tenant_get_hits_total{{tenant="{tenant}"}}',
                          body)
            self.assertIn(f'dd_tenant_evictions_total{{tenant="{tenant}"}}',
                          body)
        self.assertIn("dd_service_lat_get_bucket", body)

        for client in clients.values():
            client.quit()
        self.proc.send_signal(signal.SIGTERM)
        self.assertEqual(self.proc.wait(timeout=10), 0)

        meta, events = load_trace(self.trace)
        self.assertEqual(validate_trace(meta, events, allow_open_spans=False),
                         [])
        with open(self.ops_log) as handle:
            stops = [record for record in map(json.loads, handle)
                     if record["event"] == "server.stop"]
        self.assertEqual(len(stops), 1)
        self.assertEqual(stops[0]["protocol_errors"], 0)

        check = subprocess.run(
            [sys.executable, "-m", "repro.service.check", self.store_dir],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(check.returncode, 0, check.stdout)

        # What survived is exactly what was last set, byte for byte.
        store = DiskStore(self.store_dir)
        try:
            entries = list(store.iter_entries())
            self.assertEqual({entry.tenant for entry in entries}, set(TENANTS))
            for entry in entries:
                index = int(entry.key[1:])
                self.assertEqual(store.get(entry.entry_id),
                                 value_of(entry.tenant, index), entry)
        finally:
            store.close()


if __name__ == "__main__":
    unittest.main()
