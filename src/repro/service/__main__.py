"""CLI: ``python -m repro.service --port 11311 --dir /tmp/ddcache``.

Telemetry flags wire in :mod:`repro.obs.live`: ``--metrics-port`` starts
the Prometheus ``/metrics`` + ``/healthz`` sidecar on the same event
loop, ``--trace`` records a wall-clock span trace written at shutdown
(read it with ``python -m repro.obs``), and ``--ops-log`` appends
structured JSON operational events (otherwise they go to stderr).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from pathlib import Path

from .._cli import bounded
from ..endurance import ADMISSION_POLICIES
from ..obs import OpsLogger, TelemetrySidecar, Tracer, bind_store_probe
from .cache import ServiceCache
from .protocol import MAX_VALUE_BYTES
from .server import CacheServer
from .store import DiskStore


def _port(text: str) -> int:
    """An argparse ``type=``: a TCP port, 0 (pick a free one) to 65535."""
    port = bounded(int, 0)(text)
    if port > 65535:
        raise argparse.ArgumentTypeError(f"must be at most 65535, got {text}")
    return port


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="DoubleDecker disk cache service (memcached text "
                    "protocol; per-tenant DD containers).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_port, default=11311,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--dir", default="./ddcache",
                        help="persistent store directory")
    parser.add_argument("--capacity-mb", type=bounded(float, 0, strict=True),
                        default=64.0,
                        help="disk cache capacity in MB")
    parser.add_argument("--eviction-batch-mb",
                        type=bounded(float, 0, strict=True), default=2.0,
                        help="Algorithm-1 eviction batch (the paper's 2MB)")
    parser.add_argument("--admission", default=None,
                        choices=list(ADMISSION_POLICIES),
                        help="SSD admission controller for every tenant")
    parser.add_argument("--max-value-bytes", type=bounded(int, 1),
                        default=MAX_VALUE_BYTES)
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip per-value fsync (benchmarks only)")
    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument("--metrics-port", type=_port, default=None,
                           help="serve /metrics and /healthz on this "
                                "port (0 picks a free one)")
    telemetry.add_argument("--metrics-host", default="127.0.0.1")
    telemetry.add_argument("--trace", default=None, metavar="PATH",
                           help="record a wall-clock JSONL trace, written "
                                "at shutdown")
    telemetry.add_argument("--trace-sample", type=bounded(int, 1), default=1,
                           help="keep 1-in-N span events in the trace ring")
    telemetry.add_argument("--ops-log", default=None, metavar="PATH",
                           help="append structured JSON ops events here "
                                "(default: stderr)")
    telemetry.add_argument("--slow-op-ms", type=bounded(float, 0),
                           default=10.0,
                           help="slow-op log threshold in milliseconds")
    return parser


async def _run(args: argparse.Namespace, ops_stream=None) -> None:
    ops = OpsLogger(stream=ops_stream,
                    slow_op_ns=int(args.slow_op_ms * 1e6))
    tracer = (Tracer(sample=args.trace_sample, clock=time.monotonic_ns)
              if args.trace else None)

    store = DiskStore(args.dir, sync_writes=not args.no_fsync)
    cache = ServiceCache(
        store,
        capacity_mb=args.capacity_mb,
        eviction_batch_mb=args.eviction_batch_mb,
        admission=args.admission,
        tracer=tracer,
    )
    if tracer is not None:
        bind_store_probe(store, tracer, registry=cache.registry)

    server = CacheServer(cache, host=args.host, port=args.port,
                         max_value_bytes=args.max_value_bytes,
                         tracer=tracer, ops_log=ops)
    await server.start()
    print(f"repro.service listening on {server.host}:{server.port} "
          f"(dir={store.directory}, capacity={args.capacity_mb}MB)",
          flush=True)

    sidecar = None
    if args.metrics_port is not None:
        sidecar = TelemetrySidecar(cache, protocol=server.protocol,
                                   host=args.metrics_host,
                                   port=args.metrics_port)
        await sidecar.start()
        print(f"repro.service metrics on "
              f"http://{sidecar.host}:{sidecar.port}/metrics", flush=True)
    ops.log("server.start", host=server.host, port=server.port,
            dir=store.directory, capacity_mb=args.capacity_mb,
            metrics_port=sidecar.port if sidecar else None)

    # Graceful shutdown on SIGINT/SIGTERM so the trace is written even
    # when CI kills the process.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            break  # event-loop signals unsupported; KeyboardInterrupt rules
    try:
        await stop.wait()
    finally:
        if sidecar is not None:
            sidecar.close()
            await sidecar.wait_closed()
        ops.log("server.stop", ops=server.protocol.ops,
                connections=server.protocol.connections,
                protocol_errors=server.protocol.protocol_errors)
        await server.close()
        if tracer is not None:
            from ..obs import to_jsonl

            Path(args.trace).write_text(to_jsonl(tracer))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The ops stream opens here, outside the event loop: file I/O in the
    # sync entry point, never inside an async def.
    ops_stream = open(args.ops_log, "a") if args.ops_log else None
    try:
        asyncio.run(_run(args, ops_stream))
    except KeyboardInterrupt:
        pass
    finally:
        if ops_stream is not None:
            ops_stream.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
