"""Asyncio TCP front-end binding the protocol to a ServiceCache.

``loop.create_server`` makes one parser per accepted socket through
:meth:`MemcacheProtocol.connection` — no task and no stream objects per
connection; the parser states and the flush / back-pressure rule are
described in :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from .cache import ServiceCache
from .protocol import MAX_VALUE_BYTES, MemcacheProtocol

__all__ = ["CacheServer"]


class CacheServer:
    """One listening socket serving the memcached text protocol."""

    def __init__(self, cache: ServiceCache, host: str = "127.0.0.1",
                 port: int = 11311,
                 max_value_bytes: int = MAX_VALUE_BYTES,
                 tracer=None, ops_log=None) -> None:
        self.cache = cache
        self.host = host
        self.port = port
        self.protocol = MemcacheProtocol(cache, max_value_bytes,
                                         tracer=tracer, ops_log=ops_log)
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        """Bind and start accepting; ``port`` 0 picks a free port."""
        self._server = await asyncio.get_running_loop().create_server(
            self.protocol.connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.protocol.sweep_idle()  # nothing to drop yet: arms the timer

    async def close(self) -> None:
        # Capture-and-swap before the first await: a concurrent close()
        # (SIGTERM racing a failed-startup unwind) must see None instead
        # of double-closing the listener or re-closing a cache whose
        # store is already shut.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # Transports go before the store, so no parser callback can
            # reach a closed store; one loop pass then runs their
            # connection_lost (closing the `conn` spans) before the
            # caller writes its trace.
            self.protocol.close()
            await server.wait_closed()
            await asyncio.sleep(0)
        self.cache.close()
