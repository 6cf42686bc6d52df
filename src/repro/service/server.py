"""Asyncio TCP front-end binding the protocol to a ServiceCache."""

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
        # asyncio reads with recv(256 KiB).  Under glibc's default 128 KiB
        # mmap threshold every such buffer is a fresh mmap + two page
        # faults + munmap (~20 us per request here); freeing one larger
        # block first raises the threshold so they come from the heap.
        bytes(1 << 20)
        self._server = await asyncio.start_server(
            self.protocol.handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        # Capture-and-swap before the first await: a concurrent close()
        # (SIGTERM racing a failed-startup unwind) must see None instead
        # of double-closing the listener or re-closing a cache whose
        # store is already shut.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self.cache.close()
