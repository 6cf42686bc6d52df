"""Shared resources with FIFO queueing.

:class:`Resource` models a server with fixed capacity (e.g., a disk spindle
or an SSD channel).  Processes ``yield resource.request()`` to queue for a
slot and call ``release`` (or use the request as a context manager) when
done.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... use the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A server with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        self._waiting: Deque[Request] = deque()
        # Cumulative busy time bookkeeping for utilization stats.
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot claimed by ``request``."""
        if request in self._users:
            self._users.discard(request)
            self._grant_waiters()
            self._update_busy()
        else:
            # Releasing an ungranted request cancels it.
            self._cancel(request)

    def busy_time(self) -> float:
        """Total time at least one slot was busy (for utilization metrics)."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    # -- internals ---------------------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant_waiters()

    def _cancel(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_waiters(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            request = self._waiting.popleft()
            self._users.add(request)
            request.succeed()
        self._update_busy()

    def _update_busy(self) -> None:
        if self._users and self._busy_since is None:
            self._busy_since = self.env.now
        elif not self._users and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None
