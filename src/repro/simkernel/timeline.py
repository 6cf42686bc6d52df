"""The kernel's event queue: a binary heap behind two methods.

Entries are ``(time, priority, eid, event)`` tuples and pop order is
tuple order.  ``eid`` strictly increases, so entries with equal time and
priority pop FIFO and the event itself is never compared.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["Timeline"]

#: A queue entry: ``(time, priority, eid, event)``.
Entry = Tuple[float, int, int, Any]


class Timeline:
    """Min-heap of scheduled entries."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: Entry) -> None:
        """Insert ``entry``."""
        heappush(self._heap, entry)

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest entry, or ``None`` when empty."""
        heap = self._heap
        return heappop(heap) if heap else None
