"""Anonymous memory with swap, per container.

Applications like Redis and MySQL keep their working sets in anonymous
memory; the hypervisor cache cannot help them (Table 1's key observation).
Under memory pressure anonymous pages are swapped out and must be faulted
back in from the (slow) swap device.

Pure data structure; the guest OS charges/uncharges the owning cgroup and
performs the actual swap IO.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

__all__ = ["AnonSpace"]


class AnonSpace:
    """One container's anonymous pages (page granularity = block size)."""

    __slots__ = ("resident", "swapped", "swap_slots", "_next_slot")

    def __init__(self) -> None:
        #: Resident pages, LRU order (values are VM-wide access seqs).
        self.resident: "OrderedDict[int, int]" = OrderedDict()
        #: Pages currently on the swap device.
        self.swapped: Set[int] = set()
        #: page -> swap slot (device block) while swapped.
        self.swap_slots: Dict[int, int] = {}
        self._next_slot = 0

    @property
    def resident_pages(self) -> int:
        return len(self.resident)

    @property
    def swapped_pages(self) -> int:
        return len(self.swapped)

    def is_resident(self, page: int) -> bool:
        return page in self.resident

    def is_swapped(self, page: int) -> bool:
        return page in self.swapped

    def touch(self, page: int, seq: int) -> str:
        """Access a page; returns its prior state.

        ``"resident"`` — LRU bumped; ``"swapped"`` — caller must fault it
        in (then call :meth:`fault_in`); ``"new"`` — caller must charge and
        call :meth:`map_new`.
        """
        if page in self.resident:
            self.resident.move_to_end(page)
            self.resident[page] = seq
            return "resident"
        if page in self.swapped:
            return "swapped"
        return "new"

    def map_new(self, page: int, seq: int) -> None:
        """Make a never-seen page resident."""
        if page in self.resident or page in self.swapped:
            raise ValueError(f"anon page {page} already mapped")
        self.resident[page] = seq

    def fault_in(self, page: int, seq: int) -> int:
        """Bring a swapped page back; returns the swap slot it came from."""
        if page not in self.swapped:
            raise ValueError(f"anon page {page} is not swapped")
        self.swapped.discard(page)
        slot = self.swap_slots.pop(page)
        self.resident[page] = seq
        return slot

    def swap_out_coldest(self, count: int) -> List[int]:
        """Detach up to ``count`` coldest resident pages to swap.

        Returns the swap slots written (callers issue the device writes).
        """
        slots: List[int] = []
        while self.resident and len(slots) < count:
            page, _ = self.resident.popitem(last=False)
            slot = self._next_slot
            self._next_slot += 1
            self.swapped.add(page)
            self.swap_slots[page] = slot
            slots.append(slot)
        return slots

    def coldest_seq(self) -> Optional[int]:
        """Sequence number of the coldest resident page (global LRU)."""
        if not self.resident:
            return None
        return self.resident[next(iter(self.resident))]

    def release_all(self) -> int:
        """Free everything (container teardown); returns pages released."""
        freed = len(self.resident)
        self.resident.clear()
        self.swapped.clear()
        self.swap_slots.clear()
        return freed
