"""Block index for the hypervisor cache pools.

:class:`BlockTable` is a flat parallel-array slab keyed by integer
*handles*, with intrusive doubly-linked FIFOs per store and a free-list
threaded through the ``next`` array.  Pools index
``inode -> {block -> handle}``; all per-block state (identity, store,
FIFO links) lives in the arrays, so the steady-state data path allocates
no per-block Python objects at all.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

__all__ = ["BlockTable", "NIL"]

#: Null handle / empty link sentinel in the slab arrays.
NIL = -1


class BlockTable:
    """Flat per-pool block state: parallel arrays indexed by handle.

    Parallel planes (one slot per handle)::

        inode  int64   owning file
        block  int64   block offset within the file
        kind   uint8   store code (0 = free slot, callers define 1..N)
        prev   int32   FIFO predecessor (newer -> older is next-direction)
        next   int32   FIFO successor, or next free handle for free slots

    Per store code there is one intrusive FIFO (``heads[code]`` is the
    oldest entry, ``tails[code]`` the newest); insertion links at the
    tail, eviction pops the head, a hit unlinks from the middle — all
    O(1) integer writes.  Freed handles go on a free-list threaded
    through ``next`` so the slab reuses slots before growing.
    """

    #: Store codes: slot empty / caller-defined stores.  Code 0 is
    #: reserved for free slots so a stale handle is cheap to detect.
    FREE = 0

    __slots__ = ("inode", "block", "kind", "prev", "next",
                 "heads", "tails", "free_head")

    def __init__(self, codes: int = 3) -> None:
        if codes < 2:
            raise ValueError(f"need at least one non-free store code, got {codes}")
        self.inode = array("q")
        self.block = array("q")
        self.kind = bytearray()
        self.prev = array("i")
        self.next = array("i")
        self.heads = array("i", [NIL] * codes)
        self.tails = array("i", [NIL] * codes)
        self.free_head = NIL

    def __len__(self) -> int:
        """Slab capacity in slots (free and live)."""
        return len(self.kind)

    # -- mutation ----------------------------------------------------------

    def alloc(self, inode: int, block: int, code: int) -> int:
        """Claim a slot for ``(inode, block)`` and queue it on ``code``'s
        FIFO tail; returns the handle."""
        handle = self.free_head
        if handle < 0:
            handle = len(self.kind)
            self.inode.append(inode)
            self.block.append(block)
            self.kind.append(code)
            self.prev.append(NIL)
            self.next.append(NIL)
        else:
            self.free_head = self.next[handle]
            self.inode[handle] = inode
            self.block[handle] = block
            self.kind[handle] = code
            self.next[handle] = NIL
        tail = self.tails[code]
        self.prev[handle] = tail
        if tail < 0:
            self.heads[code] = handle
        else:
            self.next[tail] = handle
        self.tails[code] = handle
        return handle

    def unlink(self, handle: int, code: int) -> None:
        """Detach ``handle`` from ``code``'s FIFO (it stays allocated)."""
        p = self.prev[handle]
        n = self.next[handle]
        if p < 0:
            self.heads[code] = n
        else:
            self.next[p] = n
        if n < 0:
            self.tails[code] = p
        else:
            self.prev[n] = p

    def free(self, handle: int) -> None:
        """Return an unlinked ``handle`` to the free-list."""
        self.kind[handle] = 0
        self.next[handle] = self.free_head
        self.free_head = handle

    def release(self, handle: int) -> int:
        """Unlink + free in one step; returns the store code it was on."""
        code = self.kind[handle]
        self.unlink(handle, code)
        self.free(handle)
        return code

    def requeue(self, handle: int, code: int) -> int:
        """Move ``handle`` to the tail of ``code``'s FIFO (store change or
        refresh); returns the previous code."""
        old = self.kind[handle]
        self.unlink(handle, old)
        self.kind[handle] = code
        tail = self.tails[code]
        self.prev[handle] = tail
        self.next[handle] = NIL
        if tail < 0:
            self.heads[code] = handle
        else:
            self.next[tail] = handle
        self.tails[code] = handle
        return old

    def pop_head(self, code: int) -> int:
        """Unlink and free the oldest entry of ``code``'s FIFO; returns
        its handle (still readable until the next alloc), or ``NIL``."""
        handle = self.heads[code]
        if handle < 0:
            return NIL
        n = self.next[handle]
        self.heads[code] = n
        if n < 0:
            self.tails[code] = NIL
        else:
            self.prev[n] = NIL
        self.free(handle)
        return handle

    def reset(self) -> None:
        """Drop everything (pool drain): empty slab, empty FIFOs."""
        del self.inode[:]
        del self.block[:]
        del self.kind[:]
        del self.prev[:]
        del self.next[:]
        for code in range(len(self.heads)):
            self.heads[code] = NIL
            self.tails[code] = NIL
        self.free_head = NIL

    # -- sweeps ------------------------------------------------------------

    def fifo_handles(self, code: int, limit: Optional[int] = None) -> Iterator[int]:
        """Handles on ``code``'s FIFO, oldest first.  ``limit`` bounds the
        walk (auditors pass the slab size to survive corrupted links)."""
        if limit is None:
            limit = len(self.kind)
        handle = self.heads[code]
        nxt = self.next
        while handle >= 0 and limit > 0:
            yield handle
            handle = nxt[handle]
            limit -= 1

    def fifo_keys(self, code: int) -> Iterator[Tuple[int, int]]:
        """``(inode, block)`` keys on ``code``'s FIFO, oldest first."""
        inode = self.inode
        block = self.block
        for handle in self.fifo_handles(code):
            yield (inode[handle], block[handle])

    def occupancy(self) -> List[int]:
        """Live slot count per store code (index = code), by sweeping the
        ``kind`` plane."""
        return [self.kind.count(code) for code in range(len(self.heads))]
