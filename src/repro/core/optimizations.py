"""Storage optimizations: in-band compression and content deduplication.

The paper lists both as hypervisor-cache memory-efficiency levers
("perform in-band compression and deduplication", §1; cache-level dedup
is called out as directly incorporable in §6).  This module models them
at the granularity that matters for capacity accounting:

* :class:`CompressionModel` — each stored block compresses to a
  per-block ratio drawn deterministically from its key (so the same
  block always compresses the same way); the memory store then charges
  *compressed* sub-block units instead of whole blocks, trading extra
  CPU time per access (zcache's bargain).
* :class:`DedupIndex` — blocks carry content fingerprints; storing a
  block whose fingerprint is already resident only bumps a refcount.
  The simulation derives fingerprints from a configurable content map
  (workloads can declare files that share content, e.g., identical
  base-image files across containers/VMs).
* :class:`MemoryUnits` — the memory store's unit total when either is
  on, charged and released by the cache pools.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

__all__ = ["CompressionModel", "DedupIndex", "MemoryUnits", "content_fingerprint"]


@dataclass(frozen=True)
class CompressionModel:
    """Per-block compressibility and its CPU cost.

    ``min_ratio``/``max_ratio`` bound the compressed-size fraction; a
    block's ratio is a deterministic hash of its identity, so capacity
    accounting is stable across insert/evict cycles.  ``compress_us`` /
    ``decompress_us`` are charged per block on put/get (LZO-class costs
    for 64 KiB blocks by default).
    """

    min_ratio: float = 0.35
    max_ratio: float = 0.85
    compress_us: float = 25.0
    decompress_us: float = 12.0
    #: Capacity accounting granularity: a block is charged in 1/16ths.
    granularity: int = 16

    def __post_init__(self) -> None:
        if not (0.0 < self.min_ratio <= self.max_ratio <= 1.0):
            raise ValueError(f"bad ratio bounds: {self}")
        if self.granularity < 1:
            raise ValueError(f"granularity must be >= 1: {self}")

    def ratio_for(self, key: Hashable) -> float:
        """Deterministic compressed-size fraction for a block."""
        digest = hashlib.blake2s(repr(key).encode(), digest_size=4).digest()
        unit = int.from_bytes(digest, "big") / 0xFFFFFFFF
        return self.min_ratio + unit * (self.max_ratio - self.min_ratio)

    def charged_units(self, key: Hashable) -> int:
        """Sub-block units (out of ``granularity``) this block occupies."""
        ratio = self.ratio_for(key)
        return max(1, round(ratio * self.granularity))

    def compress_cost(self, nblocks: int) -> float:
        """Seconds of CPU to compress ``nblocks``."""
        return nblocks * self.compress_us * 1e-6

    def decompress_cost(self, nblocks: int) -> float:
        """Seconds of CPU to decompress ``nblocks``."""
        return nblocks * self.decompress_us * 1e-6


def content_fingerprint(namespace: Hashable, inode: int, block: int) -> int:
    """Default fingerprint: every (namespace, inode, block) is unique.

    Workloads that model shared content supply their own mapping (see
    :class:`DedupIndex`); this default makes dedup a no-op.
    """
    digest = hashlib.blake2s(
        f"{namespace}/{inode}/{block}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class DedupIndex:
    """Reference-counted content store for the memory backend.

    Tracks how many cached blocks share each fingerprint.  The *charged*
    footprint is the number of distinct fingerprints; the logical
    footprint is the number of stored blocks.  The savings ratio is what
    Table-style dedup evaluations report.
    """

    def __init__(
        self,
        fingerprint: Optional[Callable[[Hashable, int, int], int]] = None,
    ) -> None:
        self.fingerprint = fingerprint or content_fingerprint
        self._refcounts: Dict[int, int] = {}
        #: (namespace, inode, block) -> fingerprint, for removal.
        self._placed: Dict[Tuple[Hashable, int, int], int] = {}
        self.logical_blocks = 0

    @property
    def unique_blocks(self) -> int:
        """Distinct fingerprints resident (the charged footprint)."""
        return len(self._refcounts)

    @property
    def savings_blocks(self) -> int:
        """Blocks of capacity saved by sharing."""
        return self.logical_blocks - self.unique_blocks

    def insert(self, namespace: Hashable, inode: int, block: int) -> bool:
        """Register a stored block; returns True if it was a *new* unique
        fingerprint (i.e., real capacity was consumed)."""
        key = (namespace, inode, block)
        if key in self._placed:
            return False  # already accounted
        fp = self.fingerprint(namespace, inode, block)
        self._placed[key] = fp
        self.logical_blocks += 1
        count = self._refcounts.get(fp, 0)
        self._refcounts[fp] = count + 1
        return count == 0

    def remove(self, namespace: Hashable, inode: int, block: int) -> bool:
        """Unregister a block; returns True if its fingerprint became
        unreferenced (real capacity was released)."""
        key = (namespace, inode, block)
        fp = self._placed.pop(key, None)
        if fp is None:
            return False
        self.logical_blocks -= 1
        count = self._refcounts[fp] - 1
        if count == 0:
            del self._refcounts[fp]
            return True
        self._refcounts[fp] = count
        return False

    def holds(self, namespace: Hashable, inode: int, block: int) -> bool:
        return (namespace, inode, block) in self._placed


class MemoryUnits:
    """The memory store's occupancy in 1/``granularity`` block units, kept
    only when compression or dedup is on.  A block charges its compressed
    units (1 without compression), and under dedup only while its content
    is not already resident.  ``Pool``'s mutators are the only callers,
    with the pool's VM as the namespace."""

    __slots__ = ("compression", "dedup", "fingerprint", "granularity", "used")

    def __init__(
        self,
        compression: Optional[CompressionModel],
        dedup: bool,
        fingerprint: Optional[Callable[[Hashable, int, int], int]],
    ) -> None:
        self.compression = compression
        self.fingerprint = fingerprint or content_fingerprint
        self.dedup = DedupIndex(self.fingerprint) if dedup else None
        self.granularity = compression.granularity if compression else 1
        self.used = 0

    def charge(self, namespace: Hashable, inode: int, block: int) -> None:
        """Account a block entering the memory store."""
        if self.dedup is None or self.dedup.insert(namespace, inode, block):
            self.used += self._units_of(namespace, inode, block)

    def release(self, namespace: Hashable, inode: int, block: int) -> None:
        """Account a block leaving the memory store."""
        if self.dedup is None or self.dedup.remove(namespace, inode, block):
            self.used -= self._units_of(namespace, inode, block)

    def _units_of(self, namespace: Hashable, inode: int, block: int) -> int:
        # Hashed only for blocks that consume capacity (after the dedup
        # check), and not at all without compression.
        if self.compression is None:
            return 1
        return self.compression.charged_units(self.fingerprint(namespace, inode, block))
