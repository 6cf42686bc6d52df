"""The guest OS page cache (file pages only; anon memory lives in
:mod:`repro.mem.anon`).

Pure data structure: no simulated time here.  The guest OS orchestrates IO
and reclaim around it, so that device waits and cleancache puts happen in
simulation processes.

Design notes
------------
* Pages are charged to the cgroup of the process that first touched them
  (Linux memcg semantics); per-cgroup LRUs drive cgroup-local reclaim.
* Every access stamps a VM-wide sequence number, giving a cheap
  approximation of the kernel's global LRU for VM-level reclaim: the
  container owning the *coldest* page is the global reclaim victim.
* Dirty pages are tracked in a separate insertion-ordered dict so the
  writeback flusher can expire them oldest-first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from .page import BlockKey, PageEntry, SeqCounter

__all__ = ["PageCache"]


class PageCache:
    """Block-granular page cache with per-cgroup LRUs."""

    def __init__(self, seq: Optional[SeqCounter] = None) -> None:
        #: All resident file pages of the VM.
        self.entries: Dict[BlockKey, PageEntry] = {}
        #: Per-cgroup LRU (least-recently-used first).
        self.lrus: Dict[int, "OrderedDict[BlockKey, PageEntry]"] = {}
        #: Dirty pages in first-dirtied order (for the flusher).
        self.dirty: "OrderedDict[BlockKey, PageEntry]" = OrderedDict()
        #: VM-wide access counter (shared with anon spaces for global LRU).
        self.seq = seq or SeqCounter()

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self.entries

    def cgroup_pages(self, cgroup_id: int) -> int:
        """Resident file pages charged to ``cgroup_id``."""
        lru = self.lrus.get(cgroup_id)
        return len(lru) if lru is not None else 0

    # -- access paths ------------------------------------------------------------
    #
    # The guest makes one call per read, per write and per admission chunk.
    # Each method is one fused sweep with the state bound to locals: a
    # per-block method chain (key build + hit test + SeqCounter) costs more
    # than the work itself on the hottest guest loops.

    def lookup(self, inode: int, start: int, end: int) -> List[BlockKey]:
        """Hit-test blocks ``[start, end)`` of ``inode``; returns the misses.

        Every hit stamps the next access sequence number and moves to the
        MRU end of its cgroup's LRU.
        """
        entries_get = self.entries.get
        lrus = self.lrus
        seq_counter = self.seq
        seq = seq_counter.value
        misses: List[BlockKey] = []
        miss = misses.append
        for block in range(start, end):
            key = (inode, block)
            entry = entries_get(key)
            if entry is None:
                miss(key)
            else:
                seq += 1
                entry.seq = seq
                lrus[entry.cgroup_id].move_to_end(key)
        seq_counter.value = seq
        return misses

    def lookup_dirty(self, inode: int, start: int, end: int, now: float) -> List[BlockKey]:
        """:meth:`lookup` for a write: each hit also turns dirty at ``now``
        (keeping its first-dirtied time if already dirty)."""
        entries_get = self.entries.get
        lrus = self.lrus
        dirty_index = self.dirty
        seq_counter = self.seq
        seq = seq_counter.value
        misses: List[BlockKey] = []
        miss = misses.append
        for block in range(start, end):
            key = (inode, block)
            entry = entries_get(key)
            if entry is None:
                miss(key)
            else:
                seq += 1
                entry.seq = seq
                lrus[entry.cgroup_id].move_to_end(key)
                if not entry.dirty:
                    entry.dirty = True
                    entry.dirty_since = now
                    dirty_index[key] = entry
        seq_counter.value = seq
        return misses

    def absent(self, keys: Iterable[BlockKey]) -> List[BlockKey]:
        """The ``keys`` not resident, in order (no LRU effect)."""
        entries = self.entries
        return [key for key in keys if key not in entries]

    def admit(self, keys: Iterable[BlockKey], cgroup_id: int, now: float,
              dirty: bool) -> int:
        """Insert the non-resident ``keys`` at the MRU end of ``cgroup_id``'s
        LRU, dirty at ``now`` if ``dirty``; returns how many were added.

        Resident keys are skipped: a racing thread admitted them already.
        """
        entries = self.entries
        dirty_index = self.dirty
        seq_counter = self.seq
        lru = self.lrus.get(cgroup_id)
        if lru is None:
            lru = self.lrus[cgroup_id] = OrderedDict()
        admitted = 0
        for key in keys:
            if key in entries:
                continue
            seq = seq_counter.value + 1
            seq_counter.value = seq
            entry = PageEntry(key[0], key[1], cgroup_id, seq)
            entries[key] = entry
            lru[key] = entry
            admitted += 1
            if dirty:
                entry.dirty = True
                entry.dirty_since = now
                dirty_index[key] = entry
        return admitted

    def mark_clean(self, entry: PageEntry) -> None:
        """Transition a page back to clean after writeback."""
        if entry.dirty:
            entry.dirty = False
            entry.dirty_since = None
            self.dirty.pop(entry.key, None)

    def remove(self, key: BlockKey) -> Optional[PageEntry]:
        """Drop a page entirely (eviction, truncation)."""
        entry = self.entries.pop(key, None)
        if entry is None:
            return None
        self.lrus[entry.cgroup_id].pop(key, None)
        if entry.dirty:
            self.dirty.pop(key, None)
        return entry

    # -- reclaim support ---------------------------------------------------------

    def coldest(self, cgroup_id: int) -> Optional[PageEntry]:
        """The LRU-end page of one cgroup, or ``None``."""
        lru = self.lrus.get(cgroup_id)
        if not lru:
            return None
        key = next(iter(lru))
        return lru[key]

    def take_coldest(
        self, cgroup_id: int, count: int
    ) -> Tuple[List[PageEntry], List[PageEntry]]:
        """Detach up to ``count`` coldest pages of a cgroup.

        Returns ``(clean, dirty)`` lists; the pages are fully removed from
        the cache — the caller is responsible for writeback/cleancache.
        """
        lru = self.lrus.get(cgroup_id)
        clean: List[PageEntry] = []
        dirty: List[PageEntry] = []
        if not lru:
            return clean, dirty
        while lru and len(clean) + len(dirty) < count:
            key, entry = lru.popitem(last=False)
            del self.entries[key]
            if entry.dirty:
                self.dirty.pop(key, None)
                dirty.append(entry)
            else:
                clean.append(entry)
        return clean, dirty

    def remove_inode(self, inode: int, keys_hint: Optional[List[BlockKey]] = None) -> List[PageEntry]:
        """Drop all resident pages of one file (deletion/truncation).

        ``keys_hint`` (the file's block list) avoids a full scan.
        """
        removed: List[PageEntry] = []
        if keys_hint is not None:
            for key in keys_hint:
                entry = self.remove(key)
                if entry is not None:
                    removed.append(entry)
            return removed
        victims = [key for key in self.entries if key[0] == inode]
        for key in victims:
            entry = self.remove(key)
            if entry is not None:
                removed.append(entry)
        return removed

    def drop_cgroup(self, cgroup_id: int) -> int:
        """Drop every page charged to ``cgroup_id`` (container teardown);
        returns how many were resident."""
        lru = self.lrus.get(cgroup_id)
        if not lru:
            return 0
        entries = self.entries
        dirty_index = self.dirty
        for key, entry in lru.items():
            del entries[key]
            if entry.dirty:
                dirty_index.pop(key, None)
        dropped = len(lru)
        lru.clear()
        return dropped

    def expired_dirty(self, now: float, max_age: float, limit: int) -> List[PageEntry]:
        """Up to ``limit`` dirty pages older than ``max_age`` (oldest first)."""
        out: List[PageEntry] = []
        for entry in self.dirty.values():
            if entry.dirty_since is None or now - entry.dirty_since < max_age:
                break
            out.append(entry)
            if len(out) >= limit:
                break
        return out

    def dirty_of_inode(self, inode: int, keys_hint: Optional[List[BlockKey]] = None) -> List[PageEntry]:
        """All dirty pages of one file (for fsync)."""
        if keys_hint is not None:
            out = []
            for key in keys_hint:
                entry = self.dirty.get(key)
                if entry is not None:
                    out.append(entry)
            return out
        return [entry for key, entry in self.dirty.items() if key[0] == inode]
