"""The guest operating system: file IO, anonymous memory, reclaim.

This is where all the paper's mechanisms meet:

* the **page cache** front-end (read/write/fsync paths) with the
  **cleancache** hooks — exclusive ``get`` on miss, ``put`` on clean
  eviction, ``flush`` on invalidation;
* **cgroup memory limits** with cgroup-local reclaim (file pages evicted
  in LRU order, anonymous pages swapped when they are the coldest);
* **VM-level reclaim** approximating the kernel's global LRU: the
  container owning the coldest page (file or anon) loses it;
* a background **writeback flusher** (every ``FLUSHER_INTERVAL_S`` it
  writes back pages dirty for longer than ``DIRTY_EXPIRE_S``).

All public IO methods are simulation generators: callers experience real
queueing on the virtual disk, the swap device, and the hypervisor cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..cgroups import Cgroup, CgroupSubsystem
from ..cleancache import CleancacheClient
from ..core.pools import BlockKey
from ..mem import PageCache
from ..mem.page import PageEntry, SeqCounter
from ..simkernel import Environment
from ..storage import MB, BlockDevice, MemSpec, block_runs
from .filesystem import File, Filesystem

__all__ = ["GuestOS"]

#: Pages reclaimed per round (≈2 MB at the default 64 KiB block size).
RECLAIM_BATCH = 32
#: Age (simulated seconds) at which the flusher writes a dirty page back.
DIRTY_EXPIRE_S = 30.0
#: Simulated seconds between two flusher passes.
FLUSHER_INTERVAL_S = 5.0
#: Offset of the swap area from the VM's disk base, in blocks: its own
#: region, far from every file's extents.
SWAP_OFFSET_BLOCKS = 1 << 31
#: Guest RAM the kernel keeps for itself (MB): neither anon nor page cache.
KERNEL_RESERVE_MB = 64.0


class GuestOS:
    """One virtual machine's kernel."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_mb: float,
        block_bytes: int,
        disk: BlockDevice,
        cleancache: CleancacheClient,
        disk_base_block: int = 0,
        reclaim_rng=None,
    ) -> None:
        self.env = env
        self.name = name
        self.block_bytes = block_bytes
        usable_mb = max(1.0, memory_mb - KERNEL_RESERVE_MB)
        #: Blocks of RAM available for anon + page cache.
        self.memory_blocks = int(usable_mb * MB) // block_bytes
        self.disk = disk
        self.cleancache = cleancache
        self.mem_spec = MemSpec()
        self.seq = SeqCounter()
        self.pagecache = PageCache(self.seq)
        self.cgroups = CgroupSubsystem(cleancache)
        self.fs = Filesystem(disk_base_block)
        #: Swap area: its own disk region (random single-page faults).
        self.swap_base = disk_base_block + SWAP_OFFSET_BLOCKS
        import random as _random

        #: RNG driving global-reclaim scan-pressure choices (seeded by the
        #: host's stream factory; a private fallback keeps tests simple).
        self._reclaim_rng = reclaim_rng or _random.Random(0)
        self._flusher = env.process(self._flusher_loop(), name=f"{name}-flusher")

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def total_usage_blocks(self) -> int:
        """RAM charged across all cgroups (anon + file).

        Every resident file page is charged to exactly one live cgroup
        (admission increments, eviction/deletion/teardown decrement in the
        same step), so the file side equals the page-cache population —
        summed directly off the index instead of walking per-cgroup
        property chains, since reclaim re-checks this bound per batch.
        """
        total = len(self.pagecache)
        for cgroup in self.cgroups:
            total += len(cgroup.anon.resident)
        return total

    def _copy_cost(self, nblocks: int) -> float:
        """User-copy cost for ``nblocks`` page-cache hits."""
        return nblocks * self.mem_spec.copy_time(self.block_bytes)

    # ------------------------------------------------------------------
    # File IO paths
    # ------------------------------------------------------------------

    def read_file(self, cgroup: Cgroup, file: File, start: int = 0,
                  nblocks: Optional[int] = None, then: float = 0.0):
        """Read a block range through the page cache.

        ``then`` is the caller's next delay (its CPU cost), served before
        returning.  An all-hit read folds it into the copy-cost timeout,
        one event instead of two.
        """
        env = self.env
        end = file.nblocks if nblocks is None else min(file.nblocks, start + nblocks)
        nkeys = end - start if end > start else 0
        misses = self.pagecache.lookup(file.inode, start, end)
        hits = nkeys - len(misses)
        if hits:
            if not misses:
                # The copy is this call's last wait: serve ``then`` in it.
                yield env.timeout(self._copy_cost(hits), then=then)
                return
            yield env.timeout(self._copy_cost(hits))
        if misses:
            yield from self._fill_misses(cgroup, file, misses)
        if then:
            yield env.timeout(then)

    def _fill_misses(self, cgroup: Cgroup, file: File, misses: List[BlockKey]):
        """Second-chance lookup, then disk, then page-cache admission."""
        # MIGRATE_OBJECT: the file's cached blocks may belong to another
        # container's pool (shared files); re-home them before the lookup.
        if (
            file.hv_pool_id is not None
            and cgroup.pool_id is not None
            and file.hv_pool_id != cgroup.pool_id
        ):
            self.cleancache.migrate(file.hv_pool_id, cgroup.pool_id, file.inode)
            file.hv_pool_id = cgroup.pool_id

        found = yield from self.cleancache.get_many(cgroup.pool_id, misses)
        # ``misses`` ascend (one file's range), so these block numbers do.
        disk_blocks = [key[1] for key in misses if key not in found]
        for first, length in block_runs(disk_blocks):
            yield from self.disk.read(file.disk_offset(first), length)
        # Admit everything we brought in (charging may trigger reclaim).
        yield from self._admit_pages(cgroup, misses, dirty=False)

    def write_file(self, cgroup: Cgroup, file: File, start: int = 0,
                   nblocks: Optional[int] = None, sync: bool = False):
        """Write a block range (buffered unless ``sync``)."""
        env = self.env
        end = file.nblocks if nblocks is None else min(file.nblocks, start + nblocks)
        nkeys = end - start if end > start else 0
        fresh = self.pagecache.lookup_dirty(file.inode, start, end, env._now)
        if fresh:
            # The hypervisor cache may hold stale copies of blocks we are
            # about to overwrite without reading: invalidate them.
            yield from self.cleancache.flush_many(cgroup.pool_id, fresh)
            yield from self._admit_pages(cgroup, fresh, dirty=True)
        yield env.timeout(self._copy_cost(nkeys))
        if sync:
            yield from self.fsync(cgroup, file)

    def append_file(self, cgroup: Cgroup, file: File, nblocks: int, sync: bool = False):
        """Append ``nblocks`` (log-style write)."""
        start = self.fs.extend_file(file, nblocks)
        yield from self.write_file(cgroup, file, start, nblocks, sync=sync)

    def fsync(self, cgroup: Cgroup, file: File):
        """Write back every dirty page of ``file`` synchronously."""
        entries = self.pagecache.dirty_of_inode(file.inode, file.keys())
        if not entries:
            return 0
        written = yield from self._writeback(entries)
        return written

    def delete_file(self, cgroup: Cgroup, file: File):
        """Unlink: drop page-cache pages, invalidate the hypervisor pool."""
        removed = self.pagecache.remove_inode(file.inode, file.keys())
        for entry in removed:
            owner = self.cgroups.cgroups.get(entry.cgroup_id)
            if owner is not None:
                owner.file_blocks -= 1
        if file.hv_pool_id is not None:
            yield from self.cleancache.flush_inode(
                file.hv_pool_id, file.inode, nblocks=file.nblocks)
            file.hv_pool_id = None
        self.fs.delete_file(file)
        return len(removed)

    # ------------------------------------------------------------------
    # Anonymous memory
    # ------------------------------------------------------------------

    def touch_anon(self, cgroup: Cgroup, pages: Sequence[int],
                   then: float = 0.0):
        """Access anonymous pages (fault-in / allocate as needed).

        ``then`` is the caller's next delay, served before returning; it
        folds into the resident-touch timeout when one is the last wait.
        """
        anon = cgroup.anon
        faults: List[int] = []
        fresh: List[int] = []
        for page in pages:
            state = anon.touch(page, self.seq.next())
            if state == "swapped":
                faults.append(page)
            elif state == "new":
                fresh.append(page)
        if faults:
            for base in range(0, len(faults), RECLAIM_BATCH):
                chunk = faults[base:base + RECLAIM_BATCH]
                yield from self._reclaim_for(cgroup, len(chunk))
                # Re-check: a concurrent thread may have faulted a page in
                # while we waited on reclaim IO.
                slots = [
                    anon.fault_in(page, self.seq.next())
                    for page in chunk
                    if anon.is_swapped(page)
                ]
                slots.sort()
                for first, length in block_runs(slots):
                    yield from self.disk.read(self.swap_base + first, length)
        if fresh:
            # Chunked like file admission: a huge allocation must not blow
            # past the cgroup limit just because it arrived in one call.
            for base in range(0, len(fresh), RECLAIM_BATCH):
                chunk = fresh[base:base + RECLAIM_BATCH]
                yield from self._reclaim_for(cgroup, len(chunk))
                for page in chunk:
                    if not anon.is_resident(page) and not anon.is_swapped(page):
                        anon.map_new(page, self.seq.next())
        # Resident touches cost a memory access each (negligible but nonzero).
        resident = len(pages) - len(faults) - len(fresh)
        if resident:
            yield self.env.timeout(
                resident * self.mem_spec.touch_latency_us * 1e-6, then=then)
        elif then:
            yield self.env.timeout(then)
        return len(faults)

    # ------------------------------------------------------------------
    # Page-cache admission and reclaim
    # ------------------------------------------------------------------

    def _admit_pages(self, cgroup: Cgroup, keys: Iterable[BlockKey], dirty: bool):
        """Charge and insert pages (reclaiming first if needed).

        Admission happens in reclaim-batch-sized chunks so that a single
        large read cannot blow past the cgroup limit: later chunks evict
        the (now-coldest) pages of earlier ones, giving the correct
        streaming behaviour for files larger than the container.
        """
        pagecache = self.pagecache
        pending = pagecache.absent(keys)
        for base in range(0, len(pending), RECLAIM_BATCH):
            chunk = pending[base:base + RECLAIM_BATCH]
            yield from self._reclaim_for(cgroup, len(chunk))
            cgroup.file_blocks += pagecache.admit(
                chunk, cgroup.cgroup_id, self.env._now, dirty)

    def _reclaim_for(self, cgroup: Cgroup, need: int):
        """Make room for ``need`` new blocks: cgroup limit, then VM limit."""
        guard = 0
        while cgroup.usage_blocks + need > cgroup.limit_blocks:
            freed = yield from self._shrink_cgroup(cgroup, max(need, RECLAIM_BATCH))
            if freed == 0:
                break
            guard += 1
            if guard > self.memory_blocks:  # pragma: no cover - safety net
                break
        guard = 0
        while self.total_usage_blocks() + need > self.memory_blocks:
            freed = yield from self._shrink_vm(max(need, RECLAIM_BATCH))
            if freed == 0:
                break
            guard += 1
            if guard > self.memory_blocks:  # pragma: no cover - safety net
                break

    def _shrink_cgroup(self, cgroup: Cgroup, count: int):
        """One cgroup-local reclaim round; returns blocks freed."""
        file_entry = self.pagecache.coldest(cgroup.cgroup_id)
        anon_seq = cgroup.anon.coldest_seq()
        # Global-LRU choice within the cgroup: evict whichever class owns
        # the colder page (anon loses ties so file cache yields first).
        if file_entry is not None and (anon_seq is None or file_entry.seq <= anon_seq):
            freed = yield from self._evict_file_pages(cgroup, count)
            return freed
        if anon_seq is not None:
            freed = yield from self._swap_out(cgroup, count)
            return freed
        if file_entry is not None:
            freed = yield from self._evict_file_pages(cgroup, count)
            return freed
        return 0

    def _shrink_vm(self, count: int):
        """One VM-global reclaim round; returns blocks freed.

        Models the kernel's global reclaim, where *scan pressure* is
        proportional to each cgroup's resident size rather than a perfect
        cross-cgroup LRU: a victim cgroup is drawn weighted by usage, then
        its own LRU decides file-vs-anon.  This is what lets a streaming
        page-cache hog displace another container's anonymous memory
        (the paper's Morai++/Redis interaction) — a strict global LRU
        would shield hot anon pages entirely.
        """
        cgroups = [cg for cg in self.cgroups if cg.usage_blocks > 0]
        if not cgroups:
            return 0
        total = sum(cg.usage_blocks for cg in cgroups)
        pick = self._reclaim_rng.random() * total
        acc = 0
        victim = cgroups[-1]
        for cgroup in cgroups:
            acc += cgroup.usage_blocks
            if pick <= acc:
                victim = cgroup
                break
        freed = yield from self._shrink_cgroup(victim, count)
        if freed:
            return freed
        # The chosen victim had nothing reclaimable; try the others.
        for cgroup in cgroups:
            if cgroup is victim:
                continue
            freed = yield from self._shrink_cgroup(cgroup, count)
            if freed:
                return freed
        return 0

    def _evict_file_pages(self, cgroup: Cgroup, count: int):
        """Evict coldest file pages: writeback dirty, cleancache-put clean."""
        clean, dirty = self.pagecache.take_coldest(cgroup.cgroup_id, count)
        taken = len(clean) + len(dirty)
        if taken == 0:
            return 0
        cgroup.file_blocks -= taken
        if dirty:
            yield from self._writeback_detached(dirty)
        # Every evicted page is clean by now: offer it to the second chance.
        put_keys = [entry.key for entry in clean] + [entry.key for entry in dirty]
        stored = yield from self.cleancache.put_many(cgroup.pool_id, put_keys)
        if stored and cgroup.pool_id is not None:
            for inode in {key[0] for key in put_keys}:
                file = self.fs.get(inode)
                if file is not None:
                    file.hv_pool_id = cgroup.pool_id
        return taken

    def _swap_out(self, cgroup: Cgroup, count: int):
        """Swap the cgroup's coldest anonymous pages to the swap area."""
        slots = cgroup.anon.swap_out_coldest(count)
        if not slots:
            return 0
        cgroup.swap_out_blocks += len(slots)
        # Fresh slots are handed out in ascending order.
        for first, length in block_runs(slots):
            yield from self.disk.write(self.swap_base + first, length)
        return len(slots)

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------

    def _writeback(self, entries: List[PageEntry]):
        """Write dirty *resident* pages to disk and mark them clean."""
        live = [entry for entry in entries if entry.dirty]
        if not live:
            return 0
        yield from self._write_entries(live)
        for entry in live:
            self.pagecache.mark_clean(entry)
        return len(live)

    def _writeback_detached(self, entries: List[PageEntry]):
        """Write already-removed dirty pages (reclaim path)."""
        yield from self._write_entries(entries)
        for entry in entries:
            entry.dirty = False
            entry.dirty_since = None
        return len(entries)

    def _write_entries(self, entries: List[PageEntry]):
        by_file: Dict[int, List[int]] = {}
        for entry in entries:
            by_file.setdefault(entry.inode, []).append(entry.block)
        for inode, blocks in by_file.items():
            file = self.fs.get(inode)
            if file is None:
                continue  # deleted under us; nothing to persist
            blocks.sort()
            for first, length in block_runs(blocks):
                yield from self.disk.write(file.disk_offset(first), length)

    def _flusher_loop(self):
        """Background dirty-page expiry (pdflush analogue)."""
        while True:
            yield self.env.timeout(FLUSHER_INTERVAL_S)
            expired = self.pagecache.expired_dirty(
                self.env.now, DIRTY_EXPIRE_S, limit=1024
            )
            if expired:
                yield from self._writeback(expired)

