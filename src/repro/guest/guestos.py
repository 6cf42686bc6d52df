"""The guest operating system: file IO, anonymous memory, reclaim.

This is where all the paper's mechanisms meet:

* the **page cache** front-end (read/write/fsync paths) with the
  **cleancache** hooks — exclusive ``get`` on miss, ``put`` on clean
  eviction, ``flush`` on invalidation;
* **cgroup memory limits** with cgroup-local reclaim (file pages evicted
  in LRU order, anonymous pages swapped when they are the coldest);
* **VM-level reclaim** approximating the kernel's global LRU: the
  container owning the coldest page (file or anon) loses it;
* a background **writeback flusher** (dirty pages expire after
  ``dirty_expire_s``).

All public IO methods are simulation generators: callers experience real
queueing on the virtual disk, the swap device, and the hypervisor cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cgroups import Cgroup, CgroupSubsystem
from ..cleancache import CleancacheClient
from ..core.pools import BlockKey
from ..mem import PageCache
from ..mem.page import PageEntry, SeqCounter
from ..simkernel import Environment
from ..storage import MB, BlockDevice, MemSpec
from .filesystem import File, Filesystem

__all__ = ["GuestOS", "IOResult", "GuestStats"]

#: Pages reclaimed per round (≈2 MB at the default 64 KiB block size).
RECLAIM_BATCH = 32


class IOResult:
    """Outcome of one read/write call (for workload accounting)."""

    __slots__ = ("blocks", "pc_hits", "cc_hits", "disk_blocks", "latency")

    def __init__(self) -> None:
        self.blocks = 0
        self.pc_hits = 0
        self.cc_hits = 0
        self.disk_blocks = 0
        self.latency = 0.0


class GuestStats:
    """Cumulative guest-kernel counters."""

    __slots__ = ("pc_lookups", "pc_hits", "cc_gets", "cc_hits", "disk_reads",
                 "disk_writes", "writeback_blocks", "swap_out_blocks",
                 "swap_in_blocks", "cc_puts", "cc_put_stored",
                 "reclaim_rounds", "readahead_blocks")

    def __init__(self) -> None:
        self.pc_lookups = 0
        self.pc_hits = 0
        self.cc_gets = 0
        self.cc_hits = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.writeback_blocks = 0
        self.swap_out_blocks = 0
        self.swap_in_blocks = 0
        self.cc_puts = 0
        self.cc_put_stored = 0
        self.reclaim_rounds = 0
        self.readahead_blocks = 0


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
        mem_spec: Optional[MemSpec] = None,
        disk_base_block: int = 0,
        kernel_reserve_mb: float = 64.0,
        dirty_expire_s: float = 30.0,
        flusher_interval_s: float = 5.0,
        swap_base_block: Optional[int] = None,
        reclaim_rng=None,
        readahead_blocks: int = 0,
    ) -> None:
        self.env = env
        self.name = name
        self.block_bytes = block_bytes
        usable_mb = max(1.0, memory_mb - kernel_reserve_mb)
        #: Blocks of RAM available for anon + page cache.
        self.memory_blocks = int(usable_mb * MB) // block_bytes
        self.disk = disk
        self.cleancache = cleancache
        self.mem_spec = mem_spec or MemSpec()
        self.seq = SeqCounter()
        self.pagecache = PageCache(self.seq)
        self.cgroups = CgroupSubsystem(cleancache)
        self.fs = Filesystem(disk_base_block)
        #: Swap area: its own disk region (random single-page faults).
        self.swap_base = (
            swap_base_block if swap_base_block is not None else disk_base_block + (1 << 30)
        )
        self.stats = GuestStats()
        import random as _random

        #: RNG driving global-reclaim scan-pressure choices (seeded by the
        #: host's stream factory; a private fallback keeps tests simple).
        self._reclaim_rng = reclaim_rng or _random.Random(0)
        #: Sequential readahead window (0 disables; Linux-like behaviour
        #: prefetches ahead once a file shows a sequential streak).
        self.readahead_blocks = readahead_blocks
        self.dirty_expire_s = dirty_expire_s
        self._flusher = env.process(
            self._flusher_loop(flusher_interval_s), name=f"{name}-flusher"
        )

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

    def set_memory_blocks(self, blocks: int) -> None:
        """Balloon the VM's usable memory (reclaim is the caller's job —
        see :meth:`reclaim_to_target` for the eager variant)."""
        if blocks < 1:
            raise ValueError(f"memory must be positive, got {blocks}")
        self.memory_blocks = blocks

    def reclaim_to_target(self):
        """Generator: reclaim until usage fits the (ballooned) memory."""
        freed_total = 0
        while self.total_usage_blocks() > self.memory_blocks:
            freed = yield from self._shrink_vm(RECLAIM_BATCH)
            if freed == 0:
                break
            freed_total += freed
        return freed_total

    def _copy_cost(self, nblocks: int) -> float:
        """User-copy cost for ``nblocks`` page-cache hits."""
        return nblocks * self.mem_spec.copy_time(self.block_bytes)

    # ------------------------------------------------------------------
    # File IO paths
    # ------------------------------------------------------------------

    def read_file(self, cgroup: Cgroup, file: File, start: int = 0,
                  nblocks: Optional[int] = None, then: float = 0.0):
        """Read a block range through the page cache; returns IOResult.

        ``then`` is the caller's next delay (its CPU cost), served before
        returning.  An all-hit read folds it into the copy-cost timeout,
        one event instead of two; ``result.latency`` excludes it.
        """
        result = IOResult()
        env = self.env
        t0 = env._now
        end = file.nblocks if nblocks is None else min(file.nblocks, start + nblocks)
        nkeys = end - start if end > start else 0
        result.blocks = nkeys
        misses = self.pagecache.lookup(file.inode, start, end)
        hits = nkeys - len(misses)
        stats = self.stats
        stats.pc_lookups += nkeys
        stats.pc_hits += hits
        result.pc_hits = hits
        if hits:
            cost = self._copy_cost(hits)
            if not misses and self.readahead_blocks <= 0:
                # The copy is this call's last wait: serve ``then`` in it,
                # and keep ``then`` out of the latency.
                yield env.timeout(cost, then=then)
                result.latency = (t0 + cost) - t0
                return result
            yield env.timeout(cost)
        if self.readahead_blocks > 0:
            misses.extend(self._readahead_keys(file, start, nkeys))
        if misses:
            yield from self._fill_misses(cgroup, file, misses, result)
        result.latency = env._now - t0
        if then:
            yield env.timeout(then)
        return result

    def _readahead_keys(self, file: File, start: int, count: int) -> List[BlockKey]:
        """Prefetch candidates for a sequentially-read file.

        A file that has been read in order for two consecutive requests
        gets ``readahead_blocks`` of lookahead appended to its miss list
        (skipping already-resident blocks), mirroring the kernel's
        streaming readahead.
        """
        if self.readahead_blocks <= 0:
            return []
        if start == file.ra_pos:
            file.ra_streak += 1
        else:
            file.ra_streak = 1 if start == 0 else 0
        end = start + count
        file.ra_pos = end
        if file.ra_streak < 2:
            return []
        stop = min(file.nblocks, end + self.readahead_blocks)
        out = self.pagecache.absent((file.inode, block) for block in range(end, stop))
        self.stats.readahead_blocks += len(out)
        return out

    def _fill_misses(self, cgroup: Cgroup, file: File, misses: List[BlockKey],
                     result: IOResult):
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

        self.stats.cc_gets += len(misses)
        found = yield from self.cleancache.get_many(cgroup.pool_id, misses)
        self.stats.cc_hits += len(found)
        result.cc_hits += len(found)

        disk_keys = [key for key in misses if key not in found]
        if disk_keys:
            result.disk_blocks += len(disk_keys)
            self.stats.disk_reads += len(disk_keys)
            for offset, length in _disk_runs(file, disk_keys):
                yield from self.disk.read(offset, length)
        # Admit everything we brought in (charging may trigger reclaim).
        yield from self._admit_pages(cgroup, misses, dirty=False)

    def write_file(self, cgroup: Cgroup, file: File, start: int = 0,
                   nblocks: Optional[int] = None, sync: bool = False):
        """Write a block range (buffered unless ``sync``); returns IOResult."""
        result = IOResult()
        env = self.env
        t0 = env._now
        end = file.nblocks if nblocks is None else min(file.nblocks, start + nblocks)
        nkeys = end - start if end > start else 0
        result.blocks = nkeys
        fresh = self.pagecache.lookup_dirty(file.inode, start, end, t0)
        result.pc_hits = nkeys - len(fresh)
        if fresh:
            # The hypervisor cache may hold stale copies of blocks we are
            # about to overwrite without reading: invalidate them.
            yield from self.cleancache.flush_many(cgroup.pool_id, fresh)
            yield from self._admit_pages(cgroup, fresh, dirty=True)
        yield env.timeout(self._copy_cost(nkeys))
        if sync:
            yield from self.fsync(cgroup, file)
        result.latency = self.env.now - t0
        return result

    def append_file(self, cgroup: Cgroup, file: File, nblocks: int, sync: bool = False):
        """Append ``nblocks`` (log-style write); returns IOResult."""
        start = self.fs.extend_file(file, nblocks)
        result = yield from self.write_file(cgroup, file, start, nblocks, sync=sync)
        return result

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
                cgroup.swap_in_blocks += len(slots)
                self.stats.swap_in_blocks += len(slots)
                for offset, length in _slot_runs(self.swap_base, slots):
                    yield from self.disk.read(offset, length)
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
        self.stats.reclaim_rounds += 1
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
        self.stats.reclaim_rounds += 1
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
        self.stats.cc_puts += len(put_keys)
        stored = yield from self.cleancache.put_many(cgroup.pool_id, put_keys)
        self.stats.cc_put_stored += stored
        if stored and cgroup.pool_id is not None:
            for entry in clean:
                file = self.fs.get(entry.inode)
                if file is not None:
                    file.hv_pool_id = cgroup.pool_id
            for entry in dirty:
                file = self.fs.get(entry.inode)
                if file is not None:
                    file.hv_pool_id = cgroup.pool_id
        return taken

    def _swap_out(self, cgroup: Cgroup, count: int):
        """Swap the cgroup's coldest anonymous pages to the swap area."""
        slots = cgroup.anon.swap_out_coldest(count)
        if not slots:
            return 0
        cgroup.swap_out_blocks += len(slots)
        self.stats.swap_out_blocks += len(slots)
        for offset, length in _slot_runs(self.swap_base, slots):
            yield from self.disk.write(offset, length)
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
        self.stats.disk_writes += len(entries)
        self.stats.writeback_blocks += len(entries)
        by_file: Dict[int, List[int]] = {}
        for entry in entries:
            by_file.setdefault(entry.inode, []).append(entry.block)
        for inode, blocks in by_file.items():
            file = self.fs.get(inode)
            if file is None:
                continue  # deleted under us; nothing to persist
            keys = [(inode, block) for block in sorted(blocks)]
            for offset, length in _disk_runs(file, keys):
                yield from self.disk.write(offset, length)

    def _flusher_loop(self, interval: float):
        """Background dirty-page expiry (pdflush analogue)."""
        while True:
            yield self.env.timeout(interval)
            expired = self.pagecache.expired_dirty(
                self.env.now, self.dirty_expire_s, limit=1024
            )
            if expired:
                yield from self._writeback(expired)


def _disk_runs(file: File, keys: Sequence[BlockKey]) -> List[Tuple[int, int]]:
    """Convert sorted block keys of one file into disk ``(offset, len)`` runs."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    length = 0
    for _, block in keys:
        if start is not None and block == start + length:
            length += 1
        else:
            if start is not None:
                runs.append((file.disk_offset(start), length))
            start = block
            length = 1
    if start is not None:
        runs.append((file.disk_offset(start), length))
    return runs


def _slot_runs(base: int, slots: Sequence[int]) -> List[Tuple[int, int]]:
    """Contiguous runs over swap slots (offset by the swap area base)."""
    runs: List[Tuple[int, int]] = []
    ordered = sorted(slots)
    start: Optional[int] = None
    length = 0
    for slot in ordered:
        if start is not None and slot == start + length:
            length += 1
        else:
            if start is not None:
                runs.append((base + start, length))
            start = slot
            length = 1
    if start is not None:
        runs.append((base + start, length))
    return runs
