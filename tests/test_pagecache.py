"""Unit tests for the guest page cache data structure."""

import re
from pathlib import Path

from repro.mem import PageCache
from repro.mem.page import SeqCounter


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _admit(pc, inode, blocks, cgroup_id=1, now=0.0, dirty=False):
    return pc.admit([(inode, block) for block in blocks], cgroup_id, now, dirty)


class TestBasics:
    def test_insert_lookup(self):
        pc = PageCache()
        assert _admit(pc, 1, [0]) == 1
        assert pc.lookup(1, 0, 1) == []
        entry = pc.entries[(1, 0)]
        assert entry.cgroup_id == 1
        assert not entry.dirty

    def test_double_insert_rejected(self):
        pc = PageCache()
        _admit(pc, 1, [0])
        entry = pc.entries[(1, 0)]
        seq0 = entry.seq
        assert _admit(pc, 1, [0, 1], cgroup_id=2) == 1
        assert pc.entries[(1, 0)] is entry
        assert (entry.cgroup_id, entry.seq) == (1, seq0)
        assert pc.cgroup_pages(1) == 1
        assert pc.cgroup_pages(2) == 1

    def test_lookup_miss(self):
        pc = PageCache()
        _admit(pc, 9, [1])
        assert pc.lookup(9, 0, 3) == [(9, 0), (9, 2)]
        assert pc.lookup(9, 3, 3) == []

    def test_contains_does_not_bump(self):
        pc = PageCache()
        _admit(pc, 1, [0])
        entry = pc.entries[(1, 0)]
        seq0 = entry.seq
        assert (1, 0) in pc
        assert pc.absent([(1, 0), (1, 1)]) == [(1, 1)]
        assert entry.seq == seq0
        pc.lookup(1, 0, 1)
        assert entry.seq > seq0

    def test_remove(self):
        pc = PageCache()
        _admit(pc, 1, [0])
        assert pc.remove((1, 0)) is not None
        assert pc.remove((1, 0)) is None
        assert len(pc) == 0

    def test_cgroup_page_accounting(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1], cgroup_id=1)
        _admit(pc, 2, [0], cgroup_id=2)
        assert pc.cgroup_pages(1) == 2
        assert pc.cgroup_pages(2) == 1
        assert pc.cgroup_pages(3) == 0

    def test_drop_cgroup(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1], cgroup_id=1, dirty=True)
        _admit(pc, 2, [0], cgroup_id=2, dirty=True)
        assert pc.drop_cgroup(1) == 2
        assert pc.drop_cgroup(1) == 0
        assert pc.drop_cgroup(7) == 0
        assert list(pc.entries) == [(2, 0)]
        assert list(pc.dirty) == [(2, 0)]
        assert pc.cgroup_pages(1) == 0


class TestDirtyTracking:
    def test_mark_dirty_and_clean(self):
        pc = PageCache()
        _admit(pc, 1, [0])
        assert pc.lookup_dirty(1, 0, 2, now=5.0) == [(1, 1)]
        entry = pc.entries[(1, 0)]
        assert entry.dirty
        assert entry.dirty_since == 5.0
        assert (1, 0) in pc.dirty
        pc.mark_clean(entry)
        assert not entry.dirty
        assert (1, 0) not in pc.dirty

    def test_mark_dirty_idempotent(self):
        pc = PageCache()
        _admit(pc, 1, [0])
        pc.lookup_dirty(1, 0, 1, now=1.0)
        pc.lookup_dirty(1, 0, 1, now=9.0)
        assert pc.entries[(1, 0)].dirty_since == 1.0  # first-dirtied time preserved

    def test_admit_dirty(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1], now=4.0, dirty=True)
        assert [e.dirty_since for e in pc.dirty.values()] == [4.0, 4.0]

    def test_expired_dirty_respects_age_and_order(self):
        pc = PageCache()
        for i, t in enumerate((0.0, 10.0, 20.0)):
            _admit(pc, 1, [i], now=t, dirty=True)
        expired = pc.expired_dirty(now=35.0, max_age=30.0, limit=10)
        assert [e.key for e in expired] == [(1, 0)]
        expired = pc.expired_dirty(now=100.0, max_age=30.0, limit=2)
        assert [e.key for e in expired] == [(1, 0), (1, 1)]

    def test_dirty_of_inode(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1])
        _admit(pc, 2, [0])
        pc.lookup_dirty(1, 0, 1, 0.0)
        pc.lookup_dirty(2, 0, 1, 0.0)
        dirty = pc.dirty_of_inode(1, [(1, 0), (1, 1)])
        assert [e.key for e in dirty] == [(1, 0)]

    def test_remove_drops_dirty_entry(self):
        pc = PageCache()
        _admit(pc, 1, [0], dirty=True)
        pc.remove((1, 0))
        assert len(pc.dirty) == 0


class TestReclaimSupport:
    def test_coldest_is_lru_end(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1])
        pc.lookup(1, 0, 1)  # bump 0 -> 1 is now coldest
        assert pc.coldest(1).key == (1, 1)

    def test_take_coldest_splits_clean_dirty(self):
        pc = PageCache()
        _admit(pc, 1, [0, 1])
        pc.lookup_dirty(1, 0, 1, 0.0)  # dirty and bumped: 1 is now coldest
        clean, dirty = pc.take_coldest(1, 2)
        assert [e.key for e in dirty] == [(1, 0)]
        assert [e.key for e in clean] == [(1, 1)]
        assert len(pc) == 0
        assert len(pc.dirty) == 0

    def test_take_coldest_respects_count(self):
        pc = PageCache()
        _admit(pc, 1, range(10))
        clean, dirty = pc.take_coldest(1, 3)
        assert len(clean) + len(dirty) == 3
        assert len(pc) == 7
        # Coldest (oldest inserted) went first.
        assert [e.key for e in clean] == [(1, 0), (1, 1), (1, 2)]

    def test_remove_inode_with_hint(self):
        pc = PageCache()
        _admit(pc, 1, range(3))
        _admit(pc, 2, [0])
        removed = pc.remove_inode(1, [(1, 0), (1, 1), (1, 2)])
        assert len(removed) == 3
        assert len(pc) == 1

    def test_remove_inode_without_hint_scans(self):
        pc = PageCache()
        _admit(pc, 1, range(3))
        removed = pc.remove_inode(1)
        assert len(removed) == 3


class TestSharedSeq:
    def test_shared_counter(self):
        seq = SeqCounter()
        pc = PageCache(seq)
        _admit(pc, 1, [0])
        assert seq.value == 1
        assert seq.next() == 2
        pc.lookup(1, 0, 1)
        assert seq.value == 3
        pc.lookup_dirty(1, 0, 2, 0.0)  # one hit, one miss: one stamp
        assert seq.value == 4


class TestOwnership:
    def test_only_pagecache_module_touches_residency_state(self):
        """The residency index, LRUs, dirty order and access sequence are
        read and written by ``mem/pagecache.py`` alone: callers go through
        its range methods, so there is no second copy of a sweep."""
        internals = re.compile(r"pagecache\.(entries|lrus|dirty|seq)\b")
        owner = PACKAGE / "mem" / "pagecache.py"
        offenders = [
            f"{path.relative_to(PACKAGE).as_posix()}:{number}"
            for path in sorted(PACKAGE.rglob("*.py")) if path != owner
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if internals.search(line)
        ]
        assert offenders == []
