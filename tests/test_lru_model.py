"""Model-based property test: the page cache's per-cgroup LRUs, dirty
order and access stamps must behave exactly like reference OrderedDicts
under arbitrary interleavings of the range methods the guest calls
(``lookup`` on read, ``lookup_dirty`` on write, ``absent`` + ``admit`` on
admission) and the reclaim/writeback/teardown paths."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageCache

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "lookup", "write", "remove", "take", "clean", "drop"]),
        st.integers(min_value=0, max_value=40),  # first block
        st.integers(min_value=0, max_value=4),   # range length / take count
        st.integers(min_value=1, max_value=2),   # cgroup
        st.booleans(),                           # admit dirty
    ),
    max_size=150,
)

INODE = 1


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_pagecache_lru_matches_reference(ops):
    cache = PageCache()
    lrus = {1: OrderedDict(), 2: OrderedDict()}  # cgroup -> blocks, LRU first
    owner = {}                                   # block -> cgroup
    stamps = {}                                  # block -> access seq
    dirty = OrderedDict()                        # block -> dirty_since
    seq = 0

    def touch(block):
        nonlocal seq
        seq += 1
        stamps[block] = seq
        lrus[owner[block]].move_to_end(block)

    def forget(block):
        lrus[owner.pop(block)].pop(block)
        del stamps[block]
        dirty.pop(block, None)

    for now, (op, block, n, cg, as_dirty) in enumerate(ops):
        now = float(now)
        blocks = range(block, block + n)
        keys = [(INODE, b) for b in blocks]
        if op == "admit":
            fresh = [(INODE, b) for b in blocks if b not in owner]
            assert cache.absent(keys) == fresh
            assert cache.admit(keys, cg, now, as_dirty) == len(fresh)
            for _, b in fresh:
                seq += 1
                stamps[b] = seq
                owner[b] = cg
                lrus[cg][b] = None
                if as_dirty:
                    dirty[b] = now
        elif op in ("lookup", "write"):
            if op == "lookup":
                misses = cache.lookup(INODE, block, block + n)
            else:
                misses = cache.lookup_dirty(INODE, block, block + n, now)
            assert misses == [(INODE, b) for b in blocks if b not in owner]
            for b in blocks:
                if b in owner:
                    touch(b)
                    if op == "write" and b not in dirty:
                        dirty[b] = now
        elif op == "remove":
            removed = cache.remove((INODE, block))
            assert (removed is not None) == (block in owner)
            if removed is not None:
                forget(block)
        elif op == "take":
            clean, taken_dirty = cache.take_coldest(cg, n)
            expected = list(lrus[cg])[:n]
            assert [e.block for e in taken_dirty] == [b for b in expected if b in dirty]
            assert [e.block for e in clean] == [b for b in expected if b not in dirty]
            for b in expected:
                forget(b)
        elif op == "clean":
            entry = cache.entries.get((INODE, block))
            if entry is not None:
                cache.mark_clean(entry)
                dirty.pop(block, None)
        else:  # container teardown
            assert cache.drop_cgroup(cg) == len(lrus[cg])
            for b in list(lrus[cg]):
                forget(b)

        # Invariants after every op.
        assert len(cache) == len(owner)
        assert cache.seq.value == seq
        assert {key[1]: e.seq for key, e in cache.entries.items()} == stamps
        assert [key[1] for key in cache.dirty] == list(dirty)
        assert [e.dirty_since for e in cache.dirty.values()] == list(dirty.values())
        for group, model in lrus.items():
            assert cache.cgroup_pages(group) == len(model)
            assert [key[1] for key in cache.lrus.get(group, ())] == list(model)
            coldest = cache.coldest(group)
            if model:
                assert coldest is not None
                assert coldest.block == next(iter(model))
            else:
                assert coldest is None
