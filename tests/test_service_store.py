"""DiskStore: semantics, enumerated crash points, power cuts,
kill-and-restart safety."""

import os
import random
import shutil
import signal
import sqlite3          # only to build the directories older layouts left
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StoreKind
from repro.service import DiskStore, ServiceCache, SetStatus
from repro.service import store as store_module
from repro.service.check import check_service, read_journal
from repro.service.protocol import MemcacheProtocol, parse_stats
from repro.service.store import (INLINE_BYTES, LAYOUT_VERSION, SLOT_BYTES,
                                 SlotMap, log_budget)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SMALL = b"s" * INLINE_BYTES            # the largest value kept in its frame
LARGE = b"L" * (INLINE_BYTES + 1)      # the smallest kept in the slab


def first_slots(store):
    """id -> first slot of every slab-backed entry, from the store's records."""
    return {entry.entry_id: entry.slot for entry in store.iter_entries()
            if entry.slot is not None}


def slab_bytes(directory):
    return os.path.getsize(os.path.join(directory, "data.slab"))


class DiskStoreBasicsTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(self._tmp.cleanup)
        self.addCleanup(self.store.close)

    def test_set_get_round_trip(self):
        slots = 0
        for value in (b"", b"hello", SMALL, LARGE, b"x" * 100_000,
                      b"y" * SLOT_BYTES, b"z" * (SLOT_BYTES + 1)):
            entry_id = self.store.set("t0", f"k{len(value)}", value, flags=7)
            self.assertEqual(self.store.get(entry_id), value)
            if len(value) > INLINE_BYTES:
                slots += -(-len(value) // SLOT_BYTES)
            self.assertEqual(slab_bytes(self._tmp.name), slots * SLOT_BYTES)
        flags = {entry.key: entry.flags for entry in self.store.iter_entries()}
        self.assertEqual(set(flags.values()), {7})
        self.assertEqual(sorted(os.listdir(self._tmp.name)),
                         ["data.slab", "log"])
        self.assertEqual(os.listdir(os.path.join(self._tmp.name, "log")),
                         ["1.seg"])

    def test_tenants_are_disjoint_namespaces(self):
        zero_id = self.store.set("t0", "k", b"zero")
        one_id = self.store.set("t1", "k", b"one")
        self.assertEqual(self.store.get(zero_id), b"zero")
        self.assertEqual(self.store.get(one_id), b"one")
        self.store.delete_entry(zero_id)
        self.assertIsNone(self.store.get(zero_id))
        self.assertEqual(self.store.get(one_id), b"one")

    def test_replace_allocates_new_id_and_drops_old_blob(self):
        first = self.store.set("t0", "k", LARGE)
        second = self.store.set("t0", "k", LARGE + b"!", replaces=first)
        self.assertGreater(second, first)
        self.assertEqual(self.store.get(second), LARGE + b"!")
        self.assertIsNone(self.store.get(first))
        self.assertEqual(self.store.count(), 1)
        # The new value went beside the old one (whose frame still claimed
        # slot 0 while it was written); slot 0 is the next to be used.
        self.assertEqual(bytes(self.store._map.used), b"\0\1")
        third = self.store.set("t0", "other", LARGE)
        self.assertEqual(first_slots(self.store), {second: 1, third: 0})

    def test_a_hole_of_exactly_the_size_is_taken_before_a_lower_larger_one(self):
        ids = [self.store.set("t0", f"k{i}", b"x" * (n * SLOT_BYTES))
               for i, n in enumerate((1, 2, 1, 1, 1))]        # A BB C D E
        self.store.delete_entry(ids[1])
        self.store.delete_entry(ids[3])                       # A __ C _ E
        one = self.store.set("t0", "one", b"1" * SLOT_BYTES)
        two = self.store.set("t0", "two", b"2" * (2 * SLOT_BYTES))
        more = self.store.set("t0", "more", b"m" * SLOT_BYTES)
        self.assertEqual([first_slots(self.store)[i] for i in (one, two, more)],
                         [4, 1, 6])                           # A 22 C 1 E m

    def test_freed_slots_are_reused_lowest_first_and_the_tail_is_cut(self):
        ids = [self.store.set("t0", f"k{i}", bytes([65 + i]) * (n * SLOT_BYTES))
               for i, n in enumerate((1, 2, 1, 3))]           # A BB C DDD
        self.assertEqual(slab_bytes(self._tmp.name), 7 * SLOT_BYTES)
        self.store.delete_entry(ids[1])                       # A __ C DDD
        self.store.delete_entry(ids[3])                       # A __ C
        self.assertEqual(slab_bytes(self._tmp.name), 4 * SLOT_BYTES)
        three = self.store.set("t0", "three", b"3" * (3 * SLOT_BYTES))
        one = self.store.set("t0", "one", b"1" * 2000)
        slots = first_slots(self.store)
        self.assertEqual((slots[three], slots[one]),
                         (4, 1))                              # A 1_ C 333
        self.store.delete_entries([three, ids[2]])            # A 1
        self.assertEqual(slab_bytes(self._tmp.name), 2 * SLOT_BYTES)
        self.assertEqual(self.store.get(ids[0]), b"A" * SLOT_BYTES)
        self.assertEqual(self.store.get(one), b"1" * 2000)
        # The frames alone give the same allocation state back.
        self.store.set("t0", "far", b"f" * SLOT_BYTES)
        self.store.delete_entry(one)                          # A _ f
        state = bytes(self.store._map.used), first_slots(self.store)
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertEqual((bytes(self.store._map.used), first_slots(self.store)),
                         state)
        self.assertEqual(state[0], b"\1\0\1")

    def test_iter_entries_in_fifo_id_order(self):
        for i in range(5):
            self.store.set("t0", f"k{i}", b"x" * (i + 1))
        ids = [entry.entry_id for entry in self.store.iter_entries()]
        self.assertEqual(ids, sorted(ids))
        sizes = [entry.size for entry in self.store.iter_entries()]
        self.assertEqual(sizes, [1, 2, 3, 4, 5])

    def test_tenant_bytes_accounting(self):
        self.store.set("t0", "a", b"x" * 10)
        self.store.set("t0", "b", b"x" * 3000)
        self.store.set("t1", "a", b"x" * 5)
        self.assertEqual(self.store.tenant_bytes(), {"t0": 3010, "t1": 5})

    def test_delete_entries_is_one_frame_for_the_whole_batch(self):
        victims = [self.store.set("t0", f"k{i}", value)
                   for i, value in enumerate((SMALL, LARGE, b"", LARGE))]
        keep = self.store.set("t0", "keep", LARGE)
        with mock.patch.object(os, "write", wraps=os.write) as write:
            self.store.delete_entries(victims)
            self.store.delete_entries(victims)      # nothing left to retire
        self.assertEqual(write.call_count, 1)
        self.assertEqual(len(write.call_args[0][1]), 8 + 1 + 4 * 8)
        self.assertEqual([e.entry_id for e in self.store.iter_entries()],
                         [keep])
        self.assertEqual(first_slots(self.store), {keep: 2})
        self.assertEqual(bytes(self.store._map.used), b"\0\0\1")

    def test_tenant_counters_track_sets_overwrites_and_deletes(self):
        """``stats tenants`` reads running counters, not a scan: 2 000
        entries, then overwrites and deletes, against a recount."""
        cache = ServiceCache(self.store, capacity_mb=16.0)
        rng = random.Random(7)
        sizes = {}
        for i in range(2000):
            key = (f"t{i % 3}", f"k{i}")
            sizes[key] = rng.choice((0, 10, 700, INLINE_BYTES, 3000))
            cache.set(*key, b"x" * sizes[key])

        def recount():
            totals = {}
            for (tenant, _), size in sizes.items():
                totals[tenant] = totals.get(tenant, 0) + size
            return totals

        def stats_tenants():
            stats = parse_stats(
                MemcacheProtocol(cache).stats(by_tenant=True).decode())
            return {name[:-len(":bytes")]: value
                    for name, value in stats.items()
                    if name.endswith(":bytes")}

        self.assertEqual(stats_tenants(), recount())
        for key in rng.sample(sorted(sizes), 700):
            cache.delete(*key)
            del sizes[key]
        for key in rng.sample(sorted(sizes), 300):
            sizes[key] = rng.choice((5, 2000))
            cache.set(*key, b"y" * sizes[key])
        self.assertEqual(stats_tenants(), recount())
        self.assertEqual(self.store.tenant_bytes(), recount())
        self.assertEqual(self.store.count(), len(sizes))
        self.assertEqual(check_service(cache), [])
        cache.flush_all("t1")
        self.assertEqual(self.store.tenant_bytes(),
                         {t: n for t, n in recount().items() if t != "t1"})
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertEqual(self.store.tenant_bytes(),
                         {t: n for t, n in recount().items() if t != "t1"})

    def test_a_closed_store_says_so_and_holds_no_descriptor(self):
        self.store.close()              # setUp's: count from a clean slate
        before = len(os.listdir("/proc/self/fd"))
        with mock.patch.object(store_module, "SEGMENT_BYTES", 2048):
            store = DiskStore(self._tmp.name, sync_writes=False)
            entry_id = store.set("t0", "k", LARGE)
            for i in range(20):         # several segments, so several fds
                store.set("t0", f"k{i}", SMALL)
            self.assertGreater(len(os.listdir("/proc/self/fd")), before + 3)
            store.close()
            store.close()
        self.assertEqual(len(os.listdir("/proc/self/fd")), before)
        for call in (lambda: store.set("t0", "k", b"v"),
                     lambda: store.get(entry_id),
                     lambda: store.get(entry_id + 1),
                     lambda: store.delete_entry(entry_id),
                     lambda: store.delete_entries([entry_id]),
                     lambda: list(store.iter_entries()),
                     store.tenant_bytes, store.count):
            with self.assertRaises(RuntimeError) as caught:
                call()
            self.assertIn(os.path.abspath(self._tmp.name),
                          str(caught.exception))
            self.assertIn("closed", str(caught.exception))

    def test_ids_are_never_reused_across_a_restart(self):
        ids = [self.store.set("t0", f"k{i}", b"v") for i in range(5)]
        for entry_id in ids[-2:]:       # delete the newest: max(id) is now 3
            self.store.delete_entry(entry_id)
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertGreater(self.store.set("t0", "again", b"v"), max(ids))

    def test_ids_increase_after_the_newest_are_deleted_and_reclaimed(self):
        """The lease outlives the segment that first recorded it: every
        segment opens with the current one."""
        self.store.close()
        with mock.patch.object(store_module, "SEGMENT_BYTES", 1024):
            store = DiskStore(self._tmp.name, sync_writes=False)
            keep = store.set("t0", "keep", b"v")
            ids = [store.set("t0", f"k{i}", SMALL) for i in range(1100)]
            store.delete_entries(ids)
            for i in range(12):         # churn until reclaim has caught up
                keep = store.set("t0", "keep", b"v", replaces=keep)
            first = min(int(name[:-4]) for name in
                        os.listdir(os.path.join(self._tmp.name, "log")))
            self.assertGreater(first, 1100, "their segments are still there")
            store.close()
            self.store = DiskStore(self._tmp.name, sync_writes=False)
            self.assertEqual(self.store.count(), 1)
            self.assertGreater(self.store.set("t0", "again", b"v"), keep)

    def test_a_short_write_leaves_no_half_frame_and_consumes_no_id(self):
        first = self.store.set("t0", "a", SMALL)

        def short_write(fd, data, _write=os.write):
            return _write(fd, data[:len(data) // 2])

        with mock.patch.object(os, "write", short_write), \
                self.assertRaises(OSError):
            self.store.set("t0", "b", SMALL)
        self.assertEqual(self.store.count(), 1)
        self.assertEqual(self.store.set("t0", "c", LARGE), first + 1)
        self.assertEqual(read_journal(self._tmp.name).violations, [])
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertEqual([e.key for e in self.store.iter_entries()], ["a", "c"])

    def test_a_directory_has_one_owner(self):
        with self.assertRaises(RuntimeError) as caught:
            DiskStore(self._tmp.name, sync_writes=False)
        self.assertIn(os.path.abspath(self._tmp.name), str(caught.exception))
        self.assertIn("locked", str(caught.exception))
        # The refusal disturbed nothing, and closing hands the directory on.
        entry_id = self.store.set("t0", "k", LARGE)
        self.store.close()
        self.store = DiskStore(self._tmp.name, sync_writes=False)
        self.assertEqual(self.store.get(entry_id), LARGE)


class SlotMapPropertyTests(unittest.TestCase):
    """``SlotMap`` against a list of bools searched by brute force."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("alloc"),
                  st.one_of(st.integers(1, 4), st.integers(1, 256))),
        st.tuples(st.just("free"), st.integers(min_value=0))), max_size=80))
    def test_exact_then_lowest_fit_no_overlap_no_free_tail_same_map_from_rows(
            self, ops):
        slots, model, runs = SlotMap(), [], []
        for op, arg in ops:
            if op == "alloc":
                fits = [at for at in range(len(model) - arg + 1)
                        if not any(model[at:at + arg])]
                exact = [at for at in fits       # walled in on both sides
                         if at and model[at - 1] and model[at + arg]]
                slot = slots.find(arg)
                self.assertEqual(slot, (exact or fits or [len(model)])[0])
                self.assertFalse(any(slots.used[slot:slot + arg]), "overlap")
                slots.claim(slot, arg)
                model[slot:slot + arg] = [True] * arg
                runs.append((slot, arg))
            elif runs:
                slot, count = runs.pop(arg % len(runs))
                slots.release(slot, count)
                model[slot:slot + count] = [False] * count
                while model and not model[-1]:
                    model.pop()
                self.assertTrue(not slots.used or slots.used[-1])
            self.assertEqual([bool(taken) for taken in slots.used], model)
        reopened = SlotMap()
        for slot, count in reversed(runs):      # rows come in id order,
            reopened.claim(slot, count)         # not in slot order
        self.assertEqual(reopened.used, slots.used)


class JournalPropertyTests(unittest.TestCase):
    """``DiskStore`` with 4 KiB segments against a dict."""

    KEYS = [(tenant, f"k{i}") for tenant in ("t0", "t1") for i in range(6)]
    SIZES = (0, 40, 900, INLINE_BYTES, INLINE_BYTES + 1, 6000)

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(KEYS),
                  st.sampled_from(SIZES)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
        st.tuples(st.just("batch"), st.sets(st.sampled_from(KEYS)), st.none()),
        st.tuples(st.just("reopen"), st.none(), st.none())), max_size=120))
    def test_contents_order_counters_ids_and_budget_against_a_dict(self, ops):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(store_module, "SEGMENT_BYTES", 4096):
            store = DiskStore(tmp, sync_writes=False)
            model = {}      # (tenant, key) -> (id, value, flags)
            issued = 0
            try:
                for step, (op, arg, size) in enumerate(ops + [("reopen",) * 3]):
                    if op == "set":
                        value = bytes([step % 251]) * size
                        old = model.get(arg)
                        entry_id = store.set(*arg, value, flags=step,
                                             replaces=old and old[0])
                        self.assertGreater(entry_id, issued, "id reused")
                        issued = entry_id
                        model[arg] = (entry_id, value, step)
                    elif op == "delete" and arg in model:
                        store.delete_entry(model.pop(arg)[0])
                    elif op == "batch":
                        gone = [model.pop(key) for key in sorted(arg)
                                if key in model]
                        store.delete_entries(
                            [entry_id for entry_id, _, _ in gone])
                    elif op == "reopen":
                        store.close()
                        store = DiskStore(tmp, sync_writes=False)
                        self.assertEqual(
                            [(e.entry_id, (e.tenant, e.key), e.flags, e.size)
                             for e in store.iter_entries()],
                            sorted((entry_id, key, flags, len(value)) for
                                   key, (entry_id, value, flags) in model.items()))
                    # After every op: values, counters, and the journal as a
                    # parser that shares no code with the store sees it.
                    for entry_id, value, _ in model.values():
                        self.assertEqual(store.get(entry_id), value)
                    totals = {}
                    for (tenant, _), (_, value, _) in model.items():
                        totals[tenant] = totals.get(tenant, 0) + len(value)
                    self.assertEqual(store.tenant_bytes(), totals)
                    self.assertEqual(store.count(), len(model))
                    journal = read_journal(tmp)
                    self.assertEqual(journal.violations, [])
                    self.assertEqual(sorted(journal.rows),
                                     sorted(entry_id for entry_id, _, _
                                            in model.values()))
                    log = sum(size for _, size, _ in journal.segments)
                    live = sum(live for _, _, live in journal.segments)
                    self.assertLessEqual(log, log_budget(live))
            finally:
                store.close()


# -- crash points -----------------------------------------------------------

class Crash(Exception):
    """Raised by the injector where a power cut would stop the process."""


class Boundaries:
    """Counts ``DiskStore``'s calls across its boundary with the
    operating system — ``write`` (a frame), ``pwrite`` (a slab run),
    ``fsync``, ``ftruncate``, ``open`` (a segment roll) and ``unlink``
    (reclaim) — and raises :class:`Crash` when the ``crash_at``-th one
    has happened.  A crash at a ``write`` or ``pwrite`` lands mid-call:
    half the bytes reach the file.  Leaving the block closes the store's
    descriptors, as the death of its process would.
    """

    def __init__(self, store, crash_at=None):
        self.crash_at = crash_at
        self.trace = []
        self._store = store
        self._patches = [
            mock.patch.object(os, "write", self._torn(os.write)),
            mock.patch.object(os, "pwrite", self._torn(os.pwrite))] + [
            mock.patch.object(os, call.__name__, self._wrap(call))
            for call in (os.fsync, os.ftruncate, os.open, os.unlink)]

    def __enter__(self):
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self._patches:
            patch.stop()
        self._store.close()

    def hit(self, name):
        self.trace.append(name)
        if len(self.trace) == self.crash_at:
            raise Crash(f"after boundary {self.crash_at} ({name})")

    def _wrap(self, call):
        def wrapped(*args):
            result = call(*args)
            self.hit(call.__name__)
            return result
        return wrapped

    def _torn(self, call):
        def torn(fd, data, *offset):
            half = len(data) // 2
            call(fd, data[:half], *offset)
            self.hit(call.__name__)
            call(fd, data[half:], *(at + half for at in offset))
            return len(data)
        return torn


def tiny_cache(directory):
    """Eight 4 KiB blocks, fsync on (so ``fsync`` is a boundary too)."""
    return ServiceCache(DiskStore(directory, sync_writes=True),
                        capacity_mb=8 * 4096 / (1 << 20),
                        eviction_batch_mb=4 * 4096 / (1 << 20))


NEWCOMER = b"N" * len(LARGE)


class CrashPointTests(unittest.TestCase):
    """Kill the store after the n-th boundary, for every n of an
    operation; the reopened service must be consistent, hold every
    acknowledged entry it was not asked to drop, and serve no stale
    value — the in-flight operation alone may or may not have happened.
    """

    #: Stored first, in this order: ``b`` takes slot 0 of the slab and
    #: ``d`` slot 1, the other three live in their frames.
    BASE = {"a": SMALL, "b": LARGE, "c": b"", "d": LARGE * 2, "e": SMALL}

    #: name -> (operation, keys it may remove, {key: value it may write})
    SCENARIOS = {
        "set small": (lambda c: c.set("t0", "new", SMALL, 3),
                      (), {"new": SMALL}),
        # The first set of a process also writes the next id lease, in
        # the same write: the tear falls in either frame.
        "set small after reopen": (lambda c: c.set("t0", "new", SMALL, 3),
                                   (), {"new": SMALL}),
        "set large": (lambda c: c.set("t0", "new", LARGE, 3),
                      (), {"new": LARGE}),
        "overwrite large with large": (
            lambda c: c.set("t0", "b", LARGE + b"2", 3), (), {"b": LARGE + b"2"}),
        "overwrite large with large while a free run exists below it": (
            lambda c: c.set("t0", "d", LARGE + b"2", 3), (), {"d": LARGE + b"2"}),
        "overwrite large with small": (
            lambda c: c.set("t0", "d", SMALL, 3), (), {"d": SMALL}),
        "overwrite small with large": (
            lambda c: c.set("t0", "a", LARGE, 3), (), {"a": LARGE}),
        "delete small": (lambda c: c.delete("t0", "a"), ("a",), {}),
        "delete large": (lambda c: c.delete("t0", "d"), ("d",), {}),
        "delete large below another": (
            lambda c: c.delete("t0", "b"), ("b",), {}),
        # 6 blocks needed, 3 free of 8: FIFO-evicts a, b, c in one batch.
        "eviction batch": (lambda c: c.set("t0", "big", b"B" * 24_000, 3),
                           ("a", "b", "c"), {"big": b"B" * 24_000}),
        # Full cache, b at the FIFO head: its slot is the lowest free one
        # the moment its DEL frame is written, and the newcomer goes there.
        "set large into the slots an eviction just vacated": (
            lambda c: c.set("t0", "new", NEWCOMER, 3),
            ("b",), {"new": NEWCOMER}),
        "flush_all": (lambda c: c.flush_all("t0"), tuple(BASE), {}),
        # With 1 KiB segments (SEGMENTS below) BASE fills two and they
        # are sealed; SETUP leaves the journal just under its trigger.
        "set that rolls the segment": (
            lambda c: c.set("t0", "new", SMALL, 3), (), {"new": SMALL}),
        "set whose reclaim copies forward and unlinks the oldest segments": (
            lambda c: c.set("t0", "e", b"E" * INLINE_BYTES, 3),
            (), {"e": b"E" * INLINE_BYTES}),
        "delete of an entry whose PUT was copied forward": (
            lambda c: c.delete("t0", "a"), ("a",), {}),
    }

    #: Scenarios that patch ``SEGMENT_BYTES``, and to what.
    SEGMENTS = {
        "set that rolls the segment": 1024,
        "set whose reclaim copies forward and unlinks the oldest segments":
            1024,
        "delete of an entry whose PUT was copied forward": 1024,
    }

    #: Steps between BASE and the operation, for the scenarios that need
    #: the slab or the FIFO in a particular state.
    SETUP = {
        "overwrite large with large while a free run exists below it":
            lambda c: c.delete("t0", "b"),
        "set large into the slots an eviction just vacated":
            lambda c: [c.delete("t0", "a")] + [
                c.set("t0", key, SMALL, 1) for key in "fghi"],
        "set whose reclaim copies forward and unlinks the oldest segments":
            lambda c: [c.set("t0", "e", SMALL, 1) for _ in range(2)],
        "delete of an entry whose PUT was copied forward":
            lambda c: [c.set("t0", "e", SMALL, 1) for _ in range(3)],
    }

    def segments(self, scenario):
        return mock.patch.object(
            store_module, "SEGMENT_BYTES",
            self.SEGMENTS.get(scenario, store_module.SEGMENT_BYTES))

    def prepare(self, directory, scenario):
        """The cache the operation runs on, and what it then holds."""
        cache = tiny_cache(directory)
        for key, value in self.BASE.items():
            self.assertEqual(cache.set("t0", key, value, 1), SetStatus.STORED)
        if scenario in self.SETUP:
            self.SETUP[scenario](cache)
        if scenario.endswith("after reopen"):
            cache.close()
            cache = tiny_cache(directory)
        base = {entry.key: cache.get("t0", entry.key)[:2]
                for entry in cache.store.iter_entries()}
        return cache, base

    def test_every_boundary_of_every_operation(self):
        for name, (operate, may_remove, may_write) in self.SCENARIOS.items():
            with self.segments(name):
                with tempfile.TemporaryDirectory() as tmp:
                    cache, _ = self.prepare(tmp, name)
                    with Boundaries(cache.store) as dry_run:
                        operate(cache)
                self.assertGreater(len(dry_run.trace), 0, name)
                for crash_at in range(1, len(dry_run.trace) + 1):
                    where = f"{name}: crash after boundary {crash_at} of " \
                            f"{dry_run.trace}"
                    with tempfile.TemporaryDirectory() as tmp:
                        cache, base = self.prepare(tmp, name)
                        with Boundaries(cache.store, crash_at), \
                                self.assertRaises(Crash, msg=where):
                            operate(cache)
                        self.verify(tmp, base, may_remove, may_write, where)

    def verify(self, directory, base, may_remove, may_write, where):
        cache = tiny_cache(directory)
        self.addCleanup(cache.close)
        self.assertEqual(check_service(cache), [], where)
        removed, written = [], []
        for key in {**base, **may_write}:
            found = cache.get("t0", key)
            old = base.get(key)
            new = (may_write[key], 3) if key in may_write else None
            if found is None:
                if old is not None:
                    self.assertIn(key, may_remove,
                                  f"{where}: acknowledged {key!r} is lost")
                    removed.append(key)
            elif found[:2] == new:
                written.append(key)
            else:
                self.assertEqual(found[:2], old,
                                 f"{where}: {key!r} is stale or foreign")
        # One DEL frame retires a batch — all of it went or none of it —
        # and room is made before the value that needs it is committed.
        self.assertIn(sorted(removed), ([], sorted(may_remove)), where)
        if written:
            self.assertEqual(sorted(removed), sorted(may_remove), where)
        self.assertEqual(
            cache.store.count(),
            len(base) - len(removed) + len(set(written) - set(base)),
            where)

    def test_the_boundaries_are_the_protocol_the_docstring_states(self):
        put = ["write", "fsync"]                    # one frame, made durable
        run = ["pwrite", "fsync"]                   # one slab run, likewise
        roll = ["open", "fsync"]                    # the file, its directory
        retire = ["unlink", "fsync"]                # likewise
        #: name -> (boundaries crossed, slots the slab spans afterwards)
        expected = {
            "set small": (put, 2),
            "set small after reopen": (put, 2),
            "set large": (run + put, 3),
            # The old frame claims slot 0 until the new one is written.
            "overwrite large with large": (run + put, 3),
            "overwrite large with large while a free run exists below it":
                (run + put + ["ftruncate"], 1),
            "overwrite large with small": (put + ["ftruncate"], 1),
            "overwrite small with large": (run + put, 3),
            "delete small": (put, 2),
            "delete large": (put + ["ftruncate"], 1),
            "delete large below another": (put, 2),
            "eviction batch": (put + run + put, 8),
            "set large into the slots an eviction just vacated":
                (put + run + put, 2),
            "flush_all": (put + ["ftruncate"], 0),
            "set that rolls the segment": (roll + put, 2),
            # The third overwrite of e tips the journal over its trigger:
            # a is copied out of segment 1, b c d out of segment 2, and
            # both are unlinked.  Every frame of 1 KiB fills a segment.
            "set whose reclaim copies forward and unlinks the oldest segments":
                (roll + put + roll + put + retire + roll + put + retire, 2),
            # Retiring a's 1 KiB lowers the trigger: a dead segment goes.
            "delete of an entry whose PUT was copied forward":
                (put + retire, 2),
        }
        self.assertEqual(set(expected), set(self.SCENARIOS))
        for name, (trace, slots) in expected.items():
            with self.segments(name), tempfile.TemporaryDirectory() as tmp:
                cache, _ = self.prepare(tmp, name)
                with Boundaries(cache.store) as boundaries:
                    self.SCENARIOS[name][0](cache)
                self.assertEqual(boundaries.trace, trace, name)
                self.assertEqual(slab_bytes(tmp), slots * SLOT_BYTES, name)


class FlushedImages:
    """An ``os.fsync`` that remembers what a power cut would leave: per
    file the bytes as of its last ``fsync``, per directory the names as
    of *its* last ``fsync``.  A name synced before its file's first
    ``fsync`` is an empty file; an unlinked file whose directory was not
    synced since is back, holding what it last flushed."""

    def __init__(self, root):
        self.root = root
        self.files = {}
        self.names = {}

    def fsync(self, fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        if os.path.isdir(path):
            self.names[path] = os.listdir(path)
        else:
            with open(path, "rb") as handle:
                self.files[path] = handle.read()

    def rebuild(self, target):
        shutil.rmtree(target, ignore_errors=True)
        for folder in sorted(self.names):           # parents first
            there = os.path.join(target, os.path.relpath(folder, self.root))
            os.makedirs(there, exist_ok=True)
            for name in self.names[folder]:
                path = os.path.join(folder, name)
                if path not in self.names and not os.path.isdir(path):
                    with open(os.path.join(there, name), "wb") as out:
                        out.write(self.files.get(path, b""))


class PowerCutTests(unittest.TestCase):
    """Durability as "readable after a restart from only the bytes
    flushed before the crash": after every acknowledged operation the
    directory is rebuilt from the flushed images alone and reopened.
    (The enumerator above models ``SIGKILL``, where every write stays.)
    """

    OPS = 300

    def test_every_acknowledged_op_survives_on_the_flushed_bytes_alone(self):
        rng = random.Random(20261001)
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        live_dir = os.path.join(tmp.name, "live")
        cut_dir = os.path.join(tmp.name, "cut")
        images = FlushedImages(live_dir)
        seen = dict.fromkeys(("stored", "overwrite", "deleted", "evicted",
                              "flushed", "rolled", "unlinked"), 0)

        def open_cache(directory, sync_writes):
            return ServiceCache(DiskStore(directory, sync_writes=sync_writes),
                                capacity_mb=10 * 4096 / (1 << 20),
                                eviction_batch_mb=2 * 4096 / (1 << 20))

        with mock.patch.object(store_module, "SEGMENT_BYTES", 2048), \
                mock.patch.object(os, "fsync", images.fsync):
            cache = open_cache(live_dir, True)
            self.addCleanup(lambda: cache.close())
            model = {}              # key -> (value, flags), acknowledged
            for step in range(1, self.OPS + 1):
                # Hot keys churn tiny frames, cold ones keep large frames
                # alive for long: reclaim then works in small steps and
                # finds live frames to copy, which is where its syncs count.
                hot = rng.random() < 0.7
                key = f"h{rng.randrange(6)}" if hot else f"c{rng.randrange(30)}"
                segments = os.listdir(os.path.join(live_dir, "log"))
                roll = rng.random()
                if roll < 0.70:
                    size = rng.choice((0, 0, 30, 30, 700) if hot else (
                        700, INLINE_BYTES, INLINE_BYTES + 1, 5000, 9000))
                    head = f"{key}:{step}|".encode()
                    value = (head * (size // len(head) + 1))[:size]
                    self.assertEqual(cache.set("t0", key, value, step),
                                     SetStatus.STORED)
                    seen["overwrite" if key in model else "stored"] += 1
                    model[key] = (value, step)
                elif roll < 0.97:
                    seen["deleted"] += cache.delete("t0", key)
                    model.pop(key, None)
                else:
                    seen["flushed"] += cache.flush_all("t0")
                    model.clear()
                for lost in [k for k in model if ("t0", k) not in cache._ids]:
                    seen["evicted"] += 1
                    del model[lost]
                after = os.listdir(os.path.join(live_dir, "log"))
                seen["rolled"] += len(set(after) - set(segments))
                seen["unlinked"] += len(set(segments) - set(after))

                images.rebuild(cut_dir)
                survivor = open_cache(cut_dir, False)
                try:
                    where = f"power cut after step {step}"
                    self.assertEqual(check_service(survivor), [], where)
                    self.assertEqual(
                        {entry.key: survivor.get("t0", entry.key)[:2]
                         for entry in survivor.store.iter_entries()},
                        model, where)
                finally:
                    survivor.close()
        for outcome, count in seen.items():
            self.assertGreater(count, 3, f"{outcome}: {seen}")


class CrashStateRecoveryTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def test_bytes_past_the_last_claimed_slot_are_cut_off_at_open(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        kept = store.set("t0", "k", LARGE)
        store.close()
        with open(os.path.join(self._tmp.name, "data.slab"), "ab") as slab:
            slab.write(b"torn append" * 1000)

        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertEqual(slab_bytes(self._tmp.name), SLOT_BYTES)
        self.assertEqual(reopened.get(kept), LARGE)

    def test_a_short_value_is_a_miss_and_heals(self):
        """Cut ``data.slab`` under a live cache: what no longer reads
        back whole is a miss, never a prefix, and reading it repairs
        index, rows and slot map."""
        cache = tiny_cache(self._tmp.name)
        self.addCleanup(cache.close)
        whole, cut, gone = b"w" * 5000, b"c" * 5000, b"g" * 5000
        for key, value in (("whole", whole), ("cut", cut), ("gone", gone)):
            self.assertEqual(cache.set("t0", key, value), SetStatus.STORED)
        self.assertEqual(slab_bytes(self._tmp.name), 6 * SLOT_BYTES)
        os.truncate(os.path.join(self._tmp.name, "data.slab"),
                    2 * SLOT_BYTES + 100)
        self.assertNotEqual(check_service(cache), [])

        # Healing "gone" first must not lengthen the file under "cut",
        # or "cut" would read back as 100 bytes and 4 900 zeros.
        self.assertIsNone(cache.get("t0", "gone"))
        self.assertIsNone(cache.get("t0", "cut"))
        self.assertEqual(cache.get("t0", "whole")[0], whole)
        self.assertEqual(check_service(cache), [])
        self.assertEqual(cache.stats()["_host"]["entries"], 1)
        self.assertEqual(slab_bytes(self._tmp.name), 2 * SLOT_BYTES)
        self.assertEqual(cache.set("t0", "cut", cut), SetStatus.STORED)
        self.assertEqual(cache.get("t0", "cut")[0], cut)

    def test_a_short_file_is_not_lengthened_at_open(self):
        store = DiskStore(self._tmp.name, sync_writes=False)
        entry_id = store.set("t0", "k", b"v" * 5000)
        store.close()
        os.truncate(os.path.join(self._tmp.name, "data.slab"), 100)
        reopened = DiskStore(self._tmp.name, sync_writes=False)
        self.addCleanup(reopened.close)
        self.assertEqual(slab_bytes(self._tmp.name), 100)
        self.assertIsNone(reopened.get(entry_id))

    def test_older_layout_is_refused_loudly_and_left_untouched(self):
        path = os.path.join(self._tmp.name, "meta.db")
        old = sqlite3.connect(path)
        old.execute(
            "CREATE TABLE entries (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "tenant TEXT NOT NULL, key TEXT NOT NULL, flags INTEGER NOT NULL "
            "DEFAULT 0, size INTEGER NOT NULL, ready INTEGER NOT NULL "
            "DEFAULT 0, UNIQUE (tenant, key))")
        old.execute("INSERT INTO entries (tenant, key, size, ready) "
                    "VALUES ('t0', 'k', 1, 1)")
        old.commit()
        old.close()
        with self.assertRaises(RuntimeError) as caught:
            DiskStore(self._tmp.name, sync_writes=False)
        self.assertIn("layout version 0", str(caught.exception))
        self.assertIn(f"version {LAYOUT_VERSION} only", str(caught.exception))
        old = sqlite3.connect(path)
        self.addCleanup(old.close)
        self.assertEqual(
            old.execute("SELECT tenant, key FROM entries").fetchall(),
            [("t0", "k")])

    def test_file_per_value_layout_is_refused_and_left_byte_for_byte(self):
        """A version-2 directory (``data/<id>.val``), written the way
        that build wrote it, WAL mode included."""
        os.makedirs(os.path.join(self._tmp.name, "data"))
        with open(os.path.join(self._tmp.name, "data", "2.val"), "wb") as blob:
            blob.write(LARGE)
        old = sqlite3.connect(os.path.join(self._tmp.name, "meta.db"),
                              isolation_level=None)
        old.execute("PRAGMA journal_mode=WAL")
        old.executescript(
            "BEGIN; CREATE TABLE entries (id INTEGER PRIMARY KEY, tenant TEXT "
            "NOT NULL, key TEXT NOT NULL, flags INTEGER NOT NULL, size INTEGER "
            "NOT NULL, value BLOB, UNIQUE (tenant, key)); "
            "CREATE TABLE lease (high_water INTEGER NOT NULL); "
            "INSERT INTO lease VALUES (1024); PRAGMA user_version = 2; COMMIT;")
        old.execute("INSERT INTO entries VALUES (1, 't0', 'small', 0, 1, x'76')")
        old.execute("INSERT INTO entries VALUES (2, 't0', 'large', 0, ?, NULL)",
                    (len(LARGE),))
        old.close()

        def snapshot():
            found = {}
            for folder, _, names in os.walk(self._tmp.name):
                for name in names:
                    with open(os.path.join(folder, name), "rb") as handle:
                        found[os.path.relpath(handle.name, self._tmp.name)] = \
                            handle.read()
            return found

        before = snapshot()
        self.assertEqual(sorted(before), ["data/2.val", "meta.db"])
        with self.assertRaises(RuntimeError) as caught:
            DiskStore(self._tmp.name, sync_writes=False)
        self.assertIn("layout version 2", str(caught.exception))
        self.assertIn(f"version {LAYOUT_VERSION} only", str(caught.exception))
        self.assertEqual(snapshot(), before)


_KILL_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.service import DiskStore, ServiceCache
cache = ServiceCache(DiskStore({directory!r}, sync_writes=False),
                     capacity_mb=1.0)
print("ready", flush=True)
i = 0
while True:
    tenant, key, size = "t%d" % (i % 2), "key%d" % (i % 997), 64 + i * 37 % 9000
    head = ("%s/%s|" % (tenant, key)).encode()      # says whose bytes these are
    cache.set(tenant, key, (head * (size // len(head) + 1))[:size])
    i += 1
"""


class KillAndRestartTests(unittest.TestCase):
    """SIGKILL a writer mid-stream; the survivor state must be clean."""

    def test_store_survives_sigkill_mid_write_stream(self):
        with tempfile.TemporaryDirectory() as tmp:
            script = _KILL_WRITER.format(src=REPO_SRC, directory=tmp)
            proc = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            try:
                self.assertEqual(proc.stdout.readline().strip(), b"ready")
                time.sleep(0.5)  # sets, overwrites and eviction batches
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                proc.stdout.close()
                proc.stderr.close()

            cache = ServiceCache(DiskStore(tmp, sync_writes=False),
                                 capacity_mb=1.0)
            self.addCleanup(cache.close)
            entries = list(cache.store.iter_entries())
            self.assertGreater(len(entries), 10,
                               "writer died before doing real work")
            # Rows, slots, index and pool accounting all agree, and every
            # survivor reads back at its recorded size with its own bytes
            # (slots are reused: a foreign value would show its owner).
            self.assertEqual(check_service(cache), [])
            ids = [entry.entry_id for entry in entries]
            self.assertEqual(ids, sorted(set(ids)))
            for entry in entries:
                value, _, entry_id = cache.get(entry.tenant, entry.key)
                head = f"{entry.tenant}/{entry.key}|".encode()
                self.assertEqual(entry_id, entry.entry_id)
                self.assertEqual(
                    value, (head * (entry.size // len(head) + 1))[:entry.size])

    def test_recovery_is_idempotent(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            for i in range(10):
                store.set("t0", f"k{i}", LARGE if i % 2 else SMALL)
            store.close()
            for _ in range(3):
                reopened = DiskStore(tmp, sync_writes=False)
                self.assertEqual(reopened.count(), 10)
                self.assertEqual(bytes(reopened._map.used), b"\1" * 5)
                self.assertEqual(slab_bytes(tmp), 5 * SLOT_BYTES)
                reopened.close()


class ServiceCacheRecoveryTests(unittest.TestCase):
    """The cache layer rebuilds FIFO order and accounting from disk."""

    def test_restart_preserves_fifo_eviction_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp, sync_writes=False)
            # Capacity of 8 blocks, 1-block values.
            cache = ServiceCache(store, capacity_mb=8 * 4096 / (1 << 20),
                                 eviction_batch_mb=4096 / (1 << 20))
            for i in range(8):
                cache.set("t0", f"k{i}", b"v")
            cache.close()

            store = DiskStore(tmp, sync_writes=False)
            cache = ServiceCache(store, capacity_mb=8 * 4096 / (1 << 20),
                                 eviction_batch_mb=4096 / (1 << 20))
            self.assertEqual(cache.engine.used[StoreKind.SSD], 8)
            # The next insert must evict k0 — the oldest surviving entry
            # — proving the FIFO came back in pre-restart order.
            cache.set("t0", "fresh", b"v")
            self.assertIsNone(cache.get("t0", "k0"))
            self.assertIsNotNone(cache.get("t0", "k1"))
            self.assertIsNotNone(cache.get("t0", "fresh"))
            cache.close()


if __name__ == "__main__":
    unittest.main()
