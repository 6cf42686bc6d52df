"""Unit tests for cache pools and VM entries."""

import ast
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core import CachePolicy, DDConfig, Pool, StoreKind, VMEntry

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_pool(policy=None, totals=None):
    return Pool(1, 1, "test", policy or CachePolicy.memory(50), totals)


class RecordingUnits:
    """A ``MemoryUnits`` stand-in: counts each key charged minus released."""

    def __init__(self):
        self.held = Counter()

    def charge(self, namespace, inode, block):
        self.held[namespace, inode, block] += 1

    def release(self, namespace, inode, block):
        self.held[namespace, inode, block] -= 1


class TestPool:
    def test_empty_pool(self):
        pool = make_pool()
        assert len(pool) == 0
        assert pool.lookup(1, 0) is None

    def test_insert_lookup_remove(self):
        pool = make_pool()
        pool.insert(10, 5, StoreKind.MEMORY)
        assert pool.lookup(10, 5) is StoreKind.MEMORY
        assert pool.used[StoreKind.MEMORY] == 1
        assert pool.remove_key((10, 5)) is StoreKind.MEMORY
        assert pool.lookup(10, 5) is None
        assert pool.used[StoreKind.MEMORY] == 0

    def test_remove_absent_returns_none(self):
        pool = make_pool()
        assert pool.remove_key((1, 1)) is None

    def test_insert_replace_across_stores(self):
        pool = make_pool(CachePolicy.hybrid(50, 50))
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.insert(1, 0, StoreKind.SSD)
        assert pool.lookup(1, 0) is StoreKind.SSD
        assert pool.used[StoreKind.MEMORY] == 0
        assert pool.used[StoreKind.SSD] == 1
        assert len(pool) == 1

    def test_fifo_order_is_insertion_order(self):
        pool = make_pool()
        for block in (3, 1, 2):
            pool.insert(1, block, StoreKind.MEMORY)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 3)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 1)
        assert pool.pop_oldest(StoreKind.MEMORY) == (1, 2)
        assert pool.pop_oldest(StoreKind.MEMORY) is None

    def test_pop_oldest_updates_index(self):
        pool = make_pool()
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.pop_oldest(StoreKind.MEMORY)
        assert pool.lookup(1, 0) is None
        assert 1 not in pool.files

    def test_remove_inode_drops_all_blocks(self):
        pool = make_pool()
        for block in range(5):
            pool.insert(7, block, StoreKind.MEMORY)
        pool.insert(8, 0, StoreKind.MEMORY)
        counts = pool.remove_inode(7)
        assert counts[StoreKind.MEMORY] == 5
        assert len(pool) == 1
        assert pool.lookup(8, 0) is StoreKind.MEMORY

    def test_drain(self):
        pool = make_pool(CachePolicy.hybrid(50, 50))
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.insert(1, 1, StoreKind.SSD)
        counts = pool.drain()
        assert counts[StoreKind.MEMORY] == 1
        assert counts[StoreKind.SSD] == 1
        assert len(pool) == 0
        assert not pool.files

    def test_snapshot_stats_reflects_usage(self):
        pool = make_pool()
        pool.insert(1, 0, StoreKind.MEMORY)
        pool.entitlement[StoreKind.MEMORY] = 10
        pool.stats.gets = 4
        pool.stats.get_hits = 2
        stats = pool.snapshot_stats()
        assert stats.mem_used_blocks == 1
        assert stats.mem_entitlement_blocks == 10
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_iter_keys_oldest_first(self):
        pool = make_pool()
        pool.insert(1, 5, StoreKind.MEMORY)
        pool.insert(1, 2, StoreKind.MEMORY)
        assert list(pool.iter_keys(StoreKind.MEMORY)) == [(1, 5), (1, 2)]

    def test_batch_sweep_equivalent_to_per_key(self):
        """``remove_many`` agrees with a ``remove_key`` loop
        on a request stream with repeats and absent keys."""
        rng = random.Random(7)
        keys = [(rng.randrange(64), rng.randrange(4096)) for _ in range(2000)]
        a, b = make_pool(), make_pool()
        for inode, block in dict.fromkeys(keys[::2]):
            a.insert(inode, block, StoreKind.MEMORY)
            b.insert(inode, block, StoreKind.MEMORY)
        removed = [key for key in keys if a.remove_key(key) is not None]
        mem_keys, ssd_keys = b.remove_many(keys)
        assert mem_keys == removed
        assert ssd_keys == []
        assert len(a) == len(b) == 0

    def test_interleaved_mutations_keep_fifo_order(self):
        """insert / remove_key / remove_many / pop_oldest all share one
        FIFO: residence order stays insertion order."""
        pool = make_pool()
        rng = random.Random(11)
        model = []  # live keys, oldest first
        next_block = 0
        for _ in range(200):
            for _ in range(rng.randrange(1, 9)):
                pool.insert(next_block % 5, next_block, StoreKind.MEMORY)
                model.append((next_block % 5, next_block))
                next_block += 1
            victim = model.pop(rng.randrange(len(model)))
            assert pool.remove_key(victim) is StoreKind.MEMORY
            batch = rng.sample(model, min(3, len(model)))
            mem_keys, _ = pool.remove_many(batch + [victim])  # victim: absent
            assert mem_keys == batch
            model = [key for key in model if key not in batch]
            if model:
                assert pool.pop_oldest(StoreKind.MEMORY) == model.pop(0)
            assert list(pool.iter_keys(StoreKind.MEMORY)) == model
            assert len(pool) == len(model)

    def test_matches_brute_force_model_across_stores(self):
        """Every mutation on MEMORY and SSD together, against two plain
        lists: a re-insert (same or other store) lands at the new store's
        tail, ``remove_many`` reports first occurrences in request order,
        ``insert_new`` appends an all-new batch in request order and
        refuses, untouched, one with a cached or repeated key, and the
        per-inode views follow.  A second pool sharing the
        store totals is charged block counts beside it (the service's
        use, which indexes nothing), and the totals stay the sum of both
        pools' ``used``.  The pool's ``units`` is charged once for every
        block in its memory FIFO and nothing else, across cross-store
        replaces too."""
        totals = {StoreKind.MEMORY: 0, StoreKind.SSD: 0}
        pool = make_pool(CachePolicy.hybrid(50, 50), totals)
        pool.units = units = RecordingUnits()
        other = Pool(2, 1, "other", CachePolicy.hybrid(50, 50), totals)
        cross_store_replaces = 0
        batches = Counter()  # insert_new outcomes
        rng = random.Random(25)
        side = random.Random(26)  # the charges; ``rng`` drives ``pool``
        kinds = (StoreKind.MEMORY, StoreKind.SSD)
        charged = {kind: 0 for kind in kinds}
        fifo = {kind: [] for kind in kinds}  # oldest first
        where = {}  # key -> store

        def model_remove(key):
            kind = where.pop(key, None)
            if kind is not None:
                fifo[kind].remove(key)
            return kind

        def random_key():
            return (rng.randrange(6), rng.randrange(12))

        for step in range(3000):
            op = rng.random()
            if op < 0.45:
                key, kind = random_key(), rng.choice(kinds)
                cross_store_replaces += where.get(key, kind) is not kind
                pool.insert(key[0], key[1], kind)
                model_remove(key)
                fifo[kind].append(key)
                where[key] = kind
            elif op < 0.55:
                kind = rng.choice(kinds)
                free = [(inode, block) for inode in range(6)
                        for block in range(12) if (inode, block) not in where]
                batch = rng.sample(free, min(len(free), rng.randrange(1, 6)))
                spoil = rng.random()
                if spoil < 0.2 and where:  # one cached key
                    batch.insert(rng.randrange(len(batch) + 1),
                                 rng.choice(sorted(where)))
                elif spoil < 0.4 and batch:  # one key twice
                    batch.append(rng.choice(batch))
                fresh = (len(set(batch)) == len(batch)
                         and not any(key in where for key in batch))
                assert pool.insert_new(batch, kind) is fresh, step
                batches[fresh] += 1
                if fresh:
                    fifo[kind].extend(batch)
                    where.update((key, kind) for key in batch)
            elif op < 0.65:
                batch = [random_key() for _ in range(rng.randrange(1, 8))]
                batch += rng.sample(batch, min(2, len(batch)))  # repeats
                expected = {kind: [] for kind in kinds}
                for key in batch:
                    kind = model_remove(key)
                    if kind is not None:
                        expected[kind].append(key)
                mem_keys, ssd_keys = pool.remove_many(batch)
                assert mem_keys == expected[StoreKind.MEMORY], step
                assert ssd_keys == expected[StoreKind.SSD], step
            elif op < 0.78:
                key = random_key()
                assert pool.remove_key(key) is model_remove(key), step
            elif op < 0.84:
                inode = rng.randrange(6)
                counts = {kind: 0 for kind in kinds}
                for key in [key for key in where if key[0] == inode]:
                    counts[model_remove(key)] += 1
                assert pool.remove_inode(inode) == counts, step
            elif op < 0.995:
                kind = rng.choice(kinds)
                expected_key = fifo[kind][0] if fifo[kind] else None
                if expected_key is not None:
                    model_remove(expected_key)
                assert pool.pop_oldest(kind) == expected_key, step
            else:
                counts = {kind: len(fifo[kind]) for kind in kinds}
                assert pool.drain() == counts, step
                assert other.drain() == charged, step
                where.clear()
                for kind in kinds:
                    fifo[kind].clear()
                    charged[kind] = 0
            charge_kind = side.choice(kinds)
            delta = side.randrange(-charged[charge_kind], 4)
            other.charge(charge_kind, delta)
            charged[charge_kind] += delta
            for kind in kinds:
                assert list(pool.fifos[kind]) == fifo[kind], step
                assert pool.used[kind] == len(fifo[kind]), step
                assert other.used[kind] == charged[kind], step
                assert not other.fifos[kind], step
                assert totals[kind] == pool.used[kind] + other.used[kind], step
            for inode in range(6):
                blocks = sorted((key[1], kind) for key, kind in where.items()
                                if key[0] == inode)
                assert pool.items_of_inode(inode) == blocks, step
            assert sorted(pool.files) == sorted({key[0] for key in where}), step
            assert +units.held == Counter(
                (pool.vm_id, *key) for key in fifo[StoreKind.MEMORY]), step
            assert not -units.held, step
        assert cross_store_replaces, "no cross-store replace was exercised"
        assert batches[True] and batches[False], batches


def _occupancy_writes(tree):
    """``(line, target)`` of every assignment in ``tree`` to a subscript
    of an attribute named ``used`` or to ``self.used_blocks``."""
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets(element)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            found = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            found = list(targets(node.target))
        else:
            continue
        for target in found:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "used"):
                yield node.lineno, ast.unparse(target)
            elif (isinstance(target, ast.Attribute)
                    and target.attr == "used_blocks"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                yield node.lineno, ast.unparse(target)


def _unit_writes(tree):
    """``(line, what)`` of every hand-kept occupancy counter in ``tree``:
    arithmetic on, or a store to another object's, attribute named
    ``used`` / ``*_used``, and every ``charge`` / ``release`` call on an
    object named ``*units``."""
    def counter(node):
        return isinstance(node, ast.Attribute) and (
            node.attr == "used" or node.attr.endswith("_used"))

    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and counter(node.target):
            yield node.lineno, ast.unparse(node.target)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if counter(target) and not (isinstance(target.value, ast.Name)
                                            and target.value.id == "self"):
                    yield node.lineno, ast.unparse(target)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("charge", "release")):
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", ""))
            if name.endswith("units"):
                yield node.lineno, ast.unparse(node.func)


class TestOwnership:
    def test_only_pools_module_writes_block_occupancy(self):
        """``Pool`` is the one writer of ``pool.used`` and of the store
        totals it shares with its engine (``PolicyEngine.used``): drivers
        call its mutators or ``charge`` and keep no second counter."""
        owner = PACKAGE / "core" / "pools.py"
        offenders = [
            f"{path.relative_to(PACKAGE).as_posix()}:{line}: {target}"
            for path in sorted(PACKAGE.rglob("*.py")) if path != owner
            for line, target in _occupancy_writes(
                ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert offenders == []

    def test_the_walk_sees_what_it_forbids(self):
        """The walk flags real writes and passes reads, string text and
        other objects' ``used_blocks``."""
        source = (
            "self.used[kind] -= 1\n"
            "pool.used[kind], x = 0, 1\n"
            "self.engine.used[SSD] += n\n"
            "self.used_blocks = 0\n"
            "counters.used_blocks = self.used[kind]\n"
            "message = f'pool.used[{kind}] = {n}'\n"
            "total = pool.used[kind] + 1\n"
        )
        assert [line for line, _ in _occupancy_writes(ast.parse(source))] == [
            1, 2, 3, 4]

    def test_memory_units_have_one_writer_and_one_caller(self):
        """``MemoryUnits.used`` is written only in ``core/optimizations.py``,
        and only ``Pool``'s mutators (``core/pools.py``) charge and release
        it: no driver keeps or moves a units counter of its own."""
        writer = PACKAGE / "core" / "optimizations.py"
        caller = PACKAGE / "core" / "pools.py"
        offenders = []
        for path in sorted(PACKAGE.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for line, what in _unit_writes(tree):
                owner = caller if what.endswith(("charge", "release")) else writer
                if path != owner:
                    offenders.append(f"{path.relative_to(PACKAGE).as_posix()}:{line}: {what}")
        assert offenders == []

    def test_the_units_walk_sees_what_it_forbids(self):
        source = (
            "self._mem_units_used += 1\n"
            "self.used -= n\n"
            "cache.mem_units.used = 0\n"
            "units.charge(vm, inode, block)\n"
            "self.units.release(vm, inode, block)\n"
            "self.used = 0\n"
            "pool.charge(kind, 1)\n"
            "self._map.release(slot, 1)\n"
            "total = units.used + 1\n"
        )
        assert [line for line, _ in _unit_writes(ast.parse(source))] == [
            1, 2, 3, 4, 5]


class TestVMEntry:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            VMEntry(1, "vm", -1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            VMEntry(1, "vm", weight)

    def test_used_sums_pools(self):
        vm = VMEntry(1, "vm", 100)
        p1 = Pool(1, 1, "a", CachePolicy.memory(50))
        p2 = Pool(2, 1, "b", CachePolicy.memory(50))
        vm.pools = {1: p1, 2: p2}
        p1.insert(1, 0, StoreKind.MEMORY)
        p2.insert(1, 0, StoreKind.MEMORY)
        p2.insert(1, 1, StoreKind.MEMORY)
        assert vm.used(StoreKind.MEMORY) == 3
        assert vm.used(StoreKind.SSD) == 0

    def test_pools_on_filters_by_store(self):
        vm = VMEntry(1, "vm", 100)
        mem_pool = Pool(1, 1, "mem", CachePolicy.memory(50))
        ssd_pool = Pool(2, 1, "ssd", CachePolicy.ssd(100))
        none_pool = Pool(3, 1, "none", CachePolicy.none())
        vm.pools = {1: mem_pool, 2: ssd_pool, 3: none_pool}
        assert vm.pools_on(StoreKind.MEMORY) == [mem_pool]
        assert vm.pools_on(StoreKind.SSD) == [ssd_pool]


class TestCachePolicy:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CachePolicy(mem_weight=-1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        for build in (CachePolicy.memory, CachePolicy.ssd,
                      lambda w: CachePolicy.hybrid(10, w)):
            with pytest.raises(ValueError):
                build(weight)

    def test_factories(self):
        assert CachePolicy.memory(30).weight_for(StoreKind.MEMORY) == 30
        assert CachePolicy.ssd(40).weight_for(StoreKind.SSD) == 40
        assert CachePolicy.none().uses_cache is False
        hybrid = CachePolicy.hybrid(10, 20)
        assert hybrid.is_hybrid
        assert hybrid.uses_cache

    def test_single_store_not_hybrid(self):
        assert not CachePolicy.memory(10).is_hybrid
        assert not CachePolicy.ssd(10).is_hybrid


class TestDDConfig:
    @pytest.mark.parametrize("field", ["mem_capacity_mb", "ssd_capacity_mb",
                                       "eviction_batch_mb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sizes_must_be_finite(self, field, value):
        with pytest.raises(ValueError):
            DDConfig(**{field: value})
