"""The shadow-accounting auditor and differential reference models.

Three layers of defense are exercised here:

* **Differential testing** — the production caches and their brute-force
  reference models (:mod:`repro.core.audit`) are driven with identical
  seeded random op streams and must agree on every return value, every
  FIFO order, every counter, and every occupancy figure.  The
  DoubleDecker suite covers all corners of {dedup, compression,
  trickle-down}; the baselines get their own streams.
* **Invariant auditing** — :func:`check_cache` recomputes ground truth
  from first principles; deliberate corruptions of each accounting layer
  must be caught, and clean caches must audit clean (including via the
  periodic process :func:`set_audit_interval` starts and the experiment
  fixture).
* **Regression tests** — the stranded-block eviction leak, the
  flush-stats skew, and the ``migrate_objects`` edge cases fixed in this
  change each get a test that fails on the pre-fix code.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from repro.core import (
    CachePolicy,
    CompressionModel,
    DDConfig,
    DoubleDeckerCache,
    GlobalCache,
    InvariantViolation,
    Pool,
    StaticPartitionCache,
    StoreKind,
    assert_consistent,
    check_cache,
    global_audit_interval,
    set_audit_interval,
    stores,
)
from repro.simkernel import Environment
from repro.storage import SSD

from .support.reference_models import (
    ReferenceCache,
    ReferenceGlobalCache,
    ReferenceStaticCache,
)

BLK = 64 * 1024
MEMORY = StoreKind.MEMORY
SSD_KIND = StoreKind.SSD

STAT_FIELDS = ("gets", "get_hits", "puts", "puts_stored", "flushes",
               "flush_requests", "evictions", "migrated_in", "migrated_out",
               "migrated_rejected",
               "put_rejected_policy", "put_rejected_capacity",
               "put_rejected_admission", "put_rejected_backpressure",
               "trickle_rejected_admission", "ssd_writes")


def run_gen(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def put_paths(monkeypatch):
    """Counts how puts reach the pools: ``insert_new`` batches accepted
    (``True``) and refused (``False``), and per-block ``insert`` calls."""
    seen = Counter()
    insert, insert_new = Pool.insert, Pool.insert_new

    def spy_insert(self, inode, block, kind):
        seen["insert"] += 1
        return insert(self, inode, block, kind)

    def spy_insert_new(self, keys, kind):
        accepted = insert_new(self, keys, kind)
        seen[accepted] += 1
        return accepted

    monkeypatch.setattr(Pool, "insert", spy_insert)
    monkeypatch.setattr(Pool, "insert_new", spy_insert_new)
    return seen


def make_dd(env=None, **overrides):
    env = env or Environment()
    overrides.setdefault("mem_capacity_mb", 1.0)
    overrides.setdefault("ssd_capacity_mb", 2.0)
    overrides.setdefault("eviction_batch_mb", 0.25)
    config = DDConfig(**overrides)
    ssd = SSD(env, BLK) if config.ssd_capacity_mb > 0 else None
    # Differential runs assume SSD writes are never rejected for buffer
    # space; the reference model does not track the write buffer.
    with mock.patch.object(stores, "SSD_WRITE_BUFFER_MB", 10000.0):
        return env, DoubleDeckerCache(env, config, BLK, ssd_device=ssd)


# ----------------------------------------------------------------------
# Differential suite: DoubleDeckerCache vs ReferenceCache
# ----------------------------------------------------------------------

class DifferentialDriver:
    """Drive a DUT/reference pair with one seeded random op stream.

    The driver respects the per-VM ``(inode, block)`` uniqueness contract
    the guest stack guarantees (each VM has one filesystem): it never
    puts a key that a sibling pool still holds, which a split migration
    can otherwise arrange.  The auditor flags exactly that state.
    """

    POLICIES = [
        CachePolicy.memory(100.0),
        CachePolicy.ssd(100.0),
        CachePolicy.hybrid(60.0, 40.0),
        CachePolicy.memory(30.0),
    ]

    def __init__(self, env, dut, ref, seed):
        self.env = env
        self.dut = dut
        self.ref = ref
        self.rng = random.Random(seed)
        self.pools = []  # (vm_id, pool_id)
        for weight, name in ((100.0, "vm-a"), (200.0, "vm-b")):
            vm_dut = dut.register_vm(name, weight)
            vm_ref = ref.register_vm(name, weight)
            assert vm_dut == vm_ref
            for i in range(2):
                policy = self.POLICIES[len(self.pools) % len(self.POLICIES)]
                p_dut = dut.create_pool(vm_dut, f"ctr{i}", policy)
                p_ref = ref.create_pool(vm_ref, f"ctr{i}", policy)
                assert p_dut == p_ref
                self.pools.append((vm_dut, p_dut))
        # Disjoint per-pool inode ranges; migration transfers ownership.
        self.own = {
            pid: set(range(idx * 10 + 1, idx * 10 + 6))
            for idx, (_, pid) in enumerate(self.pools)
        }

    def siblings(self, vm_id, pool_id):
        return [q for v, q in self.pools if v == vm_id and q != pool_id]

    def keys_for(self, pool_id):
        inodes = sorted(self.own[pool_id])
        if not inodes:
            return []
        count = self.rng.randint(1, 12)
        return [(self.rng.choice(inodes), self.rng.randrange(40))
                for _ in range(count)]

    def put_keys(self, vm_id, pool_id):
        return [
            key for key in self.keys_for(pool_id)
            if not any(self.dut._pools[q].lookup(*key) is not None
                       for q in self.siblings(vm_id, pool_id))
        ]

    def step(self, step_no):
        rng = self.rng
        roll = rng.random()
        vm, pid = self.pools[rng.randrange(len(self.pools))]
        if roll < 0.45:
            keys = self.put_keys(vm, pid)
            got = run_gen(self.env, self.dut.put_many(vm, pid, keys))
            want = self.ref.put_many(vm, pid, keys)
            assert got == want, (step_no, "put", got, want)
        elif roll < 0.80:
            keys = self.keys_for(pid)
            got = run_gen(self.env, self.dut.get_many(vm, pid, keys))
            want = self.ref.get_many(vm, pid, keys)
            assert got == want, (step_no, "get", got, want)
        elif roll < 0.88:
            keys = self.keys_for(pid)
            assert (self.dut.flush_many(vm, pid, keys)
                    == self.ref.flush_many(vm, pid, keys)), (step_no, "flush")
        elif roll < 0.93:
            inodes = sorted(self.own[pid])
            if inodes:
                inode = rng.choice(inodes)
                assert (self.dut.flush_inode(vm, pid, inode)
                        == self.ref.flush_inode(vm, pid, inode)), (
                            step_no, "flush_inode")
        elif roll < 0.97:
            sibs = self.siblings(vm, pid)
            inodes = sorted(self.own[pid])
            if sibs and inodes:
                target = rng.choice(sibs)
                inode = rng.choice(inodes)
                moved = self.dut.migrate_objects(vm, pid, target, inode)
                assert moved == self.ref.migrate_objects(vm, pid, target, inode), (
                    step_no, "migrate")
                if moved:
                    self.own[target].add(inode)
                if self.dut._pools[pid].files.get(inode) is None:
                    self.own[pid].discard(inode)
        else:
            policy = self.POLICIES[rng.randrange(len(self.POLICIES))]
            self.dut.set_policy(vm, pid, policy)
            self.ref.set_policy(vm, pid, policy)

    def compare_full_state(self, step_no):
        dut, ref = self.dut, self.ref
        assert dut.used == ref.used, (step_no, dut.used, ref.used)
        units = (dut.used[MEMORY] if dut.mem_units is None
                 else dut.mem_units.used)
        assert units == ref._units_used, (step_no, units, ref._units_used)
        for _, pid in self.pools:
            dp = dut._pools[pid]
            rp = ref.pools[pid]
            for kind in (MEMORY, SSD_KIND):
                assert list(dp.fifos[kind]) == rp.order[kind], (
                    step_no, pid, kind)
            stats = dp.snapshot_stats()
            for field in STAT_FIELDS:
                assert getattr(stats, field) == rp.stats[field], (
                    step_no, pid, field)
            # Admission controllers must exist (or not) in lockstep and
            # agree on their full ledger and ghost contents.
            assert (dp.admission is None) == (rp.admission is None), (
                step_no, pid, "admission presence")
            if dp.admission is not None:
                assert dp.admission.name == rp.admission.name, (step_no, pid)
                for field in ("attempts", "admitted", "rejected"):
                    assert (getattr(dp.admission, field)
                            == getattr(rp.admission, field)), (
                        step_no, pid, "admission", field)
                if hasattr(dp.admission, "_ghost"):
                    assert list(dp.admission._ghost) == rp.admission.ghost, (
                        step_no, pid, "ghost")

    def run(self, ops, audit_every=100):
        for step_no in range(ops):
            self.step(step_no)
            if step_no % audit_every == 0:
                assert_consistent(self.dut, where=f"step {step_no}")
                self.compare_full_state(step_no)
        assert_consistent(self.dut, where="end")
        self.compare_full_state(ops)


CORNERS = [
    # (dedup, compression, trickle_down, admission)
    # ``write_throttle`` is deliberately absent: it depends on the
    # simulation clock, which the untimed reference cannot mirror.
    pytest.param(False, False, False, None, id="plain"),
    pytest.param(True, False, False, None, id="dedup"),
    pytest.param(False, True, False, None, id="compression"),
    pytest.param(False, False, True, None, id="trickle"),
    pytest.param(True, True, False, None, id="dedup+compression"),
    pytest.param(True, True, True, None, id="all-on"),
    pytest.param(False, False, False, "admit_all", id="admit-all"),
    pytest.param(False, False, False, "second_access", id="second-access"),
    pytest.param(False, False, True, "second_access",
                 id="second-access+trickle"),
]

#: 9 corners x 2000 ops = 18k random ops against the reference model.
OPS_PER_CORNER = 2000


class TestDifferentialDoubleDecker:
    @pytest.mark.parametrize("dedup,compression,trickle,admission", CORNERS)
    def test_matches_reference(self, dedup, compression, trickle, admission,
                               put_paths):
        overrides = dict(
            trickle_down=trickle,
            dedup=dedup,
            dedup_fingerprint=(
                (lambda ns, inode, block: (inode * 7 + block) % 23)
                if dedup else None
            ),
            compression=CompressionModel() if compression else None,
            admission=admission,
        )
        env, dut = make_dd(**overrides)
        ref = ReferenceCache(dut.config, BLK, has_ssd=True)
        DifferentialDriver(env, dut, ref, seed=7).run(OPS_PER_CORNER)
        # Tight capacities: puts evict, so the per-block loop runs.
        assert put_paths["insert"], put_paths

    def test_roomy_batches_match_reference(self, put_paths):
        """Every key of every pool fits (4 pools x 200 keys, 1024
        memory and SSD blocks each), so whole fixed-store batches of new
        keys go in with one ``insert_new``; batches holding a cached or
        repeated key, and the hybrid pool's, take the per-block loop."""
        env, dut = make_dd(mem_capacity_mb=64.0, ssd_capacity_mb=64.0)
        ref = ReferenceCache(dut.config, BLK, has_ssd=True)
        DifferentialDriver(env, dut, ref, seed=7).run(OPS_PER_CORNER)
        assert put_paths[True] and put_paths[False], put_paths
        assert put_paths["insert"], put_paths

    def test_admission_policy_switch_matches_reference(self):
        """Per-pool ``CachePolicy.admission`` swaps the controller on a
        name change and keeps its ghost state otherwise — on both sides."""
        env, dut = make_dd()
        ref = ReferenceCache(dut.config, BLK, has_ssd=True)
        driver = DifferentialDriver(env, dut, ref, seed=13)
        switches = [
            CachePolicy.ssd(100.0, admission="second_access"),
            CachePolicy.ssd(100.0, admission="second_access"),  # kept
            CachePolicy.hybrid(40.0, 60.0, admission="admit_all"),
            CachePolicy.ssd(100.0),  # back to no controller
            CachePolicy.hybrid(60.0, 40.0, admission="second_access"),
        ]
        for round_no, policy in enumerate(switches):
            vm, pid = driver.pools[round_no % len(driver.pools)]
            dut.set_policy(vm, pid, policy)
            ref.set_policy(vm, pid, policy)
            for step_no in range(250):
                driver.step((round_no, step_no))
            assert_consistent(dut, where=f"switch {round_no}")
            driver.compare_full_state(f"switch {round_no}")

    def test_capacity_resize_matches_reference(self):
        env, dut = make_dd()
        ref = ReferenceCache(dut.config, BLK, has_ssd=True)
        driver = DifferentialDriver(env, dut, ref, seed=11)
        for round_no, (mem_mb, ssd_mb) in enumerate(
                [(1.0, 2.0), (0.5, 1.0), (2.0, 0.5), (0.25, 2.0)]):
            dut.set_capacity(MEMORY, mem_mb)
            ref.set_capacity(MEMORY, mem_mb)
            dut.set_capacity(SSD_KIND, ssd_mb)
            ref.set_capacity(SSD_KIND, ssd_mb)
            assert_consistent(dut, where=f"resize {round_no}")
            driver.compare_full_state(f"resize {round_no}")
            for step_no in range(300):
                driver.step((round_no, step_no))
            assert_consistent(dut)
            driver.compare_full_state(round_no)

    def test_destroy_pool_matches_reference(self):
        env, dut = make_dd(dedup=True)
        ref = ReferenceCache(dut.config, BLK, has_ssd=True)
        driver = DifferentialDriver(env, dut, ref, seed=3)
        for step_no in range(400):
            driver.step(step_no)
        vm, pid = driver.pools[0]
        dut.destroy_pool(vm, pid)
        ref.destroy_pool(vm, pid)
        driver.pools.remove((vm, pid))
        del driver.own[pid]
        assert_consistent(dut, where="after destroy")
        driver.compare_full_state("after destroy")
        for step_no in range(400):
            driver.step(step_no)
        assert_consistent(dut)
        driver.compare_full_state("end")


# ----------------------------------------------------------------------
# Differential suite: baselines vs their references
# ----------------------------------------------------------------------

class BaselineDriver:
    """Random op stream for the (memory-only, policy-less) baselines."""

    def __init__(self, env, dut, ref, seed):
        self.env = env
        self.dut = dut
        self.ref = ref
        self.rng = random.Random(seed)
        self.pools = []
        for weight, name in ((100.0, "vm-a"), (100.0, "vm-b")):
            vm_dut = dut.register_vm(name, weight)
            vm_ref = ref.register_vm(name, weight)
            assert vm_dut == vm_ref
            for i in range(2):
                p_dut = dut.create_pool(vm_dut, f"ctr{i}", CachePolicy.memory(100.0))
                p_ref = ref.create_pool(vm_ref, f"ctr{i}", CachePolicy.memory(100.0))
                assert p_dut == p_ref
                self.pools.append((vm_dut, p_dut))

    def keys(self, pool_id):
        count = self.rng.randint(1, 12)
        base = pool_id * 10
        return [(base + self.rng.randrange(1, 6), self.rng.randrange(40))
                for _ in range(count)]

    def run(self, ops, audit_every=100):
        rng = self.rng
        for step_no in range(ops):
            roll = rng.random()
            vm, pid = self.pools[rng.randrange(len(self.pools))]
            if roll < 0.45:
                keys = self.keys(pid)
                got = run_gen(self.env, self.dut.put_many(vm, pid, keys))
                assert got == self.ref.put_many(vm, pid, keys), (step_no, "put")
            elif roll < 0.80:
                keys = self.keys(pid)
                got = run_gen(self.env, self.dut.get_many(vm, pid, keys))
                assert got == self.ref.get_many(vm, pid, keys), (step_no, "get")
            elif roll < 0.90:
                keys = self.keys(pid)
                assert (self.dut.flush_many(vm, pid, keys)
                        == self.ref.flush_many(vm, pid, keys)), (step_no, "flush")
            else:
                inode = pid * 10 + rng.randrange(1, 6)
                assert (self.dut.flush_inode(vm, pid, inode)
                        == self.ref.flush_inode(vm, pid, inode)), (
                            step_no, "flush_inode")
            if step_no % audit_every == 0:
                assert_consistent(self.dut, where=f"step {step_no}")
                self.compare(step_no)
        assert_consistent(self.dut, where="end")
        self.compare(ops)

    def compare(self, step_no):
        assert self.dut.used[MEMORY] == self.ref.used_blocks, step_no
        for _, pid in self.pools:
            dp = self.dut._pools[pid]
            rp = self.ref.pools[pid]
            assert list(dp.fifos[MEMORY]) == rp.order[MEMORY], (step_no, pid)
            stats = dp.snapshot_stats()
            for field in STAT_FIELDS:
                assert getattr(stats, field) == rp.stats[field], (
                    step_no, pid, field)
        if hasattr(self.dut, "_fifo"):
            assert list(self.dut._fifo) == self.ref._fifo, step_no


class TestDifferentialBaselines:
    @staticmethod
    def run_global(exclusive, capacity_mb, per_vm_cap_mb):
        env = Environment()
        dut = GlobalCache(env, capacity_mb, BLK, per_vm_cap_mb=per_vm_cap_mb,
                          exclusive=exclusive)
        ref = ReferenceGlobalCache(capacity_mb, BLK,
                                   per_vm_cap_mb=per_vm_cap_mb,
                                   exclusive=exclusive)
        BaselineDriver(env, dut, ref, seed=5).run(1500)

    @staticmethod
    def run_static(capacity_mb, cap_mb):
        env = Environment()
        dut = StaticPartitionCache(env, capacity_mb, BLK)
        ref = ReferenceStaticCache(capacity_mb, BLK)
        driver = BaselineDriver(env, dut, ref, seed=9)
        for _, pid in driver.pools:
            dut.set_partition(pid, cap_mb)
            ref.set_partition(pid, cap_mb)
        driver.run(1500)

    # Tight caps evict, so puts take the per-block loop.  The roomy ones
    # hold every key (4 pools x 200 keys), so whole batches of new keys
    # go in with one ``insert_new``.
    @pytest.mark.parametrize("exclusive", [True, False],
                             ids=["exclusive", "inclusive"])
    def test_global_cache_matches_reference(self, exclusive, put_paths):
        self.run_global(exclusive, 1.0, 0.75)
        assert put_paths["insert"], put_paths

    @pytest.mark.parametrize("exclusive", [True, False],
                             ids=["exclusive", "inclusive"])
    def test_global_cache_roomy_batches_match_reference(self, exclusive,
                                                        put_paths):
        self.run_global(exclusive, 64.0, 48.0)
        assert put_paths[True] and put_paths["insert"], put_paths

    def test_static_partition_matches_reference(self, put_paths):
        self.run_static(2.0, 0.4)
        assert put_paths["insert"], put_paths

    def test_static_partition_roomy_batches_match_reference(self, put_paths):
        self.run_static(64.0, 16.0)
        assert put_paths[True] and put_paths["insert"], put_paths


# ----------------------------------------------------------------------
# Regression tests for the fixed bugs
# ----------------------------------------------------------------------

class TestStrandedBlockEviction:
    def fill(self, env, cache, vm, pool, count, start_inode=1):
        keys = [(start_inode, block) for block in range(count)]
        return run_gen(env, cache.put_many(vm, pool, keys))

    def test_policy_switch_strands_are_evictable(self):
        """Pre-fix: blocks kept in a store after a ``set_policy`` store
        switch were invisible to ``_evict_round`` (it enumerated pools by
        policy weight), so ``_make_room`` wedged with the store full."""
        env, cache = make_dd(mem_capacity_mb=1.0, ssd_capacity_mb=2.0)
        vm = cache.register_vm("vm")
        ctr_a = cache.create_pool(vm, "a", CachePolicy.memory(100.0))
        ctr_b = cache.create_pool(vm, "b", CachePolicy.none())
        cap = cache.capacities[MEMORY]
        assert self.fill(env, cache, vm, ctr_a, cap) == cap
        # Store switch: the pool moves to SSD but its memory-resident
        # blocks legitimately stay (they age out FIFO under pressure).
        cache.set_policy(vm, ctr_a, CachePolicy.ssd(100.0))
        assert cache.used[MEMORY] == cap  # blocks kept, store full
        assert_consistent(cache)
        # Another pool now wants the store: eviction must find the strands.
        cache.set_policy(vm, ctr_b, CachePolicy.memory(100.0))
        stored = self.fill(env, cache, vm, ctr_b, 8, start_inode=2)
        assert stored == 8, "store wedged: stranded blocks were not evicted"
        assert cache.pool_stats(vm, ctr_a).evictions > 0
        assert_consistent(cache)

    def test_policy_none_still_drains(self):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "a", CachePolicy.memory(100.0))
        self.fill(env, cache, vm, pool, 8)
        cache.set_policy(vm, pool, CachePolicy.none())
        assert cache.used[MEMORY] == 0
        assert_consistent(cache)

    def test_trickle_down_strands_are_evictable(self):
        """Trickle-down re-homes memory-evicted blocks into the pool's SSD
        FIFO even when the pool is memory-only; those blocks must remain
        reclaimable when the SSD store later fills."""
        env, cache = make_dd(mem_capacity_mb=0.5, ssd_capacity_mb=0.5,
                             trickle_down=True)
        vm = cache.register_vm("vm")
        mem_only = cache.create_pool(vm, "mem", CachePolicy.memory(100.0))
        mem_cap = cache.capacities[MEMORY]
        ssd_cap = cache.capacities[SSD_KIND]
        # Overfill memory: evictions trickle into the memory-only pool's
        # SSD FIFO until the SSD store is full too.
        self.fill(env, cache, vm, mem_only, mem_cap + ssd_cap + 8)
        assert cache._pools[mem_only].used[SSD_KIND] > 0
        assert cache.used[SSD_KIND] == ssd_cap
        assert_consistent(cache)
        # An SSD pool arrives; its puts must displace the strands.
        ssd_pool = cache.create_pool(vm, "ssd", CachePolicy.ssd(100.0))
        stored = self.fill(env, cache, vm, ssd_pool, 4, start_inode=2)
        assert stored == 4, "SSD store wedged on trickled-down strands"
        assert_consistent(cache)

    def test_vm_level_strands_are_evictable(self):
        """A whole VM whose pools all left a store keeps its blocks
        visible at the VM level of Algorithm 1 too."""
        env, cache = make_dd(mem_capacity_mb=1.0, ssd_capacity_mb=2.0)
        vm_a = cache.register_vm("a")
        vm_b = cache.register_vm("b")
        pool_a = cache.create_pool(vm_a, "ctr", CachePolicy.memory(100.0))
        cap = cache.capacities[MEMORY]
        self.fill(env, cache, vm_a, pool_a, cap)
        # The whole VM leaves the memory store; its blocks stay behind.
        cache.set_policy(vm_a, pool_a, CachePolicy.ssd(100.0))
        assert cache.used[MEMORY] == cap
        pool_b = cache.create_pool(vm_b, "ctr", CachePolicy.memory(100.0))
        stored = self.fill(env, cache, vm_b, pool_b, 8, start_inode=3)
        assert stored == 8
        assert_consistent(cache)


class TestFlushStats:
    def test_flush_many_counts_drops_and_requests(self):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        keys = [(1, block) for block in range(10)]
        run_gen(env, cache.put_many(vm, pool, keys))
        dropped = cache.flush_many(vm, pool, keys + [(2, 0), (2, 1)])
        assert dropped == 10
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 10
        assert stats.flush_requests == 12

    def test_flush_inode_consistent_with_flush_many(self):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(6)]))
        run_gen(env, cache.put_many(vm, pool, [(2, b) for b in range(4)]))
        assert cache.flush_inode(vm, pool, 1) == 6
        stats = cache.pool_stats(vm, pool)
        # Without a request size, residency is the best available proxy.
        assert stats.flushes == 6
        assert stats.flush_requests == 6
        cache.flush_many(vm, pool, [(2, b) for b in range(4)])
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 10
        assert stats.flush_requests == 10

    def test_flush_inode_counts_requested_blocks(self):
        """Regression (inconsistent flush_requests semantics): with the
        file size supplied, a whole-file flush of a partially resident
        inode counts *asks* into ``flush_requests`` — same requested
        semantics as flush_many — while ``flushes`` still counts drops."""
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        # 4 of the file's 9 blocks are resident.
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(4)]))
        assert cache.flush_inode(vm, pool, 1, nblocks=9) == 4
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 4
        assert stats.flush_requests == 9
        # flush_many of a 9-key batch with 4 resident reports identically.
        run_gen(env, cache.put_many(vm, pool, [(2, b) for b in range(4)]))
        assert cache.flush_many(vm, pool,
                                [(2, b) for b in range(9)]) == 4
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 8
        assert stats.flush_requests == 18
        assert_consistent(cache)

    def test_flush_inode_requested_semantics_in_baselines(self):
        env = Environment()
        cache = GlobalCache(env, 1.0, BLK)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(5, b) for b in range(3)]))
        assert cache.flush_inode(vm, pool, 5, nblocks=7) == 3
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 3
        assert stats.flush_requests == 7

    def test_baseline_flush_stats_same_convention(self):
        env = Environment()
        cache = GlobalCache(env, 1.0, BLK)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        keys = [(1, block) for block in range(8)]
        run_gen(env, cache.put_many(vm, pool, keys))
        assert cache.flush_many(vm, pool, keys + [(3, 3)]) == 8
        stats = cache.pool_stats(vm, pool)
        assert stats.flushes == 8
        assert stats.flush_requests == 9


class TestMigrateObjects:
    def setup_pools(self, **overrides):
        env, cache = make_dd(**overrides)
        vm = cache.register_vm("vm")
        a = cache.create_pool(vm, "a", CachePolicy.memory(100.0))
        b = cache.create_pool(vm, "b", CachePolicy.memory(100.0))
        return env, cache, vm, a, b

    def test_self_migration_is_noop(self):
        env, cache, vm, a, _ = self.setup_pools(ssd_capacity_mb=0.0)
        keys = [(1, block) for block in range(6)]
        run_gen(env, cache.put_many(vm, a, keys))
        order_before = list(cache._pools[a].fifos[MEMORY])
        assert cache.migrate_objects(vm, a, a, 1) == 0
        # Pre-fix, self-migration reinserted every block, resetting its
        # FIFO residence order (artificially youngest) and inflating stats.
        assert list(cache._pools[a].fifos[MEMORY]) == order_before
        stats = cache.pool_stats(vm, a)
        assert stats.migrated_in == 0 and stats.migrated_out == 0
        assert_consistent(cache)

    def test_migration_updates_both_pools_stats(self):
        env, cache, vm, a, b = self.setup_pools(ssd_capacity_mb=0.0)
        run_gen(env, cache.put_many(vm, a, [(1, block) for block in range(5)]))
        assert cache.migrate_objects(vm, a, b, 1) == 5
        assert cache.pool_stats(vm, a).migrated_out == 5
        assert cache.pool_stats(vm, b).migrated_in == 5
        assert cache._pools[a].used[MEMORY] == 0
        assert cache._pools[b].used[MEMORY] == 5
        assert cache.used[MEMORY] == 5
        assert_consistent(cache)

    def test_zero_weight_target_rejects_blocks(self):
        """Migration must not manufacture stranded blocks: a block whose
        current store the target policy does not weight stays put."""
        env, cache = make_dd()
        vm = cache.register_vm("vm")
        hybrid = cache.create_pool(vm, "h", CachePolicy.hybrid(50.0, 50.0))
        mem_only = cache.create_pool(vm, "m", CachePolicy.memory(100.0))
        mem_ent = cache._pools[hybrid].entitlement[MEMORY]
        # Overfill the hybrid pool so the same inode spans both stores.
        run_gen(env, cache.put_many(
            vm, hybrid, [(1, block) for block in range(mem_ent + 4)]))
        assert cache._pools[hybrid].used[SSD_KIND] > 0
        ssd_blocks = cache._pools[hybrid].used[SSD_KIND]
        mem_blocks = cache._pools[hybrid].used[MEMORY]
        moved = cache.migrate_objects(vm, hybrid, mem_only, 1)
        # Only the memory-resident blocks moved; SSD blocks were rejected.
        assert moved == mem_blocks
        assert cache._pools[hybrid].used[SSD_KIND] == ssd_blocks
        assert cache._pools[mem_only].used[SSD_KIND] == 0
        assert cache.pool_stats(vm, hybrid).migrated_out == mem_blocks
        assert cache.pool_stats(vm, mem_only).migrated_in == mem_blocks
        # The rejects are no longer silent: the source pool counts them.
        assert cache.pool_stats(vm, hybrid).migrated_rejected == ssd_blocks
        assert cache.pool_stats(vm, mem_only).migrated_rejected == 0
        assert_consistent(cache)

    def test_partial_migration_records_rejects_in_ledger(self):
        """Regression (silent partial migration): the pool counters the
        trace's ledger carries and the ``migrate`` instant must record
        per-block rejects, so a caller can distinguish a full migration
        from a partial one."""
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
        try:
            env, cache = make_dd()
            vm = cache.register_vm("vm")
            hybrid = cache.create_pool(vm, "h", CachePolicy.hybrid(50.0, 50.0))
            mem_only = cache.create_pool(vm, "m", CachePolicy.memory(100.0))
            mem_ent = cache._pools[hybrid].entitlement[MEMORY]
            run_gen(env, cache.put_many(
                vm, hybrid, [(1, block) for block in range(mem_ent + 4)]))
            ssd_blocks = cache._pools[hybrid].used[SSD_KIND]
            assert ssd_blocks > 0
            moved = cache.migrate_objects(vm, hybrid, mem_only, 1)
            ledger = tracer.meta()["ledger"][cache._obs_label]
            assert ledger[str(hybrid)]["migrated_out"] == moved
            assert ledger[str(hybrid)]["migrated_rejected"] == ssd_blocks
            assert ledger[str(mem_only)]["migrated_in"] == moved
            instants = [event for event in tracer.events
                        if event["name"] == "migrate"]
            assert instants and instants[-1]["args"]["rejected"] == ssd_blocks
            assert instants[-1]["args"]["moved"] == moved
            assert_consistent(cache)
        finally:
            set_tracer(None)

    def test_unknown_pool_still_raises(self):
        env, cache, vm, a, _ = self.setup_pools(ssd_capacity_mb=0.0)
        with pytest.raises(KeyError):
            cache.migrate_objects(vm, a, 999, 1)


# ----------------------------------------------------------------------
# The auditor itself
# ----------------------------------------------------------------------

class TestAuditor:
    def populated(self, **overrides):
        env, cache = make_dd(**overrides)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(8)]))
        return env, cache, vm, pool

    def test_clean_cache_audits_clean(self):
        _, cache, _, _ = self.populated()
        assert check_cache(cache) == []

    def test_manager_used_drift_is_caught(self):
        _, cache, _, _ = self.populated()
        cache.used[MEMORY] += 1
        assert any("manager.used" in v for v in check_cache(cache))

    def test_pool_used_drift_is_caught(self):
        _, cache, _, pool = self.populated()
        cache._pools[pool].used[MEMORY] += 1
        violations = check_cache(cache)
        assert any("FIFO holds" in v for v in violations)

    def test_fifo_index_divergence_is_caught(self):
        _, cache, _, pool = self.populated()
        # Drop a key from the file index but not the FIFO.
        tree = cache._pools[pool].files[1]
        del tree[0]
        assert any("FIFO key" in v or "index" in v for v in check_cache(cache))

    def test_key_queued_on_the_wrong_store_is_caught(self):
        _, cache, _, pool = self.populated()
        p = cache._pools[pool]
        # Move (1, 0) to the SSD FIFO, counters along, index untouched:
        # every length and total still agrees.
        del p.fifos[MEMORY][(1, 0)]
        p.fifos[SSD_KIND][(1, 0)] = None
        p.used[MEMORY] -= 1
        p.used[SSD_KIND] += 1
        cache.used[MEMORY] -= 1
        cache.used[SSD_KIND] += 1
        violations = check_cache(cache)
        assert any("FIFO key (1, 0) in the ssd queue but the block index "
                   "says memory" in v for v in violations), violations

    def test_mem_units_drift_is_caught(self):
        _, cache, _, _ = self.populated(compression=CompressionModel())
        cache.mem_units.used += 1
        assert any("mem_units.used" in v for v in check_cache(cache))

    def test_dedup_index_drift_is_caught(self):
        _, cache, _, _ = self.populated(dedup=True)
        key = next(iter(cache.dedup._placed))
        fp = cache.dedup._placed.pop(key)
        cache.dedup.logical_blocks -= 1
        violations = check_cache(cache)
        assert any("dedup index out of sync" in v for v in violations)
        cache.dedup._placed[key] = fp
        cache.dedup.logical_blocks += 1
        assert check_cache(cache) == []

    @pytest.mark.parametrize("field, delta, message", [
        ("get_hits", +1, "hits out of only"),
        ("flushes", +1, "were asked about"),
        ("migrated_out", +1, "block flow leaks"),
        ("migrated_in", -1, "block flow leaks"),
        ("migrated_rejected", -1, "ran backwards"),
    ])
    def test_lookup_flush_migration_drift_is_caught(self, field, delta,
                                                    message):
        env, cache, vm, pool = self.populated()
        run_gen(env, cache.get_many(vm, pool, [(1, 0), (1, 1), (9, 9)]))
        cache.flush_many(vm, pool, [(1, 2), (9, 8)])
        other = cache.create_pool(vm, "other", CachePolicy.memory(100.0))
        assert cache.migrate_objects(vm, pool, other, 1) == 5
        assert check_cache(cache) == []
        stats = cache._pools[other].stats
        setattr(stats, field, getattr(stats, field) + delta)
        assert any(message in v for v in check_cache(cache))

    def test_stale_entitlements_are_caught(self):
        _, cache, vm, _ = self.populated()
        # Bypass set_vm_weight's engine.recompute() to simulate a missed refresh.
        cache.vms[vm].weight = 50.0
        cache.vms[vm].pools[next(iter(cache.vms[vm].pools))]  # touch
        cache.register_vm("other")  # second VM so shares actually change
        cache.create_pool(2, "c", CachePolicy.memory(100.0))
        cache.engine.vm_entitlements[(vm, MEMORY)] += 7
        assert any("stale" in v.lower() for v in check_cache(cache))

    def test_audit_is_side_effect_free(self):
        _, cache, _, pool = self.populated()
        before = dict(cache._pools[pool].entitlement)
        vm_before = dict(cache.engine.vm_entitlements)
        assert check_cache(cache) == []
        assert cache._pools[pool].entitlement == before
        assert cache.engine.vm_entitlements == vm_before

    def test_baseline_used_blocks_drift_is_caught(self):
        env = Environment()
        cache = GlobalCache(env, 1.0, BLK)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(4)]))
        assert check_cache(cache) == []
        cache.used[MEMORY] += 1
        assert any("used_blocks" in v for v in check_cache(cache))

    def test_baseline_untracked_fifo_block_is_caught(self):
        env = Environment()
        cache = GlobalCache(env, 1.0, BLK)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(4)]))
        # A block the global FIFO forgot can never be evicted.
        del cache._fifo[(pool, 1, 0)]
        assert any("never be evicted" in v for v in check_cache(cache))

    def test_assert_consistent_raises_with_report(self):
        _, cache, _, _ = self.populated()
        cache.used[MEMORY] += 2
        with pytest.raises(InvariantViolation, match="manager.used"):
            assert_consistent(cache, where="unit test")

    # -- endurance invariants ------------------------------------------

    def populated_ssd(self, **overrides):
        env, cache = make_dd(**overrides)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.ssd(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(8)]))
        return env, cache, vm, pool

    def test_put_ledger_leak_is_caught(self):
        _, cache, _, pool = self.populated_ssd()
        assert check_cache(cache) == []
        cache._pools[pool].stats.puts += 1
        assert any("put ledger leaks" in v for v in check_cache(cache))

    def test_rejection_misclassification_is_caught(self):
        """Moving a rejection between buckets without a matching put is
        exactly the drift the ledger exists to catch."""
        _, cache, _, pool = self.populated_ssd()
        cache._pools[pool].stats.put_rejected_backpressure += 1
        assert any("put ledger leaks" in v for v in check_cache(cache))

    def test_pool_ssd_writes_drift_is_caught(self):
        _, cache, _, pool = self.populated_ssd()
        cache._pools[pool].stats.ssd_writes += 1
        assert any("do not reconcile" in v for v in check_cache(cache))

    def test_backend_buffer_leak_is_caught(self):
        env, cache, _, _ = self.populated_ssd()
        env.run(until=10.0)  # let the write buffer drain
        assert check_cache(cache) == []
        cache.ssd_backend.blocks_written += 1
        assert any("write buffer leaks" in v for v in check_cache(cache))

    def test_wear_desync_is_caught(self):
        env, cache, _, _ = self.populated_ssd()
        env.run(until=10.0)
        wear = cache.ssd_backend.device.wear
        assert wear.host_bytes_written > 0  # the drain charged wear
        wear.host_bytes_written += BLK
        assert any("wear model out of sync" in v for v in check_cache(cache))

    def test_admission_ledger_leak_is_caught(self):
        _, cache, _, pool = self.populated_ssd(admission="second_access")
        assert check_cache(cache) == []
        cache._pools[pool].admission.attempts += 1
        assert any("admission ledger leaks" in v for v in check_cache(cache))

    def test_destroyed_pool_writes_stay_reconciled(self):
        env, cache, vm, pool = self.populated_ssd()
        assert cache._pools[pool].stats.ssd_writes > 0
        cache.destroy_pool(vm, pool)
        assert check_cache(cache) == []


class TestPeriodicAudit:
    @pytest.fixture
    def audit_every_5s(self):
        set_audit_interval(5.0)
        yield
        set_audit_interval(0.0)

    def test_audit_interval_wires_a_process(self, audit_every_5s):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(8)]))
        env.run(until=20.0)  # several audit firings over a clean cache

    def test_periodic_audit_raises_on_corruption(self, audit_every_5s):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(8)]))
        cache.used[MEMORY] += 1
        with pytest.raises(InvariantViolation):
            env.run(until=20.0)

    def test_global_switch_covers_new_caches(self):
        set_audit_interval(3.0)
        try:
            env, cache = make_dd(ssd_capacity_mb=0.0, dedup=True)
            vm = cache.register_vm("vm")
            pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
            run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(4)]))
            cache.mem_units.used += 1
            with pytest.raises(InvariantViolation):
                env.run(until=10.0)
        finally:
            set_audit_interval(0.0)

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_interval_must_be_finite_and_non_negative(self, seconds):
        with pytest.raises(ValueError):
            set_audit_interval(seconds)
        assert global_audit_interval() == 0.0

    def test_interval_zero_is_off(self):
        env, cache = make_dd(ssd_capacity_mb=0.0)
        vm = cache.register_vm("vm")
        pool = cache.create_pool(vm, "ctr", CachePolicy.memory(100.0))
        run_gen(env, cache.put_many(vm, pool, [(1, b) for b in range(4)]))
        cache.used[MEMORY] += 1  # corrupted, but nobody is watching
        env.run(until=50.0)
        cache.used[MEMORY] -= 1


# ----------------------------------------------------------------------
# Experiment integration: fixture-driven audited run + the --audit flag
# ----------------------------------------------------------------------

@pytest.fixture
def audited_simulation():
    """Enable the global audit switch for every cache built in the test."""
    set_audit_interval(10.0)
    yield
    set_audit_interval(0.0)


class TestAuditedExperiments:
    @pytest.mark.slow
    def test_caching_modes_small_scale_audits_clean(self, audited_simulation):
        from repro.experiments.caching_modes import CachingModesExperiment

        result = CachingModesExperiment(
            scale=0.02, seed=11, warmup_s=10.0, duration_s=15.0).run()
        assert result is not None

    @pytest.mark.slow
    def test_cli_audit_flag(self, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["motivation", "--scale", "0.05", "--no-plots",
                     "--audit", "10", "--out", str(tmp_path)])
        assert code == 0
        # The switch must not leak into later, non-audited runs.
        from repro.core import global_audit_interval
        assert global_audit_interval() == 0.0

    def test_cli_audit_validation(self):
        from repro.experiments.__main__ import main

        assert main(["motivation", "--audit", "-1"]) == 2

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_cli_rejects_non_finite_audit_before_running(
            self, monkeypatch, capsys, seconds):
        import repro.experiments.__main__ as cli
        from repro.experiments.runner import Experiment

        class Unreachable(Experiment):
            exp_id = "FAKE-AUDIT"
            name = "fakeaudit"
            description = "fake"

            def simulate(self):  # pragma: no cover
                raise AssertionError(f"ran with --audit {seconds}")

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"fakeaudit": Unreachable})
        assert cli.main(["fakeaudit", "--audit", seconds, "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--audit must be" in err
