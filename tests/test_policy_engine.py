"""PolicyEngine: unit tests + the extraction's differential pin.

The slow test here is the contract of the refactor that factored
Algorithm 1 / entitlement accounting out of ``DoubleDeckerCache`` into
:class:`repro.core.engine.PolicyEngine`: the simulated data path must be
byte-identical to the pre-extraction code.  The fingerprints below were
recorded on the commit immediately before the split (PYTHONHASHSEED=0,
scale 0.05, seed 42) and must never drift.
"""

import ast
import hashlib
import inspect
import math
import os
import unittest
from pathlib import Path

import pytest

import repro
from repro.core import CachePolicy, PolicyEngine, StoreKind

# sha256 of ExperimentResult.summary(plots=False), recorded pre-extraction.
PRE_EXTRACTION_FINGERPRINTS = {
    "caching_modes":
        "6a88bbb7a4a92cd81bb28c17ec4ae5eecbaf3cbe93df20e6c015bf88dc6cf9ff",
    "cooperative":
        "f12b2c29f3c89ec39b977f4c1e827fad576153ef0e014515039fc440c60b1dc7",
    "flexible_policy":
        "3373ac3abefde9a95f9f67266dbab48a36167b6ddfd1ac5080a91020d9e60dd8",
}


def make_engine(mem=100, ssd=400, **kwargs):
    return PolicyEngine({StoreKind.MEMORY: mem, StoreKind.SSD: ssd}, **kwargs)


class RegistryTests(unittest.TestCase):

    def test_register_vm_assigns_sequential_ids(self):
        engine = make_engine()
        self.assertEqual(engine.register_vm("a"), 1)
        self.assertEqual(engine.register_vm("b"), 2)
        self.assertEqual(sorted(engine.vms), [1, 2])

    def test_entitlements_follow_weights(self):
        # Shares are split over VMs that *actively use* the store: each
        # VM needs at least one pool configured on MEMORY to count.
        engine = make_engine(mem=100)
        a = engine.register_vm("a", weight=100.0)
        b = engine.register_vm("b", weight=300.0)
        engine.create_pool(a, "pa", CachePolicy(mem_weight=1))
        engine.create_pool(b, "pb", CachePolicy(mem_weight=1))
        self.assertEqual(engine.vm_entitlements[(a, StoreKind.MEMORY)], 25)
        self.assertEqual(engine.vm_entitlements[(b, StoreKind.MEMORY)], 75)
        engine.set_vm_weight(b, 100.0)
        self.assertEqual(engine.vm_entitlements[(a, StoreKind.MEMORY)], 50)

    def test_unregister_vm_refuses_while_pools_exist(self):
        engine = make_engine()
        vm = engine.register_vm("a")
        engine.create_pool(vm, "p", CachePolicy(mem_weight=1))
        with self.assertRaises(ValueError):
            engine.unregister_vm(vm)

    def test_negative_weight_rejected(self):
        engine = make_engine()
        vm = engine.register_vm("a")
        with self.assertRaises(ValueError):
            engine.set_vm_weight(vm, -1.0)

    def test_non_finite_weight_rejected(self):
        engine = make_engine()
        vm = engine.register_vm("a", weight=40.0)
        for weight in (math.nan, math.inf):
            with self.assertRaises(ValueError):
                engine.set_vm_weight(vm, weight)
            with self.assertRaises(ValueError):
                engine.register_vm("b", weight=weight)
        self.assertEqual(engine.vms[vm].weight, 40.0)
        self.assertEqual(list(engine.vms), [vm])

    def test_unknown_victim_policy_rejected(self):
        with self.assertRaises(ValueError):
            make_engine(victim_policy="lru")

    def test_require_vm_and_pool_raise_keyerror(self):
        engine = make_engine()
        with self.assertRaises(KeyError):
            engine.require_vm(99)
        vm = engine.register_vm("a")
        with self.assertRaises(KeyError):
            engine.require_pool(vm, 99)

    def test_pool_ids_are_host_unique(self):
        engine = make_engine()
        a = engine.register_vm("a")
        b = engine.register_vm("b")
        p1 = engine.create_pool(a, "p", CachePolicy(mem_weight=1))
        p2 = engine.create_pool(b, "q", CachePolicy(mem_weight=1))
        self.assertNotEqual(p1.pool_id, p2.pool_id)
        self.assertEqual(set(engine.pools), {p1.pool_id, p2.pool_id})

    def test_destroy_pool_deactivates_and_unlinks(self):
        engine = make_engine()
        vm = engine.register_vm("a")
        pool = engine.create_pool(vm, "p", CachePolicy(mem_weight=1))
        engine.destroy_pool(vm, pool.pool_id)
        self.assertFalse(pool.active)
        self.assertNotIn(pool.pool_id, engine.pools)
        self.assertNotIn(pool.pool_id, engine.vms[vm].pools)


class AdmissionPlumbingTests(unittest.TestCase):

    def test_builder_and_namer_drive_controller_lifecycle(self):
        built = []

        def builder(policy):
            controller = object()
            built.append(controller)
            return controller

        engine = make_engine(
            admission_builder=builder,
            admission_namer=lambda policy: policy.admission or "admit_all",
        )
        vm = engine.register_vm("a")
        pool = engine.create_pool(
            vm, "p", CachePolicy(ssd_weight=1, admission="admit_all"))
        first = pool.admission
        self.assertIs(first, built[-1])

        # Same resolved admission name: live controller survives.
        name = engine.set_pool_policy(
            vm, pool.pool_id,
            CachePolicy(ssd_weight=2, admission="admit_all"))
        self.assertEqual(name, "admit_all")
        self.assertIs(pool.admission, first)

        # Different name: a fresh controller is built.
        engine.set_pool_policy(
            vm, pool.pool_id,
            CachePolicy(ssd_weight=2, admission="second_access"))
        self.assertIsNot(pool.admission, first)


class DecisionTests(unittest.TestCase):

    @staticmethod
    def _over_and_under(engine):
        """One VM, two SSD pools of equal weight: ``over`` holds 220 of
        its 200, ``under`` holds more (250) but within an entitlement
        of 300."""
        vm = engine.register_vm("a")
        over = engine.create_pool(vm, "over", CachePolicy(ssd_weight=1))
        under = engine.create_pool(vm, "under", CachePolicy(ssd_weight=1))
        over.used[StoreKind.SSD] = 220
        under.used[StoreKind.SSD] = 250
        under.entitlement[StoreKind.SSD] = 300
        return over, under

    def test_select_victim_prefers_exceeders(self):
        engine = make_engine()
        over, under = self._over_and_under(engine)
        round_ = engine.select_eviction(StoreKind.SSD, 4)
        self.assertIs(round_.victim_pool, over)
        self.assertEqual(round_.pool_state, (50, 1.0))
        self.assertEqual(
            round_.pool_entities, [(over, 200, 220, 1), (under, 300, 250, 1)])

    def test_select_victim_max_used_policy(self):
        engine = make_engine(victim_policy="max_used")
        self.assertIsNone(engine.select_eviction(StoreKind.SSD, 4))
        over, under = self._over_and_under(engine)
        self.assertIs(engine.select_eviction(StoreKind.SSD, 4).victim_pool, under)

    def test_select_eviction_returns_none_on_empty_host(self):
        engine = make_engine()
        engine.register_vm("a")
        self.assertIsNone(engine.select_eviction(StoreKind.MEMORY, 4))

    def test_unweighted_holders_stay_reclaimable(self):
        # Blocks left in a store the policy no longer weights must still
        # be enumerated (weightage 0) or a full store wedges.
        engine = make_engine()
        vm = engine.register_vm("a")
        pool = engine.create_pool(vm, "p", CachePolicy(ssd_weight=1))
        pool.used[StoreKind.MEMORY] = 6  # e.g. left behind by set_policy
        round_ = engine.select_eviction(StoreKind.MEMORY, 4)
        self.assertIsNotNone(round_)
        self.assertEqual(round_.vm_entities, [(round_.victim_vm, 0, 6, 0.0)])
        self.assertIs(round_.victim_pool, pool)

    def test_capacities_mutated_in_place_are_reread(self):
        caps = {StoreKind.MEMORY: 100, StoreKind.SSD: 0}
        engine = PolicyEngine(caps)
        vm = engine.register_vm("a")
        engine.create_pool(vm, "p", CachePolicy(mem_weight=1))
        self.assertEqual(engine.vm_entitlements[(vm, StoreKind.MEMORY)], 100)
        caps[StoreKind.MEMORY] = 40  # dynamic resize
        engine.recompute()
        self.assertEqual(engine.vm_entitlements[(vm, StoreKind.MEMORY)], 40)


class MakeRoomTests(unittest.TestCase):

    @staticmethod
    def _full_pool():
        """One VM, one SSD pool holding the whole 4-block store."""
        engine = make_engine(ssd=4)
        vm = engine.register_vm("a")
        pool = engine.create_pool(vm, "p", CachePolicy(ssd_weight=1))
        pool.used[StoreKind.SSD] = 4
        return engine, pool

    def _never(self, *args):
        self.fail(f"called with {args}")

    def test_true_without_selecting_when_not_over(self):
        engine, _ = self._full_pool()
        engine.select_eviction = self._never
        self.assertTrue(
            engine.make_room(StoreKind.SSD, 1, lambda: False, self._never))

    def test_false_on_an_empty_host(self):
        engine = make_engine()
        engine.register_vm("a")
        self.assertFalse(
            engine.make_room(StoreKind.SSD, 1, lambda: True, self._never))

    def test_false_when_a_round_frees_nothing(self):
        engine, pool = self._full_pool()
        rounds = []
        self.assertFalse(engine.make_room(
            StoreKind.SSD, 1, lambda: True,
            lambda round_: rounds.append(round_) or 0))
        self.assertEqual([round_.victim_pool for round_ in rounds], [pool])

    def test_evicts_round_by_round_until_the_request_fits(self):
        engine, pool = self._full_pool()

        def evict(round_):
            round_.victim_pool.used[StoreKind.SSD] -= 1
            return 1

        self.assertTrue(engine.make_room(
            StoreKind.SSD, 1, lambda: pool.used[StoreKind.SSD] + 2 > 4, evict))
        self.assertEqual(pool.used[StoreKind.SSD], 2)


class OneRegistryOneLoopTests(unittest.TestCase):
    """Every driver selects victims through ``PolicyEngine.make_room`` and
    registers VMs and pools with a ``PolicyEngine``."""

    SRC = Path(repro.__file__).parent
    ENGINE = SRC / "core" / "engine.py"

    def test_select_eviction_is_called_only_by_make_room(self):
        calls = [
            (str(path.relative_to(self.SRC)), node.lineno)
            for path in sorted(self.SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "select_eviction"
        ]
        self.assertEqual(len(calls), 1, calls)
        self.assertEqual(calls[0][0], "core/engine.py")
        source, start = inspect.getsourcelines(PolicyEngine.make_room)
        self.assertIn(calls[0][1], range(start, start + len(source)))

    def test_only_the_engine_issues_vm_and_pool_ids(self):
        offenders = [
            f"{path.relative_to(self.SRC)}: {name}"
            for path in sorted(self.SRC.rglob("*.py")) if path != self.ENGINE
            for name in ("_next_vm_id", "_next_pool_id")
            if name in path.read_text()
        ]
        self.assertEqual(offenders, [])


@pytest.mark.slow
@unittest.skipUnless(
    os.environ.get("PYTHONHASHSEED") == "0",
    "fingerprints are pinned under PYTHONHASHSEED=0")
class ExtractionDifferentialTests(unittest.TestCase):
    """The simulator path must be byte-identical to pre-extraction."""

    def _fingerprint(self, name):
        from repro.experiments import ALL_EXPERIMENTS

        experiment = ALL_EXPERIMENTS[name](scale=0.05, seed=42)
        result = experiment.run()
        text = result.summary(plots=False)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_caching_modes_fingerprint_unchanged(self):
        self.assertEqual(
            self._fingerprint("caching_modes"),
            PRE_EXTRACTION_FINGERPRINTS["caching_modes"])

    def test_cooperative_fingerprint_unchanged(self):
        self.assertEqual(
            self._fingerprint("cooperative"),
            PRE_EXTRACTION_FINGERPRINTS["cooperative"])

    def test_flexible_policy_fingerprint_unchanged(self):
        self.assertEqual(
            self._fingerprint("flexible_policy"),
            PRE_EXTRACTION_FINGERPRINTS["flexible_policy"])


if __name__ == "__main__":
    unittest.main()
