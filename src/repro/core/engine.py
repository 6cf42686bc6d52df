"""The DoubleDecker policy core, extracted behind a driver-agnostic seam.

:class:`PolicyEngine` owns the VM/pool registry with its two-level
weighted entitlements, the two-level Algorithm-1 victim selection
(``repro.core.victim``) and the resolution of per-pool SSD admission
controllers — while knowing nothing about storage backends or time
(where a put lands, hybrid spill included, is the driver's rule:
``DoubleDeckerCache.put_many``):

* **Storage-agnostic.**  The engine tracks metadata (``Pool`` FIFOs and
  per-entity occupancy, down to the store-wide ``used`` its pools keep)
  only; the driver moves bytes and charges device costs.  ``capacities``
  is a dict the driver owns and may mutate in place (dynamic resize);
  the engine re-reads it on every :meth:`recompute`.
* **Clock-agnostic.**  Nothing in the engine reads a clock.  Admission
  controllers take ``now`` as an argument at their call sites, so the
  simulator passes ``Environment.now`` and a wall-clock service passes
  whatever monotonic time it lives on.

Two drivers exist: the discrete-event simulator's
:class:`~repro.core.cache_manager.DoubleDeckerCache` (which this class
was factored out of — the simulated data path is byte-identical to the
pre-extraction code, pinned by ``tests/test_policy_engine.py``) and the
wall-clock cache service :mod:`repro.service`.  Both evict through
:meth:`PolicyEngine.make_room`; the baselines use an engine as their
registry only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .config import CachePolicy, StoreKind
from .policy import recompute_entitlements
from .pools import Pool, VMEntry, check_vm_weight
from .victim import Entity, select_victim

__all__ = ["PolicyEngine", "EvictionRound"]

#: Builds an admission controller for a pool's policy (or ``None`` to
#: admit freely).  Which name a policy without its own resolves to is
#: the driver's business, hence a callable rather than data.
AdmissionBuilder = Callable[[CachePolicy], Optional[object]]

#: Resolves the admission-policy *name* a policy would get, so a policy
#: change can preserve a live controller (its ghost/bucket state) when
#: the resolved name is unchanged.
AdmissionNamer = Callable[[CachePolicy], Optional[str]]


class EvictionRound(NamedTuple):
    """One Algorithm-1 selection with full decision provenance.

    Beside the winners it carries each level's rows as scored — the
    ``used`` in a row is the selection's snapshot, not the live count the
    eviction then changes — and the ``(b, cw)`` they were scored with, so
    ``exceed_value(row, batch, *state)`` is every candidate's exceed
    value as the selection saw it.
    """

    victim_vm: VMEntry
    victim_pool: Pool
    vm_entities: List[Entity]
    vm_state: Tuple[int, float]
    pool_entities: List[Entity]
    pool_state: Tuple[int, float]


class PolicyEngine:
    """Registry + decision logic of the two-level weighted cache."""

    def __init__(
        self,
        capacities: Dict[StoreKind, int],
        victim_policy: str = "exceed",
        admission_builder: Optional[AdmissionBuilder] = None,
        admission_namer: Optional[AdmissionNamer] = None,
    ) -> None:
        if victim_policy not in ("exceed", "max_used"):
            raise ValueError(f"unknown victim policy {victim_policy!r}")
        #: Effective store sizes in blocks; owned and mutated by the driver.
        self.capacities = capacities
        self.victim_policy = victim_policy
        self._admission_builder = admission_builder
        self._admission_namer = admission_namer
        self.vms: Dict[int, VMEntry] = {}
        #: StoreKind -> blocks held by every pool: the store-wide total,
        #: written only by the pools themselves (``Pool.totals``).
        self.used: Dict[StoreKind, int] = {StoreKind.MEMORY: 0, StoreKind.SSD: 0}
        #: Flat global pool-id -> Pool map (pool ids are host-unique).
        self.pools: Dict[int, Pool] = {}
        self._next_vm_id = 1
        self._next_pool_id = 1
        self.vm_entitlements: Dict[Tuple[int, StoreKind], int] = {}

    # ------------------------------------------------------------------
    # VM lifecycle (hypervisor-level policy controller)
    # ------------------------------------------------------------------

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        self.vms[vm_id] = VMEntry(vm_id, name, weight)
        self.recompute()
        return vm_id

    def unregister_vm(self, vm_id: int) -> VMEntry:
        """Drop a VM from the registry (caller destroys its pools first)."""
        vm = self.require_vm(vm_id)
        if vm.pools:
            raise ValueError(
                f"VM {vm_id} still owns pools {sorted(vm.pools)} — destroy "
                f"them (draining their blocks) before unregistering"
            )
        del self.vms[vm_id]
        self.recompute()
        return vm

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        self.require_vm(vm_id).weight = check_vm_weight(weight)
        self.recompute()

    # ------------------------------------------------------------------
    # Pool lifecycle (guest-level policy controller)
    # ------------------------------------------------------------------

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> Pool:
        vm = self.require_vm(vm_id)
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        pool = Pool(pool_id, vm_id, name, policy, self.used)
        if self._admission_builder is not None:
            pool.admission = self._admission_builder(policy)
        vm.pools[pool_id] = pool
        self.pools[pool_id] = pool
        self.recompute()
        return pool

    def destroy_pool(self, vm_id: int, pool_id: int) -> Pool:
        """Retire a pool from the registry (caller drains its blocks)."""
        pool = self.require_pool(vm_id, pool_id)
        pool.active = False
        del self.vms[vm_id].pools[pool_id]
        del self.pools[pool_id]
        self.recompute()
        return pool

    def set_pool_policy(
        self, vm_id: int, pool_id: int, policy: CachePolicy
    ) -> Optional[str]:
        """Change a pool's ``<T, W>`` tuple; returns the resolved admission
        name.

        The same resolved admission policy keeps the live controller (its
        ghost/bucket state and ledger survive a weight change); a policy
        switch builds a fresh one.
        """
        pool = self.require_pool(vm_id, pool_id)
        namer = self._admission_namer
        old_name = namer(pool.policy) if namer is not None else ""
        new_name = namer(policy) if namer is not None else ""
        pool.policy = policy
        if new_name != old_name and self._admission_builder is not None:
            pool.admission = self._admission_builder(policy)
        self.recompute()
        return new_name

    # ------------------------------------------------------------------
    # Entitlements
    # ------------------------------------------------------------------

    def recompute(self) -> None:
        """Re-derive every entitlement from weights and capacities."""
        self.vm_entitlements = recompute_entitlements(self.vms, self.capacities)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def select_eviction(self, kind: StoreKind, batch: int) -> Optional[EvictionRound]:
        """One Algorithm-1 selection: victim VM, then victim pool within it.

        Entities are enumerated by *occupancy*, not policy weight: blocks
        legitimately left in a store the policy no longer weights (a
        ``set_policy`` store switch, or a trickle-down into a memory-only
        pool) must stay reclaimable, or a full store wedges with no
        visible victim.  Such entities keep entitlement 0 and get
        weightage 0, so Algorithm 1 treats them as pure over-users.

        Returns ``None`` when no entity holds anything evictable.  The
        driver evicts up to ``batch`` blocks FIFO from the winning pool
        and owns all accounting for them.
        """
        policy = self.victim_policy
        entitlements = self.vm_entitlements
        vm_entities: List[Entity] = []
        for vm in self.vms.values():
            used = 0
            weighted = False
            for pool in vm.pools.values():
                used += pool.used[kind]
                weighted = weighted or pool.policy.weight_for(kind) > 0
            if weighted or used:
                vm_entities.append((
                    vm, entitlements.get((vm.vm_id, kind), 0), used,
                    vm.weight if weighted else 0.0,
                ))
        victim_vm, vm_b, vm_cw = select_victim(vm_entities, batch, policy)
        if victim_vm is None:
            return None
        vm = victim_vm[0]
        pool_entities: List[Entity] = []
        for pool in vm.pools.values():
            weight = pool.policy.weight_for(kind)
            used = pool.used[kind]
            if weight > 0 or used:
                pool_entities.append(
                    (pool, pool.entitlement[kind], used, weight))
        victim_pool, pool_b, pool_cw = select_victim(pool_entities, batch, policy)
        if victim_pool is None:
            return None
        return EvictionRound(
            vm, victim_pool[0],
            vm_entities, (vm_b, vm_cw), pool_entities, (pool_b, pool_cw),
        )

    def make_room(
        self,
        kind: StoreKind,
        batch: int,
        over: Callable[[], bool],
        evict: Callable[[EvictionRound], int],
    ) -> bool:
        """Select and evict until ``over()`` is false; False on failure.

        The paper's enforcement loop, stated once for every driver: while
        the store is over capacity, make one :meth:`select_eviction` and
        let ``evict(round_)`` free up to ``batch`` blocks FIFO from the
        victim pool, returning how many it freed.  Gives up when no
        entity holds anything evictable or a round frees nothing.  Every
        round frees at least one block and nothing re-enters the store
        meanwhile, so the loop is bounded by the blocks held.
        """
        while over():
            round_ = self.select_eviction(kind, batch)
            if round_ is None or not evict(round_):
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def require_vm(self, vm_id: int) -> VMEntry:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise KeyError(f"unknown vm_id {vm_id}")
        return vm

    def require_pool(self, vm_id: int, pool_id: int) -> Pool:
        vm = self.require_vm(vm_id)
        pool = vm.pools.get(pool_id)
        if pool is None:
            raise KeyError(f"unknown pool_id {pool_id} in VM {vm_id}")
        return pool
