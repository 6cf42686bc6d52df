"""The policy module: entitlement computation for the two-level hierarchy.

On every configuration change (VM weight, container ``<T, W>``, capacity
resize, pool create/destroy) the entitlements are recomputed:

* per store ``S``: a VM's share is ``capacity(S) * w_vm / Σ w_vm`` over the
  VMs that *actively use* ``S`` (positive weight and at least one pool
  configured on it) — this matches the paper's dynamic-VM experiment,
  where an SSD-only VM does not dilute the memory shares of others;
* within a VM: a pool's entitlement is the VM share split by the pools'
  weights for that store (the paper's percentages, normalized by their sum
  so partial specifications remain well-defined).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .config import StoreKind
from .pools import VMEntry

__all__ = ["recompute_entitlements", "vm_shares"]


def vm_shares(
    vms: Iterable[VMEntry], capacity_blocks: int, kind: StoreKind
) -> Dict[int, int]:
    """Per-VM entitlement (blocks) for store ``kind``."""
    active = [vm for vm in vms if vm.weight > 0 and vm.pools_on(kind)]
    total_weight = sum(vm.weight for vm in active)
    shares: Dict[int, int] = {}
    if total_weight <= 0 or capacity_blocks <= 0:
        return {vm.vm_id: 0 for vm in active}
    for vm in active:
        shares[vm.vm_id] = int(capacity_blocks * vm.weight / total_weight)
    return shares


def recompute_entitlements(
    vms: Dict[int, VMEntry], capacities: Dict[StoreKind, int]
) -> Dict[Tuple[int, StoreKind], int]:
    """Recompute and install entitlements on every pool.

    Returns the per-``(vm_id, store)`` VM-level entitlements, which the
    cache manager keeps for VM-level victim selection.
    """
    vm_level: Dict[Tuple[int, StoreKind], int] = {}
    for kind, capacity in capacities.items():
        shares = vm_shares(vms.values(), capacity, kind)
        for vm in vms.values():
            share = shares.get(vm.vm_id, 0)
            vm_level[(vm.vm_id, kind)] = share
            pools = vm.pools_on(kind)
            pool_weight_total = sum(pool.policy.weight_for(kind) for pool in pools)
            # Zero out pools not configured on this store.
            for pool in vm.pools.values():
                if pool.policy.weight_for(kind) <= 0:
                    pool.entitlement[kind] = 0
            if not pools or pool_weight_total <= 0 or share <= 0:
                for pool in pools:
                    pool.entitlement[kind] = 0
                continue
            for pool in pools:
                fraction = pool.policy.weight_for(kind) / pool_weight_total
                pool.entitlement[kind] = int(share * fraction)
    return vm_level
