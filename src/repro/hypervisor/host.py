"""The physical host: devices, the hypervisor, VM lifecycle.

A :class:`Host` wires together the shared HDD (backing all virtual disks
and swap areas), the SSD (available to the hypervisor cache), and whatever
hypervisor-cache implementation an experiment installs.  It hands out
virtual-disk regions so different VMs' IO streams never look sequential to
the spindle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..core import (
    DDConfig,
    DoubleDeckerCache,
    GlobalCache,
    HypervisorCacheBase,
    NullCache,
    StaticPartitionCache,
)
from ..guest import VirtualMachine
from ..simkernel import Environment, RandomStreams
from ..storage import HDD, KB, SSD

__all__ = ["Host"]

#: The testbed's block: the unit of page-cache pages, cache entries and
#: device requests.
BLOCK_BYTES = 64 * KB

#: Virtual-disk region stride between VMs (in blocks); swap lives halfway
#: (``guestos.SWAP_OFFSET_BLOCKS``).
_VM_DISK_STRIDE = 1 << 32


class Host:
    """One physical machine of the derivative cloud (the paper's testbed:
    one SATA HDD behind every virtual disk, one SATA SSD for the cache)."""

    def __init__(
        self,
        env: Environment,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.env = env
        self.streams = streams or RandomStreams(0)
        self.block_bytes = BLOCK_BYTES
        self.hdd = HDD(env, BLOCK_BYTES, rng=self.streams.stream("host.hdd"))
        self.ssd = SSD(env, BLOCK_BYTES)
        self.hvcache: HypervisorCacheBase = NullCache()
        self.vms: Dict[str, VirtualMachine] = {}
        self._vm_count = 0
        #: Virtual-disk region bases retired by destroy_vm, reused (lowest
        #: first) before the allocator grows — destroyed VMs leave no
        #: address-space residue.
        self._free_disk_bases: List[int] = []

    # -- hypervisor cache installation -------------------------------------------

    def install_doubledecker(self, config: DDConfig) -> DoubleDeckerCache:
        """Run DoubleDecker as the host's hypervisor cache."""
        ssd_device = self.ssd if config.ssd_capacity_mb > 0 else None
        cache = DoubleDeckerCache(
            self.env, config, self.block_bytes, ssd_device=ssd_device
        )
        self.hvcache = cache
        return cache

    def install_global_cache(
        self,
        capacity_mb: float,
        per_vm_cap_mb: Optional[float] = None,
        exclusive: bool = True,
    ) -> GlobalCache:
        """Run the nesting-agnostic baseline cache."""
        cache = GlobalCache(
            self.env,
            capacity_mb,
            self.block_bytes,
            per_vm_cap_mb=per_vm_cap_mb,
            exclusive=exclusive,
        )
        self.hvcache = cache
        return cache

    def install_static_partition(self, capacity_mb: float) -> StaticPartitionCache:
        """Run the centralized static-partition baseline (Morai++)."""
        cache = StaticPartitionCache(self.env, capacity_mb, self.block_bytes)
        self.hvcache = cache
        return cache

    def install_null_cache(self) -> NullCache:
        """Disable hypervisor caching entirely."""
        cache = NullCache()
        self.hvcache = cache
        return cache

    # -- VM lifecycle ------------------------------------------------------------------

    def create_vm(
        self,
        name: str,
        memory_mb: float,
        cache_weight: float = 100.0,
    ) -> VirtualMachine:
        """Boot a VM and register it with the hypervisor cache."""
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists")
        vm_id = self.hvcache.register_vm(name, cache_weight)
        if self._free_disk_bases:
            disk_base = heapq.heappop(self._free_disk_bases)
        else:
            disk_base = self._vm_count * _VM_DISK_STRIDE
            self._vm_count += 1
        vm = VirtualMachine(
            self.env,
            name=name,
            memory_mb=memory_mb,
            block_bytes=self.block_bytes,
            disk=self.hdd,
            hvcache=self.hvcache,
            vm_id=vm_id,
            disk_base_block=disk_base,
            reclaim_rng=self.streams.stream(f"vm.{name}.reclaim"),
        )
        self.vms[name] = vm
        return vm

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Tear a VM down (all its pools are freed).

        Leaves zero host-side residue: the hypervisor-cache registration,
        the VM's virtual-disk region, and the per-VM RNG stream are all
        retired (``repro.core.audit.check_host`` asserts this).  The VM's
        cleancache client is pointed at a :class:`NullCache`, so any
        guest process still in flight misses and drops instead of
        touching the cache under a stale ``vm_id``.
        """
        vm.cleancache.hvcache = NullCache()
        self.hvcache.unregister_vm(vm.vm_id)
        heapq.heappush(self._free_disk_bases, vm.disk_base_block)
        self.streams.drop(f"vm.{vm.name}.reclaim")
        del self.vms[vm.name]

    def set_vm_cache_weight(self, vm: VirtualMachine, weight: float) -> None:
        """Hypervisor-level policy: change a VM's cache share weight."""
        self.hvcache.set_vm_weight(vm.vm_id, weight)

    def vm(self, name: str) -> VirtualMachine:
        return self.vms[name]
