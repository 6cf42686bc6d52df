"""Virtual machines and application containers (the LXC-in-KVM nesting).

A :class:`VirtualMachine` owns a :class:`~repro.guest.guestos.GuestOS`;
:class:`Container` is the workload-facing handle combining a cgroup with
convenience IO methods.  The *VM-level policy controller* of the paper is
the pair (``create_container`` policies, ``set_container_policy``) —
exercised from inside the VM, enforced by the hypervisor cache.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cgroups import Cgroup
from ..cleancache import CleancacheClient
from ..core.config import CachePolicy
from ..core.stats import PoolStats
from ..simkernel import Environment
from ..storage import MB
from .filesystem import File
from .guestos import GuestOS

__all__ = ["VirtualMachine", "Container"]


class Container:
    """An application container: a cgroup plus its file/anon namespaces."""

    def __init__(self, vm: "VirtualMachine", cgroup: Cgroup) -> None:
        self.vm = vm
        self.cgroup = cgroup

    @property
    def name(self) -> str:
        return self.cgroup.name

    @property
    def pool_id(self) -> Optional[int]:
        return self.cgroup.pool_id

    # -- file namespace ----------------------------------------------------

    def create_file(self, nblocks: int, name: str = "", append_slack: int = 4) -> File:
        return self.vm.os.fs.create_file(nblocks, name=name,
                                         append_slack=append_slack)

    # -- IO (generators) -----------------------------------------------------

    # Each method returns the GuestOS generator directly instead of
    # wrapping it in a delegating `yield from` frame: semantics are
    # identical for `yield from` / `env.process`, but every resume of a
    # wrapped generator pays one frame hop per delegation level, and
    # these run once per workload op.

    def read(self, file: File, start: int = 0, nblocks: Optional[int] = None,
             then: float = 0.0):
        return self.vm.os.read_file(self.cgroup, file, start, nblocks, then)

    def write(self, file: File, start: int = 0, nblocks: Optional[int] = None,
              sync: bool = False):
        return self.vm.os.write_file(self.cgroup, file, start, nblocks, sync=sync)

    def append(self, file: File, nblocks: int, sync: bool = False):
        return self.vm.os.append_file(self.cgroup, file, nblocks, sync)

    def fsync(self, file: File):
        return self.vm.os.fsync(self.cgroup, file)

    def delete(self, file: File):
        return self.vm.os.delete_file(self.cgroup, file)

    def touch_anon(self, pages, then: float = 0.0):
        return self.vm.os.touch_anon(self.cgroup, pages, then)

    # -- policy control (the VM-level controller) ------------------------------

    def set_cache_policy(self, policy: CachePolicy) -> None:
        """SET_CG_WEIGHT: change this container's ``<T, W>`` tuple."""
        self.vm.os.cgroups.set_policy(self.cgroup, policy)

    def set_memory_limit_mb(self, limit_mb: float) -> None:
        """Adjust the in-VM cgroup memory limit."""
        blocks = max(1, int(limit_mb * MB) // self.vm.block_bytes)
        self.vm.os.cgroups.set_limit(self.cgroup, blocks)

    def cache_stats(self) -> Optional[PoolStats]:
        """GET_STATS for this container's hypervisor-cache pool."""
        return self.vm.os.cgroups.stats(self.cgroup)

    # -- accounting ----------------------------------------------------------------

    @property
    def anon_mb(self) -> float:
        return self.cgroup.anon_blocks * self.vm.block_bytes / MB

    @property
    def file_mb(self) -> float:
        return self.cgroup.file_blocks * self.vm.block_bytes / MB

    @property
    def swap_out_mb(self) -> float:
        return self.cgroup.swap_out_blocks * self.vm.block_bytes / MB

    @property
    def hvcache_mb(self) -> float:
        """Current hypervisor-cache occupancy of this container."""
        stats = self.cache_stats()
        if stats is None:
            return 0.0
        blocks = stats.mem_used_blocks + stats.ssd_used_blocks
        return blocks * self.vm.block_bytes / MB

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.name!r} in {self.vm.name!r}>"


class VirtualMachine:
    """A guest VM registered with the host's hypervisor cache."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_mb: float,
        block_bytes: int,
        disk,
        hvcache,
        vm_id: int,
        disk_base_block: int = 0,
        reclaim_rng=None,
    ) -> None:
        self.env = env
        self.name = name
        self.memory_mb = memory_mb
        self.block_bytes = block_bytes
        self.vm_id = vm_id
        self.disk_base_block = disk_base_block
        self.cleancache = CleancacheClient(env, hvcache, vm_id, block_bytes)
        self.os = GuestOS(
            env,
            name=name,
            memory_mb=memory_mb,
            block_bytes=block_bytes,
            disk=disk,
            cleancache=self.cleancache,
            disk_base_block=disk_base_block,
            reclaim_rng=reclaim_rng,
        )
        self.containers: Dict[str, Container] = {}

    def create_container(
        self,
        name: str,
        memory_limit_mb: float,
        policy: Optional[CachePolicy] = None,
    ) -> Container:
        """Boot a container (CREATE_CGROUP fires here)."""
        if name in self.containers:
            raise ValueError(f"container {name!r} already exists in {self.name!r}")
        blocks = max(1, int(memory_limit_mb * MB) // self.block_bytes)
        cgroup = self.os.cgroups.create(name, blocks, policy or CachePolicy.none())
        container = Container(self, cgroup)
        self.containers[name] = container
        return container

    def destroy_container(self, container: Container) -> None:
        """Shut a container down (DESTROY_CGROUP fires here).

        Resident pages charged to the container are dropped (its filesystem
        namespace goes away with it).
        """
        cgroup = container.cgroup
        if self.os.pagecache.drop_cgroup(cgroup.cgroup_id):
            cgroup.file_blocks = 0
        self.os.cgroups.destroy(cgroup)
        del self.containers[container.name]

    def container(self, name: str) -> Container:
        return self.containers[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VM {self.name!r} mem={self.memory_mb}MB containers={len(self.containers)}>"
