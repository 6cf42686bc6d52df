"""The hypervisor-cache interface contract.

Every cache implementation (DoubleDecker and the baselines) implements
:class:`HypervisorCacheBase`.  Guest operating systems reach it through the
hypercall channel (:mod:`repro.cleancache`); the host administrator calls
the management methods directly.

Data-path operations (``get_many`` / ``put_many``) are *generators*: they
may suspend on simulated device IO (SSD reads, write-buffer pressure).
Control-path operations are plain methods — their (small) hypercall cost
is charged by the guest-side channel.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from .config import CachePolicy, StoreKind
from .pools import BlockKey
from .stats import PoolStats

__all__ = ["HypervisorCacheBase", "NullCache"]


class HypervisorCacheBase(abc.ABC):
    """Abstract second-chance cache living in the hypervisor."""

    # -- VM lifecycle (hypervisor-level policy controller) --------------------

    @abc.abstractmethod
    def register_vm(self, name: str, weight: float = 100.0) -> int:
        """Register a VM; returns its ``vm_id``."""

    @abc.abstractmethod
    def unregister_vm(self, vm_id: int) -> None:
        """Drop a VM and all its pools/objects."""

    @abc.abstractmethod
    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        """Change a VM's share weight (dynamic re-provisioning)."""

    # -- pool lifecycle (guest-level policy controller, via hypercalls) -------

    @abc.abstractmethod
    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        """``CREATE_CGROUP``: allocate a pool for a new container."""

    @abc.abstractmethod
    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        """``DESTROY_CGROUP``: free all objects and retire the pool id."""

    @abc.abstractmethod
    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        """``SET_CG_WEIGHT``: change a container's ``<T, W>`` tuple."""

    @abc.abstractmethod
    def pool_stats(self, vm_id: int, pool_id: int) -> PoolStats:
        """``GET_STATS``: allocation/usage statistics for one pool."""

    # -- data path -------------------------------------------------------------

    @abc.abstractmethod
    def get_many(
        self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]
    ):
        """Exclusive lookup of ``keys``; generator returning the found set.

        Found blocks are *removed* from the cache (ownership moves to the
        guest page cache).
        """

    @abc.abstractmethod
    def put_many(
        self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]
    ):
        """Store clean evicted blocks; generator returning #stored.

        Best-effort: blocks may be rejected (store full of higher-priority
        data, write buffer saturated, pool not configured for any store).
        """

    @abc.abstractmethod
    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        """Invalidate specific blocks (guest dirtied them); returns #dropped."""

    @abc.abstractmethod
    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        """Invalidate a whole file (deletion/truncation); returns #dropped.

        ``nblocks`` is the file's block count as the guest knows it;
        implementations count it into ``flush_requests`` so whole-file
        flushes use the same *requested* semantics as :meth:`flush_many`.
        """

    @abc.abstractmethod
    def migrate_objects(
        self, vm_id: int, from_pool: int, to_pool: int, inode: int
    ) -> int:
        """``MIGRATE_OBJECT``: re-home a shared file's cached blocks."""

    # -- introspection -----------------------------------------------------------

    @abc.abstractmethod
    def vm_used_blocks(self, vm_id: int, kind: Optional[StoreKind] = None) -> int:
        """Blocks a VM currently holds (for the hypervisor's own policies)."""


class NullCache(HypervisorCacheBase):
    """A disabled hypervisor cache: every lookup misses, every put drops.

    Lets experiments run the "no second-chance cache" configuration through
    the identical guest code path.
    """

    def __init__(self) -> None:
        self._next_vm = 1
        self._next_pool = 1

    def register_vm(self, name: str, weight: float = 100.0) -> int:
        vm_id = self._next_vm
        self._next_vm += 1
        return vm_id

    def unregister_vm(self, vm_id: int) -> None:
        pass

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        pass

    def create_pool(self, vm_id: int, name: str, policy: CachePolicy) -> int:
        pool_id = self._next_pool
        self._next_pool += 1
        return pool_id

    def destroy_pool(self, vm_id: int, pool_id: int) -> None:
        pass

    def set_policy(self, vm_id: int, pool_id: int, policy: CachePolicy) -> None:
        pass

    def pool_stats(self, vm_id: int, pool_id: int) -> PoolStats:
        return PoolStats(pool_id=pool_id, vm_id=vm_id, name="null")

    def get_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        return set()
        yield  # pragma: no cover - makes this a generator

    def put_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]):
        return 0
        yield  # pragma: no cover - makes this a generator

    def flush_many(self, vm_id: int, pool_id: int, keys: Sequence[BlockKey]) -> int:
        return 0

    def flush_inode(self, vm_id: int, pool_id: int, inode: int,
                    nblocks: Optional[int] = None) -> int:
        return 0

    def migrate_objects(self, vm_id: int, from_pool: int, to_pool: int, inode: int) -> int:
        return 0

    def vm_used_blocks(self, vm_id: int, kind: Optional[StoreKind] = None) -> int:
        return 0
