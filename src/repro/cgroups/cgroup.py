"""Cgroup state: the guest kernel's view of one application container.

Carries the paper's two DoubleDecker extensions alongside the usual memory
controller state: the hypervisor-cache policy tuple ``<T, W>`` and the
pool id handed back by the hypervisor cache at ``CREATE_CGROUP`` time.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import CachePolicy
from ..mem.anon import AnonSpace

__all__ = ["Cgroup"]


class Cgroup:
    """Memory accounting and cache policy for one container."""

    def __init__(
        self,
        cgroup_id: int,
        name: str,
        limit_blocks: int,
        policy: CachePolicy,
    ) -> None:
        if limit_blocks <= 0:
            raise ValueError(f"cgroup limit must be positive, got {limit_blocks}")
        self.cgroup_id = cgroup_id
        self.name = name
        #: Hard memory limit (anon + file), in blocks.
        self.limit_blocks = limit_blocks
        #: DoubleDecker <T, W> policy (storage type + weight).
        self.policy = policy
        #: Hypervisor-cache pool id (assigned on CREATE_CGROUP).
        self.pool_id: Optional[int] = None
        self.anon = AnonSpace()
        #: Resident file pages charged here (kept in sync by the guest OS).
        self.file_blocks = 0
        #: Cumulative swap-out traffic in blocks (Table 1's "total swap").
        self.swap_out_blocks = 0
        self.alive = True

    @property
    def anon_blocks(self) -> int:
        """Resident anonymous pages."""
        return self.anon.resident_pages

    @property
    def usage_blocks(self) -> int:
        """Total charged memory (anon + file)."""
        return self.anon_blocks + self.file_blocks

    def headroom(self) -> int:
        """Blocks left before the limit (negative when over)."""
        return self.limit_blocks - self.usage_blocks

    def set_limit(self, limit_blocks: int) -> None:
        """Dynamically adjust the memory limit (reclaim happens lazily)."""
        if limit_blocks <= 0:
            raise ValueError(f"cgroup limit must be positive, got {limit_blocks}")
        self.limit_blocks = limit_blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cgroup {self.name!r} id={self.cgroup_id} "
            f"use={self.usage_blocks}/{self.limit_blocks} pool={self.pool_id}>"
        )
