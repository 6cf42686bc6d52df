"""Policy configuration types for the DoubleDecker cache.

The paper's per-container policy is a two-tuple ``<T, W>``: a store type
(memory or SSD) and a weight (percent of the VM's share of that store).
The hybrid mode sketched in §3.3 gives a container weights on *both*
stores, with the SSD used once the memory share is exhausted.  A single
:class:`CachePolicy` with two weights expresses all three cases.

An SSD admission controller is chosen per container
(``CachePolicy.admission``) or for the whole store
(``DDConfig.admission``), by a name from ``ADMISSION_POLICIES``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from ..endurance.admission import ADMISSION_POLICIES

if TYPE_CHECKING:  # pragma: no cover
    from .optimizations import CompressionModel

__all__ = ["StoreKind", "CachePolicy", "DDConfig"]


class StoreKind(enum.Enum):
    """Storage backends offered by the hypervisor cache."""

    MEMORY = "memory"
    SSD = "ssd"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # The data path hashes StoreKind millions of times as a dict key
    # (`used[kind]`, `fifos[kind]`, ...).  Enum.__hash__ is a Python-level
    # call; members are singletons compared by identity, so the C-level
    # identity hash is equivalent and much cheaper.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CachePolicy:
    """Per-container cache specification (the paper's ``<T, W>`` tuple).

    ``mem_weight`` / ``ssd_weight`` are relative weights among the
    containers of the same VM for the respective store.  Exactly-one-store
    configurations (all the paper's headline experiments) set the other
    weight to zero; setting both enables the hybrid mode.
    """

    mem_weight: float = 0.0
    ssd_weight: float = 0.0
    #: Per-container admission policy for the SSD store (one of
    #: ``ADMISSION_POLICIES``); ``None`` defers to ``DDConfig.admission``.
    admission: Optional[str] = None

    def __post_init__(self) -> None:
        for weight in (self.mem_weight, self.ssd_weight):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"weights must be finite and non-negative: {self}")
        _check_admission(self.admission)

    @classmethod
    def memory(cls, weight: float) -> "CachePolicy":
        """``<Mem, weight>``."""
        return cls(mem_weight=weight)

    @classmethod
    def ssd(cls, weight: float, admission: Optional[str] = None) -> "CachePolicy":
        """``<SSD, weight>``."""
        return cls(ssd_weight=weight, admission=admission)

    @classmethod
    def hybrid(
        cls, mem_weight: float, ssd_weight: float, admission: Optional[str] = None
    ) -> "CachePolicy":
        """Hybrid: memory share first, spill to SSD share when exhausted."""
        return cls(mem_weight=mem_weight, ssd_weight=ssd_weight, admission=admission)

    @classmethod
    def none(cls) -> "CachePolicy":
        """Container does not participate in the hypervisor cache."""
        return cls()

    def weight_for(self, kind: StoreKind) -> float:
        """The weight applying to store ``kind``."""
        return self.mem_weight if kind is StoreKind.MEMORY else self.ssd_weight

    @property
    def uses_cache(self) -> bool:
        return self.mem_weight > 0 or self.ssd_weight > 0

    @property
    def is_hybrid(self) -> bool:
        return self.mem_weight > 0 and self.ssd_weight > 0


@dataclass(frozen=True)
class DDConfig:
    """Host-administrator configuration of the DoubleDecker store.

    ``eviction_batch_mb`` is the paper's small eviction batch (2 MB):
    when a store is full, one victim entity is chosen and at most this
    much is evicted from it before the store retries the put.
    ``trickle_down`` enables the third-chance path: blocks evicted from
    the memory store are re-homed to the SSD store instead of dropped.
    """

    mem_capacity_mb: float = 1024.0
    ssd_capacity_mb: float = 0.0
    eviction_batch_mb: float = 2.0
    trickle_down: bool = False
    #: Victim selection: "exceed" is the paper's Algorithm 1; "max_used"
    #: is the naive largest-holder alternative (for ablation).
    victim_policy: str = "exceed"
    #: Optional in-band compression of the memory store (zcache-style):
    #: blocks are charged their compressed footprint, costing CPU per op.
    compression: Optional["CompressionModel"] = None
    #: Content deduplication of the memory store (§6 future work).
    dedup: bool = False
    #: Fingerprint function ``(namespace, inode, block) -> int`` declaring
    #: which blocks share content; default makes every block unique.
    dedup_fingerprint: Optional[Callable[[object, int, int], int]] = None
    #: SSD admission policy (one of ``ADMISSION_POLICIES``) for every
    #: pool whose ``CachePolicy.admission`` is unset.  With both unset
    #: the admission hook is a strict no-op.
    admission: Optional[str] = None

    def __post_init__(self) -> None:
        for size in (self.mem_capacity_mb, self.ssd_capacity_mb):
            if not (math.isfinite(size) and size >= 0):
                raise ValueError(
                    f"capacities must be finite and non-negative: {self}")
        if not (math.isfinite(self.eviction_batch_mb)
                and self.eviction_batch_mb > 0):
            raise ValueError(f"eviction batch must be finite and positive: {self}")
        if self.victim_policy not in ("exceed", "max_used"):
            raise ValueError(f"unknown victim policy {self.victim_policy!r}")
        _check_admission(self.admission)


def _check_admission(name: Optional[str]) -> None:
    if name is not None and name not in ADMISSION_POLICIES:
        raise ValueError(f"unknown admission policy {name!r}")
