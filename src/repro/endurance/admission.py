"""Write-aware admission controllers for SSD-backed cache pools.

An unrestricted second-chance cache turns every eviction from guest RAM
into an SSD program — including blocks that will never be read again.
ECI-Cache and ETICA both show that the fix is an *admission* decision in
front of the flash store, not a smarter eviction behind it.  This module
supplies that decision point as a small pluggable interface consulted by
``DoubleDeckerCache.put_many`` (and the trickle-down path) before a key
enters an SSD-backed pool:

* :class:`AdmitAll` — today's behavior, every put is admitted.  Useful
  as the counted baseline: the data path is byte-identical to running
  with no controller at all, only the attempt/admit counters move.
* :class:`SecondAccessAdmit` — a ghost FIFO of recently *rejected* keys.
  The first put of a key is rejected and remembered; a re-put while the
  key is still in the ghost is admitted.  One-touch blocks never reach
  flash; anything with reuse pays one extra miss.
* :class:`WriteRateThrottle` — a token bucket over device bytes written.
  Puts are admitted while the pool stays under its write budget
  (``rate_bytes_s`` with ``burst_bytes`` of slack) and rejected when the
  bucket runs dry, bounding wear per unit time rather than per block.

Controllers are deterministic and per-pool; each keeps its own
``attempts == admitted + rejected`` ledger, which the shadow-accounting
auditor checks (see ``repro.core.audit``).  Selection is by name via
``CachePolicy.admission`` (per pool), else ``DDConfig.admission`` (per
cache); with neither set no controller is built.  The second-access
ghost is sized to the SSD store and the throttle runs at
:data:`THROTTLE_WRITE_MB_S` with :data:`THROTTLE_BURST_MB` of burst.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

__all__ = [
    "AdmissionController",
    "AdmitAll",
    "SecondAccessAdmit",
    "WriteRateThrottle",
    "ADMISSION_POLICIES",
    "make_admission",
]

_MB = 1024 * 1024

#: Valid names for the ``admission=`` knobs, in sweep order.
ADMISSION_POLICIES = ("admit_all", "second_access", "write_throttle")

#: ``write_throttle`` token-bucket refill rate (MB/s of SSD puts).
THROTTLE_WRITE_MB_S = 8.0
#: ``write_throttle`` token-bucket burst (MB).
THROTTLE_BURST_MB = 64.0


class AdmissionController:
    """Decision point in front of an SSD-backed pool.

    ``admit(key, now, blocks=1)`` returns True to let the put proceed and
    keeps the attempt ledger; ``now`` is the simulation clock (seconds),
    used only by time-based policies, and ``blocks`` is how many cache
    blocks the put writes (one per call in the simulator, a whole entry
    in the live service), used only by byte-budget policies.
    """

    __slots__ = ("attempts", "admitted", "rejected")

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self.attempts = 0
        self.admitted = 0
        self.rejected = 0

    def admit(self, key, now: float, blocks: int = 1) -> bool:
        raise NotImplementedError

    def as_dict(self) -> dict:
        return {
            "policy": self.name,
            "attempts": self.attempts,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }


class AdmitAll(AdmissionController):
    """Admit every put (the pre-endurance behavior, with counters)."""

    __slots__ = ()
    name = "admit_all"

    def admit(self, key, now: float, blocks: int = 1) -> bool:
        self.attempts += 1
        self.admitted += 1
        return True


class SecondAccessAdmit(AdmissionController):
    """Admit a key only on its second put while it sits in a ghost FIFO.

    The ghost holds *rejected* keys only (metadata, no data blocks); its
    size is expressed in blocks and defaults to the SSD store capacity so
    a key's second chance lasts about as long as a cache residency would.
    """

    __slots__ = ("ghost_blocks", "_ghost")
    name = "second_access"

    def __init__(self, ghost_blocks: int) -> None:
        super().__init__()
        if ghost_blocks <= 0:
            raise ValueError(f"ghost_blocks must be positive, got {ghost_blocks}")
        self.ghost_blocks = ghost_blocks
        self._ghost: "OrderedDict" = OrderedDict()

    def admit(self, key, now: float, blocks: int = 1) -> bool:
        self.attempts += 1
        ghost = self._ghost
        if ghost.pop(key, None) is not None:
            self.admitted += 1
            return True
        ghost[key] = True
        if len(ghost) > self.ghost_blocks:
            ghost.popitem(last=False)
        self.rejected += 1
        return False

    def ghost_len(self) -> int:
        return len(self._ghost)


class WriteRateThrottle(AdmissionController):
    """Token bucket over SSD bytes written: admit while under budget.

    The bucket starts full (``burst_bytes``) and refills at
    ``rate_bytes_s``; each admitted put consumes ``blocks`` cache blocks
    of tokens.  Integer token arithmetic is avoided on purpose — refill is
    exact in float seconds, so results are reproducible across runs.
    """

    __slots__ = ("rate_bytes_s", "burst_bytes", "block_bytes",
                 "_tokens", "_last_refill")
    name = "write_throttle"

    def __init__(self, rate_bytes_s: float, burst_bytes: float, block_bytes: int) -> None:
        super().__init__()
        if rate_bytes_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_s}")
        if burst_bytes < block_bytes:
            raise ValueError(
                f"burst ({burst_bytes}) must cover one block ({block_bytes})"
            )
        self.rate_bytes_s = rate_bytes_s
        self.burst_bytes = burst_bytes
        self.block_bytes = block_bytes
        self._tokens = burst_bytes
        self._last_refill = 0.0

    def admit(self, key, now: float, blocks: int = 1) -> bool:
        self.attempts += 1
        if now > self._last_refill:
            self._tokens = min(
                self.burst_bytes,
                self._tokens + (now - self._last_refill) * self.rate_bytes_s,
            )
            self._last_refill = now
        cost = blocks * self.block_bytes
        if self._tokens >= cost:
            self._tokens -= cost
            self.admitted += 1
            return True
        self.rejected += 1
        return False

    def tokens(self) -> float:
        return self._tokens


def make_admission(
    name: Optional[str], *, block_bytes: int, ssd_capacity_blocks: int,
) -> Optional[AdmissionController]:
    """Build a controller by registry name; ``None``/empty means disabled.

    The second-access ghost holds as many keys as the SSD store holds
    blocks.  Raises ``ValueError`` for unknown names so config typos
    fail loudly instead of silently admitting everything.
    """
    if not name:
        return None
    if name == "admit_all":
        return AdmitAll()
    if name == "second_access":
        return SecondAccessAdmit(max(1, ssd_capacity_blocks))
    if name == "write_throttle":
        return WriteRateThrottle(
            rate_bytes_s=THROTTLE_WRITE_MB_S * _MB,
            burst_bytes=THROTTLE_BURST_MB * _MB,
            block_bytes=block_bytes,
        )
    raise ValueError(
        f"unknown admission policy {name!r}; expected one of {ADMISSION_POLICIES}"
    )
