"""The inter-host network model: a latency floor plus a bandwidth cap.

Hosts of a fleet are coupled only through this model.  Its latency floor
is the *lookahead* of the sharded simulation: no action issued on one
host can be observed on another sooner than ``latency_s`` later, so the
fleet may advance every host's environment to a common boundary before
applying any cross-host effect (see :meth:`repro.fleet.Fleet.run`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import MB

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Flat inter-host fabric (defaults model a 10 GbE datacenter pod)."""

    #: One-way latency floor between any two hosts (seconds).  Also the
    #: minimum sync window of the sharded simulation.
    latency_s: float = 0.0005
    #: Per-transfer payload bandwidth (MB/s).
    bandwidth_mb_s: float = 1180.0

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError(f"latency must be positive, got {self.latency_s}")
        if self.bandwidth_mb_s <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth_mb_s}"
            )

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` host-to-host (latency + serialization)."""
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        return self.latency_s + nbytes / (self.bandwidth_mb_s * MB)
