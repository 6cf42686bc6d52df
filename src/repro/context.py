"""Top-level simulation context: one object wiring env and RNG.

Most users start here::

    from repro import SimContext, DDConfig, CachePolicy

    ctx = SimContext(seed=42)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=2048))
    vm = host.create_vm("vm1", memory_mb=4096)
    web = vm.create_container("web", 1024, CachePolicy.memory(60))
    ...
    ctx.run(until=1800)
"""

from __future__ import annotations

from typing import Optional

from .hypervisor import Host
from .simkernel import Environment, RandomStreams

__all__ = ["SimContext"]


class SimContext:
    """Deterministic simulation session: environment + RNG."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.env = Environment()
        self.streams = RandomStreams(seed)

    def create_host(self) -> Host:
        """Build a host wired to this context's env and RNG."""
        return Host(self.env, streams=self.streams)

    def run(self, until: Optional[float] = None):
        """Advance the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    @property
    def now(self) -> float:
        return self.env.now
