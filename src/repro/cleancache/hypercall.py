"""The guest→hypervisor call channel (the VMCALL path).

Each cleancache operation crosses the VM boundary once per block:
a VMCALL world-switch plus an argument/data copy in the KVM module.  The
channel charges that cost before delegating to the hypervisor cache, so
cache "hits" are cheap but never free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import tracer as _obs
from ..simkernel import Environment

__all__ = ["HypercallChannel", "HypercallCosts"]


@dataclass(frozen=True)
class HypercallCosts:
    """Per-call overheads of the VMCALL path.

    ``call_us`` covers the VM exit/entry and argument marshalling;
    ``copy_us_per_kb`` the host-side data copy for get/put payloads.
    """

    call_us: float = 2.0
    copy_us_per_kb: float = 0.05

    def control_cost(self, ncalls: int) -> float:
        """Seconds for ``ncalls`` metadata-only hypercalls."""
        return ncalls * self.call_us * 1e-6

    def data_cost(self, ncalls: int, payload_bytes: int) -> float:
        """Seconds for ``ncalls`` hypercalls moving ``payload_bytes`` total."""
        return (
            ncalls * self.call_us * 1e-6
            + (payload_bytes / 1024.0) * self.copy_us_per_kb * 1e-6
        )


class HypercallChannel:
    """Latency-accounting wrapper around the raw hypervisor interface."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.costs = HypercallCosts()
        self.calls = 0

    def charge_control(self, ncalls: int):
        """Generator: pay for metadata-only hypercalls."""
        self.calls += ncalls
        cost = self.costs.control_cost(ncalls)
        if cost > 0:
            tracer = _obs.ACTIVE
            if tracer is None:
                yield self.env.timeout(cost)
                return
            tracer.span_begin()
            t0 = self.env.now
            yield self.env.timeout(cost)
            tracer.span_end("hypercall.control", t0, self.env.now, calls=ncalls)

    def charge_data(self, ncalls: int, payload_bytes: int):
        """Generator: pay for data-moving hypercalls."""
        self.calls += ncalls
        cost = self.costs.data_cost(ncalls, payload_bytes)
        if cost > 0:
            tracer = _obs.ACTIVE
            if tracer is None:
                yield self.env.timeout(cost)
                return
            tracer.span_begin()
            t0 = self.env.now
            yield self.env.timeout(cost)
            tracer.span_end("hypercall.data", t0, self.env.now,
                            calls=ncalls, payload_bytes=payload_bytes)
