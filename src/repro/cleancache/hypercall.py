"""The guest→hypervisor call channel (the VMCALL path).

Each cleancache operation crosses the VM boundary once per block:
a VMCALL world-switch plus an argument/data copy in the KVM module.  The
channel charges that cost before delegating to the hypervisor cache, so
cache "hits" are cheap but never free.
"""

from __future__ import annotations

from ..obs import tracer as _obs
from ..simkernel import Environment

__all__ = ["HypercallChannel", "CALL_US", "COPY_US_PER_KB"]

#: Microseconds per hypercall: the VM exit/entry and argument marshalling.
CALL_US = 2.0
#: Microseconds per KB of get/put payload: the host-side data copy.
COPY_US_PER_KB = 0.05


class HypercallChannel:
    """Latency-accounting wrapper around the raw hypervisor interface."""

    def __init__(self, env: Environment) -> None:
        self.env = env

    def charge_control(self, ncalls: int):
        """Generator: pay for ``ncalls`` metadata-only hypercalls."""
        cost = ncalls * CALL_US * 1e-6
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
        """Generator: pay for ``ncalls`` hypercalls moving ``payload_bytes``
        in total."""
        cost = (
            ncalls * CALL_US * 1e-6
            + (payload_bytes / 1024.0) * COPY_US_PER_KB * 1e-6
        )
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
