"""``repro.service``: the DoubleDecker policy core serving real requests.

The simulator proves the policy; this package runs it.  Three layers:

* :class:`~repro.service.store.DiskStore` — a crash-safe, pure-Python
  persistent value store owned by one process (an append-only,
  CRC-framed journal of one ``PUT`` frame per entry, small values
  inline in it, large ones in 4 KiB slots of one slab file).
* :class:`~repro.service.cache.ServiceCache` — drives the same
  :class:`~repro.core.engine.PolicyEngine` the simulator uses: one DD
  container (pool) per tenant, Algorithm-1 victim selection, the
  ``repro.endurance`` admission controllers, per-tenant accounting.
  Clients address whole values, not blocks, so the index is one FIFO
  record per entry per tenant and a pool is told block *counts* only.
* :class:`~repro.service.server.CacheServer` — an asyncio front-end
  speaking the memcached text protocol (``python -m repro.service``),
  with wall-clock latency histograms in :mod:`repro.metrics` and an
  optional :mod:`repro.obs` tracer.

Unlike the simulator's exclusive second-chance cache, the service cache
is the system of record for its values: a ``get`` hit leaves the entry
resident.  Residence order is still FIFO per tenant and Algorithm 1
picks the victims; a round stops as soon as the request fits, where the
paper's drains its whole batch (see :mod:`repro.service.cache`).

These modules live on the host wall clock by design, so the wall-clock
hazard check skips ``repro/service/``, which is instead the scope of the
await-race check (no read-modify-write of shared state across an
``await``) — see ``REALTIME`` in ``tests/test_hazards.py``.
"""

from .cache import ServiceCache, SetStatus
from .store import DiskStore, StoredEntry

__all__ = ["DiskStore", "ServiceCache", "SetStatus", "StoredEntry"]
