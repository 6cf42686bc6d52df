"""``svc_direct_churn``: drive ``ServiceCache`` + ``DiskStore`` in-process.

Runs inside a worker process (see :mod:`bench.launch`).  No protocol, no
event loop: store and policy costs show undiluted.  Writes and deletes
run beside reads, small values beside large, and three tenants of equal
weight and unequal demand make Algorithm 1 redistribute entitlement.
The run ends with close -> reopen -> verify: every entry the reopened
cache holds must read back byte for byte, and its accounting must
reconcile with the state before the close.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from .client import (Account, KeyModel, Timed, cache_counters, reconcile,
                     totals)
from .inputs import (OP_GET, OP_SET, direct_churn, key_name, value_buffer)
from .launch import PhaseProfiler
from .procs import disk_usage

_now = time.perf_counter_ns


def _flat(stats: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {f"{scope}:{field}": value for scope, fields in stats.items()
            for field, value in fields.items()}


def run(spec: dict) -> dict:
    from repro.service.cache import ServiceCache, SetStatus
    from repro.service.store import DiskStore

    inputs = direct_churn(spec["seed"], spec["preload_sets"], spec["ops"],
                          spec["key_counts"])
    account = Account()
    buffer = value_buffer(spec["seed"])
    tenants = inputs.tenants
    models = [KeyModel(buffer, account) for _ in tenants]
    store_dir = os.path.join(spec["workdir"], "store")

    def open_cache() -> "ServiceCache":
        return ServiceCache(DiskStore(store_dir, sync_writes=False),
                            capacity_mb=spec["capacity_mb"])

    cache = open_cache()
    for index, rank, size in inputs.preload:
        key, model = key_name(rank), models[index]
        status = cache.set(tenants[index], key, model.next_value(key, size))
        model.on_set_reply(key, size, status == SetStatus.STORED)
    warm = _flat(cache.stats())
    ready = time.monotonic()

    timed = Timed()
    get_ns, set_ns = timed.get_ns, timed.set_ns
    before = totals(models)
    with PhaseProfiler(spec.get("profile")):
        for start in range(0, len(inputs.ops), spec["slice_len"]):
            started = _now()
            for op, index, rank, size in inputs.ops[
                    start:start + spec["slice_len"]]:
                key, model = key_name(rank), models[index]
                tenant = tenants[index]
                if op == OP_GET:
                    t0 = _now()
                    found = cache.get(tenant, key)
                    get_ns.append(_now() - t0)
                    model.on_get_reply(key, found[0] if found else None)
                elif op == OP_SET:
                    value = model.next_value(key, size)
                    t0 = _now()
                    status = cache.set(tenant, key, value)
                    set_ns.append(_now() - t0)
                    model.on_set_reply(key, size, status == SetStatus.STORED)
                else:
                    cache.delete(tenant, key)
                    account.attempted += 1
                    model.on_delete(key)
            wall_ns = _now() - started
            timed.ops = min(len(inputs.ops), start + spec["slice_len"])
            timed.close_slice(wall_ns)
    ended = time.monotonic()

    gets, hits, sets = (now - then
                        for now, then in zip(totals(models), before))
    stats = _flat(cache.stats())
    reconcile(stats, tenants, models, account)
    usage = disk_usage(store_dir)
    live_bytes = sum(cache.store.tenant_bytes().values())
    evicted, counters = cache_counters(stats, warm, tenants, sets, usage)

    # Restart: everything resident must survive, byte for byte.
    cache.close()
    t0 = _now()
    cache = open_cache()
    recover_ms = (_now() - t0) / 1e6
    after = _flat(cache.stats())
    for field in ("entries", "used_blocks"):
        account.check(after[f"_host:{field}"] == stats[f"_host:{field}"],
                      f"restart_{field}_mismatch")
    account.check(cache.store.count() == stats["_host:entries"],
                  "restart_store_count_mismatch")
    by_tenant = dict(zip(tenants, models))
    for entry in list(cache.store.iter_entries()):
        found = cache.get(entry.tenant, entry.key)
        hit = by_tenant[entry.tenant].on_get_reply(
            entry.key, found[0] if found else None)
        if not hit:
            account.fail("restart_lost_entry")
    cache.close()

    return {
        **timed.summary(), "ready": ready, "ended": ended,
        "hit_ratio": hits / gets if gets else None,
        "space_amp": usage["allocated"] / live_bytes if live_bytes else None,
        "attempted": account.attempted, "failures": account.failures,
        "layer": dict(counters, **{"service.cache.recover_ms": recover_ms}),
        "detail": {
            "evicted_blocks": evicted,
            "slice_rates": timed.slice_rates,
            "used_blocks": {t: stats[f"{t}:used_blocks"] for t in tenants},
            "entitlement_blocks": {
                t: stats[f"{t}:entitlement_blocks"] for t in tenants},
        },
    }
