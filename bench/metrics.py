"""The benchmark's vocabulary: workloads, metric definitions, statistics.

Three lists live here and nowhere else:

* :data:`END_TO_END` — the 13 user-visible metrics, each with the
  workloads it applies to and the bound ``python -m bench compare``
  judges it by.
* :data:`CONTRACT_E2E` — the subset every one of the six workloads can
  report honestly.  ``BENCHMARK.json`` declares exactly these, because
  its schema has one metric list for all workloads.
* :data:`PER_LAYER` — single-layer metrics from the traced repetition,
  each tagged with its layer and the (end-to-end metric, workload) it is
  expected to move.  ``BENCHMARK.json`` lists their names; a layer a
  workload does not execute reads 0 there.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SVC_TCP = ("svc_tcp_hot", "svc_tcp_pipelined", "svc_tcp_readthrough")
SVC = SVC_TCP + ("svc_direct_churn",)
SIM = ("sim_filebench", "sim_datastore")
ALL = SVC + SIM

#: name -> the one-line reason the workload exists (BENCHMARK.json `why`).
WORKLOADS: Dict[str, str] = {
    "svc_tcp_hot":
        "Working set fits (hit_ratio 1.0, 0 evictions), one get at a time: "
        "protocol/asyncio/socket and the read path show; set/evict changes "
        "must not move it.",
    "svc_tcp_pipelined":
        "Same state, 16 commands per sendall (9 get batches : 1 set batch): "
        "per-syscall cost is amortised, per-command parse/dispatch cost is "
        "not.",
    "svc_tcp_readthrough":
        "Working set 3x capacity, get then set on miss: the full stack in "
        "the steady eviction regime; every service layer does real work.",
    "svc_direct_churn":
        "In-process ServiceCache, 50% set/40% get/10% delete, mixed sizes, "
        "unequal demand, restart+verify: store/policy changes show "
        "undiluted, protocol changes must not.",
    "sim_filebench":
        "CachingModesExperiment.run(): page cache -> cleancache -> "
        "DoubleDecker path; core.pools+cache_manager, guest and simkernel "
        "dominate host time.",
    "sim_datastore":
        "CooperativeExperiment.run(): anon memory, cgroup reclaim, swap and "
        "device queues dominate, DD core is small; contrast for "
        "sim_filebench.",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "higher" | "lower"
    bound: Optional[float] = None    # regression bound (end-to-end only)
    absolute: bool = False           # bound is absolute, not a share
    on: Tuple[str, ...] = ALL        # workloads that report it
    layer: str = ""                  # per-layer: the layer it measures
    moves: Tuple[Tuple[str, str], ...] = ()  # (e2e metric, workload)
    meaning: str = ""


_GET = ("svc_tcp_hot", "svc_tcp_readthrough", "svc_direct_churn")
_SET = ("svc_tcp_readthrough", "svc_direct_churn")
_PIPE = ("svc_tcp_pipelined",)

END_TO_END: List[Metric] = [
    Metric("ops_per_s", "1/s", "higher", 0.10, on=SVC,
           meaning="verified client ops per second of timed phase"),
    Metric("get_p50_us", "us", "lower", 0.10, on=_GET,
           meaning="client-observed get latency, median"),
    Metric("get_p99_us", "us", "lower", 0.25, on=_GET,
           meaning="client-observed get latency, 99th percentile"),
    Metric("set_p50_us", "us", "lower", 0.10, on=_SET,
           meaning="client-observed set latency (eviction happens inside)"),
    Metric("set_p99_us", "us", "lower", 0.25, on=_SET,
           meaning="client-observed set latency, 99th percentile"),
    Metric("batch_p50_us", "us", "lower", 0.10, on=_PIPE,
           meaning="first byte sent -> 16th reply read, median"),
    Metric("batch_p99_us", "us", "lower", 0.25, on=_PIPE,
           meaning="first byte sent -> 16th reply read, 99th percentile"),
    Metric("hit_ratio", "ratio", "higher", 0.01, absolute=True, on=SVC,
           meaning="hits / gets"),
    Metric("fail_ratio", "ratio", "lower", 0.0, absolute=True,
           meaning="failed checks / attempted"),
    Metric("space_amp", "ratio", "lower", 0.02, on=SVC,
           meaning="allocated bytes on disk / live user bytes at end of run"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           meaning="high-water RSS of the process under test"),
    Metric("setup_s", "s", "lower", 0.25,
           meaning="process start + preload/warm-up, untimed"),
    Metric("sim_speed", "sim_s/s", "higher", 0.10, on=SIM,
           meaning="simulated seconds per host second of run()"),
]

#: What BENCHMARK.json gates.  ``throughput`` is ``ops_per_s`` on svc_*
#: and ``sim_speed`` on sim_*: the one work rate each workload has.  Its
#: bound is what ten runs on ten seeds resolve here (README, "Measured
#: steadiness"): spreads reach 0.16, mostly the simulator's seeds, and
#: 0.22 while the host is noisy.
CONTRACT_E2E: List[Metric] = [
    Metric("throughput", "work/s", "higher", 0.25,
           meaning="timed-phase work per host second: verified client ops "
                   "(svc_*) or simulated seconds (sim_*)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
]

# -- per-layer ------------------------------------------------------------

#: Service layers, in table order.  ``idle`` (epoll wait) is kept out of
#: the per-op list and reported as ``server.idle_share``.
SERVICE_LAYERS = (
    "service.protocol", "asyncio", "socket", "service.cache", "core.engine",
    "core.pools", "service.store", "sqlite", "blob_io", "metrics_obs",
    "other",
)
SIM_LAYERS = (
    "simkernel", "workloads", "guest", "mem", "cgroups", "cleancache",
    "core.cache_manager", "core.pools", "core.engine", "storage",
    "hypervisor", "metrics_obs", "experiments", "other",
)

#: Public entry points whose call count and mean inclusive time are read
#: from the profile: metric stem -> (path suffix, function name).
SERVICE_ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "service.cache.get": ("repro/service/cache.py", "get"),
    "service.cache.set": ("repro/service/cache.py", "set"),
    "service.cache.delete": ("repro/service/cache.py", "delete"),
    "service.store.get": ("repro/service/store.py", "get"),
    "service.store.set": ("repro/service/store.py", "set"),
    "service.store.delete_entry": ("repro/service/store.py", "delete_entry"),
    "core.engine.select_eviction": ("repro/core/engine.py", "select_eviction"),
}
#: Simulator call-count probes (``core.engine.select_eviction`` above is
#: shared).  To add a probe, add a line here and to BENCHMARK.json.
SIM_CALL_PROBES: Dict[str, Tuple[str, str]] = {
    "simkernel.timeline.pop": ("repro/simkernel/timeline.py", "pop"),
    "simkernel.timeline.push": ("repro/simkernel/timeline.py", "push"),
    "guest.read_file": ("repro/guest/guestos.py", "read_file"),
    "guest.write_file": ("repro/guest/guestos.py", "write_file"),
    "mem.pagecache.lookup": ("repro/mem/pagecache.py", "lookup"),
    "cleancache.get_many": ("repro/cleancache/client.py", "get_many"),
    "cleancache.put_many": ("repro/cleancache/client.py", "put_many"),
    "core.cache_manager.get_many": ("repro/core/cache_manager.py", "get_many"),
    "core.cache_manager.put_many": ("repro/core/cache_manager.py", "put_many"),
    "core.pools.insert": ("repro/core/pools.py", "insert"),
    "storage.device.read": ("repro/storage/device.py", "read"),
    "storage.device.write": ("repro/storage/device.py", "write"),
}

_PROTO_MOVES = (("ops_per_s", "svc_tcp_hot"), ("get_p50_us", "svc_tcp_hot"),
                ("batch_p50_us", "svc_tcp_pipelined"))
_SQLITE_MOVES = (("set_p50_us", "svc_direct_churn"),
                 ("ops_per_s", "svc_direct_churn"),
                 ("set_p50_us", "svc_tcp_readthrough"),
                 ("get_p50_us", "svc_tcp_hot"))
_BLOB_MOVES = (("set_p50_us", "svc_direct_churn"),
               ("space_amp", "svc_direct_churn"))
_EVICT_MOVES = (("set_p99_us", "svc_direct_churn"),
                ("set_p99_us", "svc_tcp_readthrough"))
_POOLS_MOVES = (("sim_speed", "sim_filebench"),
                ("ops_per_s", "svc_direct_churn"))
_KERNEL_MOVES = (("sim_speed", "sim_filebench"), ("sim_speed", "sim_datastore"))
_DS_MOVES = (("sim_speed", "sim_datastore"),)
_FB_MOVES = (("sim_speed", "sim_filebench"),)

_SERVICE_LAYER_MOVES = {
    "service.protocol": _PROTO_MOVES, "asyncio": _PROTO_MOVES,
    "socket": _PROTO_MOVES, "service.cache": _EVICT_MOVES,
    "core.engine": _EVICT_MOVES, "core.pools": _POOLS_MOVES,
    "service.store": _SQLITE_MOVES, "sqlite": _SQLITE_MOVES,
    "blob_io": _BLOB_MOVES, "metrics_obs": _PROTO_MOVES, "other": (),
}
_SIM_LAYER_MOVES = {
    "simkernel": _KERNEL_MOVES, "workloads": _KERNEL_MOVES,
    "guest": _KERNEL_MOVES, "mem": _DS_MOVES, "cgroups": _DS_MOVES,
    "cleancache": _FB_MOVES, "core.cache_manager": _FB_MOVES,
    "core.pools": _POOLS_MOVES, "core.engine": _FB_MOVES,
    "storage": _DS_MOVES, "hypervisor": _KERNEL_MOVES,
    "metrics_obs": _KERNEL_MOVES, "experiments": (), "other": (),
}


def _per_layer() -> List[Metric]:
    out: List[Metric] = []
    # End-to-end metrics the contract list cannot carry (they do not
    # apply to all six workloads), measured on the traced run's untraced
    # repetition.  ``python -m bench compare`` still gates them.
    for metric in END_TO_END:
        if metric.name not in ("peak_rss_mb", "setup_s"):
            out.append(Metric(metric.name, metric.unit, metric.better,
                              on=metric.on, layer="end_to_end",
                              meaning=metric.meaning))
    for op, on in (("get", _GET), ("set", _SET), ("batch", _PIPE)):
        out.append(Metric(f"{op}_samples", "count", "higher", on=on,
                          layer="end_to_end",
                          meaning=f"latency samples behind {op}_p50/p99"))
    for layer in SERVICE_LAYERS:
        out.append(Metric(f"{layer}.self_us_per_op", "us", "lower", on=SVC,
                          layer=layer, moves=_SERVICE_LAYER_MOVES[layer],
                          meaning="profiler self time per client op"))
    out += [
        Metric("server.idle_share", "ratio", "lower", on=SVC_TCP,
               layer="asyncio", meaning="epoll wait / profiled wall"),
        Metric("server.cpu_util", "ratio", "higher", on=SVC_TCP,
               layer="server", moves=(("ops_per_s", "svc_tcp_hot"),),
               meaning="server CPU s / wall of the untraced timed phase"),
        Metric("bench.client.cpu_share", "ratio", "lower", on=SVC,
               layer="bench.client",
               meaning="load generator CPU / wall (TCP) or its profiled "
                       "self-time share (direct)"),
    ]
    for stem in SERVICE_ENTRY_POINTS:
        moves = (_EVICT_MOVES if stem == "core.engine.select_eviction"
                 else _SQLITE_MOVES)
        on = ALL if stem == "core.engine.select_eviction" else SVC
        layer = stem.rsplit(".", 1)[0]
        out.append(Metric(f"{stem}.calls", "count", "lower", on=on,
                          layer=layer, moves=moves))
        out.append(Metric(f"{stem}.cum_us", "us", "lower", on=on,
                          layer=layer, moves=moves,
                          meaning="mean inclusive time per call"))
    out += [
        Metric("sqlite.execute_calls_per_op", "count", "lower", on=SVC,
               layer="sqlite", moves=_SQLITE_MOVES),
        Metric("blob_io.opens_per_op", "count", "lower", on=SVC,
               layer="blob_io", moves=_BLOB_MOVES),
        Metric("blob_io.unlinks_per_op", "count", "lower", on=SVC,
               layer="blob_io", moves=_BLOB_MOVES),
        Metric("blob_io.fsyncs_per_op", "count", "lower", on=SVC,
               layer="blob_io", moves=_BLOB_MOVES),
        Metric("service.cache.evicted_blocks_per_set", "count", "lower",
               on=SVC, layer="service.cache", moves=_EVICT_MOVES),
        Metric("service.cache.puts_rejected", "count", "lower", on=SVC,
               layer="service.cache"),
        Metric("service.store.entries", "count", "higher", on=SVC,
               layer="service.store"),
        Metric("service.store.disk_bytes", "B", "lower", on=SVC,
               layer="service.store", moves=(("space_amp", "svc_direct_churn"),)),
        Metric("service.store.wal_bytes", "B", "lower", on=SVC,
               layer="sqlite", moves=(("space_amp", "svc_direct_churn"),)),
        Metric("service.cache.recover_ms", "ms", "lower",
               on=("svc_direct_churn",), layer="service.cache",
               meaning="reopen (DiskStore recovery + ServiceCache rebuild)"),
    ]
    for layer in SIM_LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", on=SIM,
                          layer=layer, moves=_SIM_LAYER_MOVES[layer],
                          meaning="profiler self time in the traced run()"))
    for stem in SIM_CALL_PROBES:
        out.append(Metric(f"{stem}.calls", "count", "lower", on=SIM,
                          layer=stem.rsplit(".", 1)[0], moves=_KERNEL_MOVES))
    out += [
        Metric("simkernel.host_us_per_event", "us", "lower", on=SIM,
               layer="simkernel", moves=_KERNEL_MOVES,
               meaning="untraced wall / events (timeline pops)"),
        Metric("model.web_ddmem_speedup", "ratio", "higher",
               on=("sim_filebench",), layer="model",
               meaning="exact model output; must not move"),
        Metric("model.dd_slas_met", "count", "higher",
               on=("sim_datastore",), layer="model",
               meaning="exact model output; must not move"),
        Metric("trace_overhead_ratio", "ratio", "lower", layer="bench",
               meaning="traced / untraced wall of the timed phase"),
        Metric("obs.live.overhead_ratio", "ratio", "lower",
               on=("svc_tcp_readthrough",), layer="metrics_obs",
               meaning="timed wall with --trace --metrics-port scraped "
                       "1/s, over plain"),
        Metric("core.audit.overhead_ratio", "ratio", "lower",
               on=("sim_filebench",), layer="core.audit",
               meaning="run() wall with set_audit_interval(10), over plain"),
    ]
    return out


PER_LAYER: List[Metric] = _per_layer()


# -- statistics -----------------------------------------------------------

def percentile(sorted_ns: Sequence[int], q: float) -> Optional[float]:
    """The ``q`` quantile in microseconds, or ``None`` when fewer than
    ten samples lie beyond it (nearest-rank on raw samples)."""
    n = len(sorted_ns)
    if n * min(q, 1.0 - q) < 10:
        return None
    return sorted_ns[min(n - 1, math.ceil(q * n) - 1)] / 1000.0


def upper_quartile(values: Sequence[float]) -> float:
    """The value three quarters of the way up the sorted sample."""
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, (3 * len(ranked)) // 4)]


def spread(values: Sequence[Optional[float]]) -> Optional[float]:
    """(max - min) / median of the repetitions; 0 for one repetition."""
    kept = [v for v in values if v is not None]
    if not kept:
        return None
    mid = statistics.median(kept)
    if mid == 0:
        return 0.0 if max(kept) == min(kept) else math.inf
    return (max(kept) - min(kept)) / abs(mid)


def unstable(metric: Metric, values: Sequence[Optional[float]]) -> bool:
    """Do the repetitions spread wider than the metric's bound?"""
    kept = [v for v in values if v is not None]
    if metric.bound is None or len(kept) < 2:
        return False
    if metric.absolute:
        return max(kept) - min(kept) > metric.bound
    return spread(kept) > metric.bound


def summarize(metric: Metric, values: Sequence[Optional[float]]) -> dict:
    """One metric's record in the output document: median of the
    repetitions, the repetitions, their spread and the stability flag."""
    kept = [v for v in values if v is not None]
    return {"value": statistics.median(kept) if kept else None,
            "unit": metric.unit, "better": metric.better,
            "reps": list(values), "spread": spread(values),
            "unstable": unstable(metric, values)}
