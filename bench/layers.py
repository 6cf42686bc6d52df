"""Profile -> layer table.

A *layer* is a module (or small group of modules) of this repository,
or a class of stdlib boundary calls.  The traced repetition runs the
same entry point under ``cProfile`` (see :mod:`bench.launch`); this
module sums the profiler's *self* time per layer, so the layers plus
``other`` add up to the profiled time and nothing is counted twice.

Functions that belong to no layer (``dict.get``, ``posixpath.join``,
``len`` ...) are charged to the layers that called them, split by the
profiler's per-caller self time, so ``other`` stays small.

What this cannot see: which request a microsecond belonged to (no
critical path), and time the kernel spent on the process's behalf while
it was descheduled.  cProfile also inflates cheap Python calls relative
to native code; use the table to find candidates, not to claim a gain.
"""

from __future__ import annotations

import pstats
import re
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .metrics import (SERVICE_ENTRY_POINTS, SERVICE_LAYERS, SIM_CALL_PROBES,
                      SIM_LAYERS)
from .procs import SRC

Func = Tuple[str, int, str]

#: First match wins; matched against the path below ``repro/``.
_REPRO_RULES: List[Tuple[str, str]] = [
    (r"service/(protocol|server|__main__|__init__)\.py$", "service.protocol"),
    (r"service/cache\.py$", "service.cache"),
    (r"service/store\.py$", "service.store"),
    (r"core/(engine|victim|policy)\.py$", "core.engine"),
    (r"core/(pools|radix)\.py$", "core.pools"),
    (r"core/(cache_manager|baselines|stores|interface|optimizations)\.py$",
     "core.cache_manager"),
    (r"(metrics|obs)/", "metrics_obs"),
    (r"simkernel/", "simkernel"),
    (r"workloads/", "workloads"),
    (r"guest/", "guest"),
    (r"mem/", "mem"),
    (r"cgroups/", "cgroups"),
    (r"cleancache/", "cleancache"),
    (r"storage/", "storage"),
    (r"hypervisor/", "hypervisor"),
    (r"(experiments/|context\.py$)", "experiments"),
]
_BLOB_BUILTINS = re.compile(
    r"(io\.open|posix\.(unlink|fsync|stat|lstat|open|close|fstat|remove)"
    r"|of '_io\.(BufferedReader|BufferedWriter|FileIO|_IOBase)' objects)")

IDLE = "idle"
CLIENT = "bench.client"


def classify(func: Func) -> Optional[str]:
    """The layer a profiled function belongs to, or ``None`` when its
    time should follow its callers."""
    filename, _, name = func
    if filename == "~":  # builtin
        if "sqlite3." in name:
            return "sqlite"
        if "_socket.socket" in name:
            return "socket"
        if "select.epoll" in name or "select.poll" in name:
            return IDLE
        if _BLOB_BUILTINS.search(name):
            return "blob_io"
        return None
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        rel = path.rsplit("/repro/", 1)[1]
        for pattern, layer in _REPRO_RULES:
            if re.match(pattern, rel):
                return layer
        return "other"
    if "/bench/" in path:
        return CLIENT
    if "/asyncio/" in path or path.endswith("/selectors.py"):
        return "asyncio"
    return None


def layer_seconds(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Self time per layer; the values sum to the profile's total."""
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, depth: int) -> Dict[str, float]:
        layer = classify(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        out: Dict[str, float] = defaultdict(float)
        callers = stats[func][4] if func in stats and depth else {}
        total = sum(entry[2] for entry in callers.values())
        index = 2  # split by per-caller self time ...
        if total <= 0:
            index = 0  # ... or by call count when it rounds to nothing
            total = sum(entry[0] for entry in callers.values())
        if total > 0:
            for caller, entry in callers.items():
                for name, part in shares(caller, depth - 1).items():
                    out[name] += part * entry[index] / total
        if not out:
            out["other"] = 1.0
        memo[func] = out
        return out

    table: Dict[str, float] = defaultdict(float)
    for func, entry in stats.items():
        for layer, part in shares(func, 8).items():
            table[layer] += entry[2] * part
    return dict(table)


def _probe(stats: Dict[Func, tuple], suffix: str, name: str
           ) -> Optional[Tuple[int, float]]:
    """(calls, mean inclusive µs) of one function; (0, 0) when it never
    ran; ``None`` when it no longer exists in the source tree."""
    source = SRC / suffix
    if not source.exists() or not re.search(
            rf"^\s*(async\s+)?def {re.escape(name)}\(", source.read_text(),
            re.MULTILINE):
        return None
    calls, cumulative = 0, 0.0
    for (filename, _, func_name), entry in stats.items():
        if func_name == name and filename.replace("\\", "/").endswith(suffix):
            calls += entry[1]
            cumulative += entry[3]
    return calls, (cumulative / calls * 1e6 if calls else 0.0)


def _builtin_calls(stats: Dict[Func, tuple], pattern: str) -> int:
    return sum(entry[1] for (filename, _, name), entry in stats.items()
               if filename == "~" and re.search(pattern, name))


def _fold(table: Dict[str, float], known: set) -> Dict[str, float]:
    """``table`` with every layer outside ``known`` added to ``other``."""
    folded: Dict[str, float] = defaultdict(float)
    for layer, seconds in table.items():
        folded[layer if layer in known else "other"] += seconds
    return dict(folded)


def analyze(profile_path: str, ops: Optional[int]) -> dict:
    """Per-layer metrics of one traced repetition.

    ``ops`` is the client op count of the profiled phase (service
    workloads) or ``None`` (simulator: times are reported whole).
    Returns ``{"metrics": {name: value-or-None}, "missing_probes": [...],
    "profiled_s": total, "layer_s": {...}}``.
    """
    stats = pstats.Stats(profile_path).stats
    table = layer_seconds(stats)
    total = sum(table.values())
    metrics: Dict[str, Optional[float]] = {}
    missing: List[str] = []

    def probe(stem: str, suffix: str, name: str, cum: bool) -> None:
        found = _probe(stats, suffix, name)
        if found is None:
            missing.append(stem)
        metrics[f"{stem}.calls"] = None if found is None else found[0]
        if cum:
            metrics[f"{stem}.cum_us"] = None if found is None else found[1]

    for stem, (suffix, name) in SERVICE_ENTRY_POINTS.items():
        probe(stem, suffix, name, cum=True)
    if ops is None:
        # Bench frames and idle are not simulator layers.
        folded = _fold(table, set(SIM_LAYERS))
        for layer in SIM_LAYERS:
            metrics[f"{layer}.self_s"] = folded.get(layer, 0.0)
        for stem, (suffix, name) in SIM_CALL_PROBES.items():
            probe(stem, suffix, name, cum=False)
    else:
        folded = _fold(table, set(SERVICE_LAYERS) | {IDLE, CLIENT})
        for layer in SERVICE_LAYERS:
            metrics[f"{layer}.self_us_per_op"] = (
                folded.get(layer, 0.0) * 1e6 / ops)
        metrics["server.idle_share"] = (
            folded.get(IDLE, 0.0) / total if total else 0.0)
        metrics["bench.client.cpu_share"] = (
            folded.get(CLIENT, 0.0) / total if total else 0.0)
        metrics["sqlite.execute_calls_per_op"] = _builtin_calls(
            stats, r"'execute' of 'sqlite3\.") / ops
        metrics["blob_io.opens_per_op"] = _builtin_calls(
            stats, r"io\.open>") / ops
        metrics["blob_io.unlinks_per_op"] = _builtin_calls(
            stats, r"posix\.(unlink|remove)>") / ops
        metrics["blob_io.fsyncs_per_op"] = _builtin_calls(
            stats, r"posix\.fsync>") / ops
    return {"metrics": metrics, "missing_probes": missing,
            "profiled_s": total, "layer_s": folded}
