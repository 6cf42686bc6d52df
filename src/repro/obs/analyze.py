"""Offline trace analysis behind ``python -m repro.obs``.

Every subcommand except ``smoke`` works on a JSONL trace produced by the
experiment CLI's ``--trace`` flag (or :func:`repro.obs.export.to_jsonl`):

* ``summarize`` — event counts and span time per span name, ledger
  totals per cache, recorder health (drops, sampling, open spans).
* ``top-victims`` — eviction provenance aggregated per victim pool:
  who lost blocks, how often, and where they trickled.
* ``latency-breakdown`` — per-op p50/p90/p99/p999 from the histogram
  snapshots in the trace meta (exact — histograms see every op even
  when the ring samples).
* ``export`` — convert JSONL to Chrome trace-event / Perfetto JSON.
* ``validate`` — the schema/ledger checker CI runs (see
  :func:`repro.obs.export.validate_trace`).
* ``smoke`` — build a small traced+audited scenario in-process, run it
  to quiescence, and fail on any unclosed span, schema violation, or
  provenance event that does not replay to the pools' counters.  The
  strict end-to-end gate.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..metrics.reporting import format_table
from ..metrics.timeseries import Histogram
from .export import (event_problems, meta_problems, parse_jsonl,
                     time_scale_us, validate_trace)
from .tracer import QUANTILE_LABELS, latency_rows

__all__ = [
    "MalformedTrace",
    "load_trace",
    "summarize",
    "top_victims",
    "latency_breakdown",
    "run_smoke",
]

Trace = Tuple[Dict[str, Any], List[Dict[str, Any]]]


class MalformedTrace(ValueError):
    """A trace that parses but lacks what a command reads; ``problems``
    holds one line per defect."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def load_trace(path: str) -> Trace:
    """Read and parse a JSONL trace file."""
    return parse_jsonl(Path(path).read_text())


def _ledger_problems(ledger: Any) -> List[str]:
    if not isinstance(ledger, dict) or not all(
            isinstance(pools, dict) for pools in ledger.values()):
        return ["meta: ledger is not a cache -> pool -> counters object"]
    return [f"cache {cache!r} pool {pool}: bad ledger counters {counters!r}"
            for cache, pools in ledger.items()
            for pool, counters in pools.items()
            if not isinstance(counters, dict) or not all(
                isinstance(value, int) for value in counters.values())]


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------

def summarize(trace: Trace) -> str:
    meta, events = trace
    problems = (meta_problems(meta) + event_problems(events)
                + _ledger_problems(meta.get("ledger", {})))
    if problems:
        raise MalformedTrace(problems)
    parts: List[str] = []
    spans: Dict[str, List[float]] = defaultdict(list)
    instants: Dict[str, int] = defaultdict(int)
    for event in events:
        if event["ph"] == "X":
            spans[event["name"]].append(event["dur"])
        else:
            instants[event["name"]] += 1

    parts.append(
        f"recorder: {meta['recorded']} events in ring "
        f"(capacity {meta['max_events']}, dropped {meta['dropped']}, "
        f"sampled out {meta['sampled_out']} at 1/{meta['sample']})"
    )
    parts.append(
        f"spans: {meta['spans_started']} begun, "
        f"{meta['spans_finished']} finished, {meta['open_spans']} open"
    )

    if spans:
        ms = time_scale_us(meta) / 1e3
        rows = []
        for name in sorted(spans):
            durations = spans[name]
            total = sum(durations)
            rows.append([
                name, len(durations), total * ms,
                (total / len(durations)) * ms,
                max(durations) * ms,
            ])
        parts.append("")
        parts.append(format_table(
            ["span", "count", "total(ms)", "mean(ms)", "max(ms)"],
            rows, title="-- span time (recorded events) --",
            float_fmt="{:.3f}",
        ))
    if instants:
        rows = [[name, instants[name]] for name in sorted(instants)]
        parts.append("")
        parts.append(format_table(
            ["event", "count"], rows, title="-- provenance events --"))

    ledger = meta.get("ledger", {})
    if ledger:
        rows = []
        for cache in sorted(ledger):
            pools = ledger[cache]
            totals: Dict[str, int] = defaultdict(int)
            for counters in pools.values():
                for field, value in counters.items():
                    totals[field] += value
            rows.append([
                cache, len(pools), totals["gets"], totals["get_hits"],
                totals["puts"], totals["puts_stored"],
                totals["puts"] - totals["puts_stored"],
                totals["evictions"], totals["ssd_writes"],
            ])
        parts.append("")
        parts.append(format_table(
            ["cache", "pools", "gets", "hits", "puts", "stored",
             "rejected", "evictions", "ssd_writes"],
            rows, title="-- provenance ledger (cumulative, exact) --"))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# top-victims
# ----------------------------------------------------------------------

def top_victims(trace: Trace, limit: int = 10) -> str:
    _, events = trace
    problems = event_problems(events)
    if problems:
        raise MalformedTrace(problems)
    stats: Dict[Tuple[str, str, str], Dict[str, int]] = {}
    for event in events:
        if event["name"] != "evict.round":
            continue
        args = event["args"]
        key = (args.get("cache", "?"), args.get("victim_vm", "?"),
               args.get("victim_pool", "?"))
        entry = stats.setdefault(
            key, {"rounds": 0, "evicted": 0, "trickled": 0})
        entry["rounds"] += 1
        entry["evicted"] += args.get("evicted", 0)
        entry["trickled"] += args.get("trickled", 0)
    if not stats:
        return "no eviction rounds recorded"
    ordered = sorted(
        stats.items(), key=lambda item: (-item[1]["evicted"], item[0]))
    rows = [
        [cache, vm, pool, entry["rounds"], entry["evicted"], entry["trickled"]]
        for (cache, vm, pool), entry in ordered[:limit]
    ]
    return format_table(
        ["cache", "victim vm", "victim pool", "rounds", "evicted", "trickled"],
        rows, title=f"-- top eviction victims (of {len(stats)}) --")


# ----------------------------------------------------------------------
# latency-breakdown
# ----------------------------------------------------------------------

def latency_breakdown(trace: Trace, per_vm: bool = False) -> str:
    meta, _ = trace
    snapshots = meta.get("histograms", {})
    if not isinstance(snapshots, dict):
        raise MalformedTrace(["meta: histograms is not an object"])
    if not snapshots:
        return "no latency histograms in trace"
    histograms: Dict[str, Histogram] = {}
    problems: List[str] = []
    for name, snapshot in snapshots.items():
        try:
            histograms[name] = Histogram.from_dict(snapshot)
        except KeyError as exc:
            problems.append(f"histogram {name!r}: missing {exc}")
        except (AttributeError, TypeError, ValueError) as exc:
            problems.append(f"histogram {name!r}: {exc}")
    if problems:
        raise MalformedTrace(problems)
    rows = latency_rows(histograms, meta, detail=per_vm)
    scope = "per op/vm/pool" if per_vm else "per op"
    return format_table(
        ["histogram", "count", "mean(ms)"]
        + [label + "(ms)" for _, label in QUANTILE_LABELS],
        rows, title=f"-- latency breakdown ({scope}) --", float_fmt="{:.4f}")


# ----------------------------------------------------------------------
# smoke
# ----------------------------------------------------------------------

def run_smoke(seed: int = 7, verbose: bool = True) -> int:
    """Traced + audited end-to-end scenario with strict validation.

    Drives the whole instrumented path — cleancache client, hypercall
    channel, DoubleDecker manager (hybrid + memory + SSD pools over two
    VMs, evictions, trickle-downs, migrations, flushes), SSD device —
    with finite deterministic op streams, so the simulation quiesces and
    every span must close.  Then: periodic audits must have stayed clean,
    the JSONL round-trip must be lossless, the Perfetto export must be
    valid JSON, the ring must have dropped nothing (so the provenance
    replay runs), and :func:`validate_trace` must pass with no allowance
    for open spans.  Returns a process exit code.
    """
    import json
    import random

    from ..cleancache import CleancacheClient
    from ..core import (
        CachePolicy, DDConfig, DoubleDeckerCache, assert_consistent,
        set_audit_interval,
    )
    from ..simkernel import Environment
    from ..storage import SSD
    from .export import events_to_perfetto, to_jsonl
    from .tracer import Tracer, set_tracer

    failures: List[str] = []
    tracer = Tracer(max_events=200_000, sample=1)
    set_tracer(tracer)
    set_audit_interval(5.0)
    try:
        env = Environment()
        block_bytes = 64 * 1024
        ssd = SSD(env, block_bytes)
        config = DDConfig(
            mem_capacity_mb=4.0, ssd_capacity_mb=8.0,
            eviction_batch_mb=0.25, trickle_down=True,
            admission="second_access",
        )
        cache = DoubleDeckerCache(env, config, block_bytes, ssd_device=ssd)
        rng = random.Random(seed)

        clients = []
        pools: List[Tuple[CleancacheClient, int]] = []
        for vm_name, pool_specs in (
            ("alpha", [("web", CachePolicy.memory(60.0)),
                       ("db", CachePolicy.hybrid(30.0, 30.0))]),
            ("beta", [("mail", CachePolicy.ssd(50.0)),
                      ("scratch", CachePolicy.hybrid(20.0, 40.0))]),
        ):
            vm_id = cache.register_vm(vm_name, weight=100.0)
            client = CleancacheClient(env, cache, vm_id, block_bytes)
            clients.append(client)
            for pool_name, policy in pool_specs:
                pool_id = client.create_pool(pool_name, policy)
                pools.append((client, pool_id))

        def driver(client: CleancacheClient, pool_id: int, salt: int):
            # Finite op stream: enough puts to overflow both stores
            # (forcing Algorithm-1 rounds and trickle-downs), re-puts to
            # satisfy second-access admission, then gets and flushes.
            # Each chunk is re-put immediately so the reuse distance stays
            # inside the admission ghost (a whole-stream second pass would
            # thrash the ghost FIFO and admit nothing).
            keys = [(inode, block)
                    for inode in range(salt, salt + 4)
                    for block in range(80)]
            for start in range(0, len(keys), 16):
                chunk = keys[start:start + 16]
                yield from client.put_many(pool_id, chunk)
                yield env.timeout(0.05 + (salt % 3) * 0.01)
                repeat = [key for key in chunk if rng.random() < 0.7]
                yield from client.put_many(pool_id, repeat)
                yield env.timeout(0.05)
            lookups = [key for key in keys if rng.random() < 0.6]
            for start in range(0, len(lookups), 8):
                yield from client.get_many(pool_id, lookups[start:start + 8])
                yield env.timeout(0.02)
            yield from client.flush_many(pool_id, keys[:24])
            yield from client.flush_inode(pool_id, salt)

        for index, (client, pool_id) in enumerate(pools):
            env.process(driver(client, pool_id, salt=10 * (index + 1)),
                        name=f"smoke-driver-{index}")

        def migrator(client: CleancacheClient):
            # Eviction churn can empty any one inode at any one instant,
            # so probe the source pool's inodes until a migration moves
            # blocks (deterministic under the fixed seed).
            yield env.timeout(1.0)
            vm_pools = [pid for cl, pid in pools if cl is client]
            while env.now < 60.0:
                for inode in range(10, 14):
                    if client.migrate(vm_pools[0], vm_pools[1], inode):
                        return
                yield env.timeout(0.2)

        env.process(migrator(clients[0]), name="smoke-migrator")

        # The audit loop reschedules forever, so run to a horizon far
        # past the drivers' last op instead of to queue exhaustion.
        env.run(until=500.0)

        assert_consistent(cache, where="smoke end")
        if tracer.open_spans:
            failures.append(f"{tracer.open_spans} unclosed span(s)")

        jsonl = to_jsonl(tracer)
        meta, events = parse_jsonl(jsonl)
        if len(events) != len(tracer.events):
            failures.append("JSONL round-trip lost events")
        elif list(tracer.events) != events:
            failures.append("JSONL round-trip altered events")
        if tracer.dropped:
            failures.append(f"ring dropped {tracer.dropped} events, so the "
                            f"provenance replay did not run")
        failures.extend(validate_trace(meta, events, allow_open_spans=False))

        perfetto = json.loads(events_to_perfetto(meta, events))
        if not perfetto.get("traceEvents"):
            failures.append("Perfetto export has no traceEvents")

        for op in ("get", "put", "flush"):
            hist = tracer.histogram(f"obs.lat.{op}")
            if not hist.count:
                failures.append(f"no {op} latencies recorded")

        total = meta["ledger"].get(cache._obs_label, {})
        evictions = sum(c["evictions"] for c in total.values())
        trickles = sum(c["ssd_writes"] for c in total.values())
        if not evictions:
            failures.append("scenario produced no evictions to trace")
        if not trickles:
            failures.append("scenario produced no SSD writes to trace")
        migrated = sum(c["migrated_out"] for c in total.values())
        if not migrated:
            failures.append("scenario produced no migrations to trace")
        if verbose:
            print(summarize((meta, events)))
            print()
            print(latency_breakdown((meta, events)))
            print()
            print(top_victims((meta, events)))
    finally:
        set_tracer(None)
        set_audit_interval(0.0)

    if failures:
        print("\nsmoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsmoke OK: spans closed, provenance replayed, exports valid")
    return 0
