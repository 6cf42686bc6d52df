"""Trace exporters, parsers, and the trace validator.

Two on-disk formats, both plain text:

* **JSONL** — first line is a ``{"type": "meta", ...}`` record (the
  tracer's counters, ledger, and histogram snapshots), every following
  line one ``{"type": "event", ...}`` record.  This is the lossless
  format: :func:`parse_jsonl` returns exactly the dicts
  :func:`to_jsonl` serialized, so analysis tooling round-trips it.
* **Chrome trace-event / Perfetto JSON** — the ``traceEvents`` array
  format that ``chrome://tracing`` and https://ui.perfetto.dev load
  directly.  VMs map to processes (pid), container pools to threads
  (tid); timestamps are converted from the trace's native unit to the
  format's microseconds.  ``python -m repro.obs export`` is its one
  producer; runs write the lossless JSONL only.

:func:`validate_trace` is the schema check CI runs on emitted traces:
field/type validation of every record (hand-enforced, so no external
jsonschema dependency), span-balance (no unclosed spans unless the run
was truncated deliberately), ledger arithmetic (the put-outcome
identity ``puts == stored + rejected_*``), and — when the ring buffer
never dropped and sampling was off — a replay check that the provenance
*events* re-add to the ledger, the pools' own counters.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from .tracer import LEDGER_FIELDS, Tracer, time_scale_us

__all__ = [
    "JSONL_VERSION",
    "to_jsonl",
    "parse_jsonl",
    "events_to_perfetto",
    "time_scale_us",
    "validate_trace",
]

#: Bumped when the JSONL record shape changes incompatibly.
JSONL_VERSION = 1

_META_COUNTERS = (
    "max_events", "sample", "recorded", "dropped", "sampled_out",
    "spans_started", "spans_finished", "open_spans",
)

#: Meta tables keyed ``"cache_label/id"``.
_NAME_TABLES = ("pool_names", "vm_names")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def to_jsonl(tracer: Tracer) -> str:
    """Serialize the tracer's meta + ring buffer as a JSONL event log."""
    lines = [json.dumps(
        {"type": "meta", "version": JSONL_VERSION, **tracer.meta()},
        sort_keys=True,
    )]
    for event in tracer.events:
        lines.append(json.dumps({"type": "event", **event}, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Inverse of :func:`to_jsonl`: returns ``(meta, events)``.

    Events come back as the exact dicts the tracer recorded (the
    ``"type"`` envelope key stripped), so re-serializing them reproduces
    the file — the round-trip property the exporter tests pin down.
    """
    meta: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.pop("type", None) if isinstance(record, dict) else None
        if kind == "meta":
            record.pop("version", None)
            meta = record
        elif kind == "event":
            events.append(record)
        else:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    if not meta:
        raise ValueError("trace has no meta record")
    return meta, events


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ----------------------------------------------------------------------

def _display_names(meta: Dict[str, Any], table: str) -> Dict[int, str]:
    """``{vm_or_pool_id: display name}`` from a meta name table.

    Meta keys are ``"cache_label/id"``; with several caches in one run
    (one per experiment mode) the first registered names an id: keys
    rank by registration ordinal (``Tracer.register_cache``'s k-th
    ``name`` is ``name#k``), then by key, never by key order, which
    ``to_jsonl`` sorts (``"x#2/1"`` before ``"x/1"``).
    """
    def rank(key: str) -> Tuple[int, str]:
        base, _, ordinal = key.rsplit("/", 1)[0].rpartition("#")
        return (int(ordinal) if base and ordinal.isdecimal() else 1), key

    names: Dict[int, str] = {}
    for key in sorted(meta.get(table, {}), key=rank):
        names.setdefault(int(key.rsplit("/", 1)[1]), meta[table][key])
    return names


def events_to_perfetto(meta: Dict[str, Any],
                       events: Iterable[Dict[str, Any]]) -> str:
    """Render parsed trace records as Chrome trace-event JSON."""
    trace_events: List[Dict[str, Any]] = []
    vm_names = _display_names(meta, "vm_names")
    pool_names = _display_names(meta, "pool_names")
    scale = time_scale_us(meta)
    seen_pids: set = set()
    seen_tids: set = set()
    body: List[Dict[str, Any]] = []
    for event in events:
        pid = event["vm"] if isinstance(event["vm"], int) else 0
        tid = event["pool"] if isinstance(event["pool"], int) else 0
        seen_pids.add(pid)
        seen_tids.add((pid, tid))
        entry: Dict[str, Any] = {
            "name": event["name"],
            "cat": event["name"].split(".", 1)[0],
            "ph": event["ph"],
            "ts": event["ts"] * scale,  # native unit -> microseconds
            "pid": pid,
            "tid": tid,
            "args": event["args"],
        }
        if event["ph"] == "X":
            entry["dur"] = event["dur"] * scale
        else:
            entry["s"] = "t"  # thread-scoped instant
        body.append(entry)
    for pid in sorted(seen_pids):
        label = "host" if pid == 0 else f"vm{pid} ({vm_names.get(pid, '?')})"
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    for pid, tid in sorted(seen_tids):
        label = "-" if tid == 0 else f"pool{tid} ({pool_names.get(tid, '?')})"
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
    trace_events.extend(body)
    return json.dumps({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "dropped_events": meta.get("dropped", 0),
            "sampled_out": meta.get("sampled_out", 0),
        },
    }, sort_keys=True)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def _check_event(event: Dict[str, Any], index: int) -> List[str]:
    problems: List[str] = []
    where = f"event[{index}]"
    ph = event.get("ph")
    if ph not in ("X", "i"):
        problems.append(f"{where}: bad ph {ph!r}")
        return problems
    name = event.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{where}: bad name {name!r}")
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        problems.append(f"{where} ({name}): bad ts {ts!r}")
    if ph == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
            problems.append(f"{where} ({name}): bad dur {dur!r}")
    elif "dur" in event:
        problems.append(f"{where} ({name}): instant event carries dur")
    for field in ("vm", "pool"):
        value = event.get(field, "missing")
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            problems.append(f"{where} ({name}): bad {field} {value!r}")
    if not isinstance(event.get("args"), dict):
        problems.append(f"{where} ({name}): args is not an object")
    return problems


def _replay_provenance(meta: Dict[str, Any],
                       events: Iterable[Dict[str, Any]]) -> List[str]:
    """Re-add the provenance event stream and compare with the ledger,
    the pools' own counters read when the trace was written.

    Only sound when the ring buffer never overflowed (``dropped == 0``) —
    a wrapped ring legitimately lost early events.
    """
    problems: List[str] = []
    replayed: Dict[Tuple[str, str], Dict[str, int]] = {}

    def bucket(cache: str, pool: Any) -> Dict[str, int]:
        key = (cache, str(pool))
        entry = replayed.get(key)
        if entry is None:
            entry = replayed[key] = dict.fromkeys(LEDGER_FIELDS, 0)
        return entry

    for event in events:
        name = event.get("name")
        args = event.get("args", {})
        if not isinstance(args, dict):
            continue  # already reported by the schema check
        cache = args.get("cache")
        if cache is None:
            continue
        if name == "put.outcome":
            entry = bucket(cache, event["pool"])
            entry["puts"] += args.get("puts", 0)
            entry["puts_stored"] += args.get("stored", 0)
            entry["put_rejected_policy"] += args.get("rejected_policy", 0)
            entry["put_rejected_capacity"] += args.get("rejected_capacity", 0)
            entry["put_rejected_admission"] += args.get("rejected_admission", 0)
            entry["put_rejected_backpressure"] += args.get(
                "rejected_backpressure", 0)
            entry["ssd_writes"] += args.get("ssd", 0)
        elif name == "evict.round":
            entry = bucket(cache, event["pool"])
            entry["evictions"] += args.get("evicted", 0)
        elif name == "trickle.down":
            entry = bucket(cache, event["pool"])
            entry["ssd_writes"] += args.get("written", 0)
            entry["trickle_rejected_admission"] += args.get(
                "rejected_admission", 0)
        elif name == "migrate":
            source = bucket(cache, args.get("from_pool"))
            source["migrated_out"] += args.get("moved", 0)
            source["migrated_rejected"] += args.get("rejected", 0)
            bucket(cache, args.get("to_pool"))["migrated_in"] += args.get(
                "moved", 0)

    checked_fields = (
        "puts", "puts_stored", "put_rejected_policy", "put_rejected_capacity",
        "put_rejected_admission", "put_rejected_backpressure",
        "evictions", "trickle_rejected_admission", "ssd_writes",
        "migrated_in", "migrated_out", "migrated_rejected",
    )
    ledger = meta.get("ledger", {})
    for (cache, pool), entry in sorted(replayed.items()):
        recorded = ledger.get(cache, {}).get(pool)
        if recorded is None:
            problems.append(
                f"provenance events reference cache {cache!r} pool {pool} "
                f"absent from the ledger"
            )
            continue
        for field in checked_fields:
            if entry[field] != recorded.get(field, 0):
                problems.append(
                    f"cache {cache!r} pool {pool}: replayed {field} = "
                    f"{entry[field]} but the ledger records "
                    f"{recorded.get(field, 0)}"
                )
    return problems


def meta_problems(meta: Dict[str, Any]) -> List[str]:
    """One line per recorder counter the meta record lacks or garbles,
    and per name-table key that is not ``"cache_label/id"``."""
    problems = [f"meta: bad {counter} {meta.get(counter)!r}"
                for counter in _META_COUNTERS
                if not isinstance(meta.get(counter), int) or meta[counter] < 0]
    for table in _NAME_TABLES:
        names = meta.get(table, {})
        if not isinstance(names, dict):
            problems.append(f"meta: {table} is not an object")
            continue
        problems.extend(f"meta: bad {table} key {key!r}" for key in names
                        if "/" not in key
                        or not key.rsplit("/", 1)[1].isdecimal())
    return problems


def replay_skips(meta: Dict[str, Any]) -> List[str]:
    """Why :func:`validate_trace` cannot replay the provenance events of
    this trace (empty when it does): a wrapped ring lost early events,
    and sampling thins the stream."""
    skips = [f"ring dropped {meta['dropped']}"] if meta["dropped"] else []
    if meta["sample"] != 1:
        skips.append(f"sampled 1/{meta['sample']}")
    return skips


def event_problems(events: List[Dict[str, Any]]) -> List[str]:
    """One line per malformed field of any event."""
    return [problem for index, event in enumerate(events)
            for problem in _check_event(event, index)]


def validate_trace(meta: Dict[str, Any], events: List[Dict[str, Any]],
                   allow_open_spans: bool = False) -> List[str]:
    """Full trace check; returns violation strings (empty = valid)."""
    problems = meta_problems(meta)
    if problems:
        return problems  # counters unusable; further checks would lie

    if meta["open_spans"] and not allow_open_spans:
        problems.append(
            f"{meta['open_spans']} unclosed span(s): "
            f"{meta['spans_started']} begun, {meta['spans_finished']} finished "
            f"(pass --allow-open-spans for deliberately truncated runs)"
        )
    if meta["recorded"] != len(events):
        problems.append(
            f"meta says {meta['recorded']} events recorded but the log "
            f"holds {len(events)}"
        )
    problems.extend(event_problems(events))

    last_ts = None
    for index, event in enumerate(events):
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            continue  # already reported
        if event.get("ph") == "i":
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"event[{index}] ({event.get('name')}): instant events "
                    f"out of order ({ts} after {last_ts})"
                )
            last_ts = ts

    # Ledger arithmetic: the put-outcome identity per cache/pool.
    for cache, pools in sorted(meta.get("ledger", {}).items()):
        for pool, counters in sorted(pools.items()):
            label = f"cache {cache!r} pool {pool}"
            for field, value in counters.items():
                if not isinstance(value, int) or value < 0:
                    problems.append(f"{label}: bad ledger field {field}={value!r}")
            accounted = (
                counters.get("puts_stored", 0)
                + counters.get("put_rejected_policy", 0)
                + counters.get("put_rejected_capacity", 0)
                + counters.get("put_rejected_admission", 0)
                + counters.get("put_rejected_backpressure", 0)
            )
            if counters.get("puts", 0) != accounted:
                problems.append(
                    f"{label}: put ledger leaks — {counters.get('puts', 0)} "
                    f"puts but {accounted} accounted"
                )
            if counters.get("get_hits", 0) > counters.get("gets", 0):
                problems.append(
                    f"{label}: more hits ({counters.get('get_hits', 0)}) "
                    f"than gets ({counters.get('gets', 0)})"
                )

    if not replay_skips(meta):
        problems.extend(_replay_provenance(meta, events))
    return problems
