"""The flight recorder: spans, provenance events, and latency histograms.

One process-wide :class:`Tracer` (installed with :func:`set_tracer`, the
same global-switch pattern as ``set_audit_interval``; the experiments'
cell pool runs in-process while one is installed) collects three kinds of telemetry from the instrumented cache
path:

* **spans** — timed sections of the op path (``op.get`` at the cleancache
  client, ``cache.put`` in the manager, ``hypercall.data``, ``dev.read``
  on a device).  Spans are recorded *at completion* with their start time
  and duration; a begin/finish pair of counters detects spans that never
  completed (a generator abandoned mid-flight), which the validator
  reports as unclosed.
* **instant events** — decision provenance: every eviction round with its
  Algorithm-1 exceed values, every put-outcome breakdown, trickle-downs,
  migrations, and control-path changes (pool/VM lifecycle, policy sets).
* **latency histograms** — log-bucketed per op type, per VM, and per
  pool, owned by the tracer, so run reports (``attach_latency_report``)
  print p50/p90/p99/p999 without touching the event buffer.

Events live in a bounded ring buffer (the "flight recorder"): the newest
``max_events`` events survive, and the ``dropped`` counter says how many
were pushed out.  The meta record's provenance *ledger* — each observed
pool's own outcome counters (``PoolStats``), keyed by a unique per-cache
label and read when the trace is written — lives outside the ring, so it
stays exact even when the buffer wraps.

Instrumentation contract: every call site guards with ``if tracer is not
None`` on the module global ``ACTIVE``; with tracing disabled the entire
subsystem costs one attribute read and one branch per *batch* operation
(never per block), which the end-to-end bench bounds at <= 1.02x.

One recorder serves both time bases.  Built without a ``clock`` it keeps
simulated seconds and every caller passes its own timestamps; built with
one (``Tracer(clock=time.monotonic_ns)``, the live service) its unit is
integer nanoseconds, its meta record says so, and :meth:`Tracer.span`
times ``with`` blocks on that clock.  :func:`time_scale_us` is the only
place the unit is decoded.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..metrics.timeseries import Histogram

__all__ = ["Tracer", "LiveSpan", "ACTIVE", "set_tracer", "time_scale_us",
           "latency_rows", "LEDGER_FIELDS",
           "QUANTILE_LABELS"]

#: The ``PoolStats`` counters the meta record's ledger carries per pool.
LEDGER_FIELDS = (
    "gets", "get_hits",
    "puts", "puts_stored",
    "put_rejected_policy", "put_rejected_capacity",
    "put_rejected_admission", "put_rejected_backpressure",
    "flush_requests", "flushes",
    "evictions", "trickle_rejected_admission", "ssd_writes",
    "migrated_in", "migrated_out", "migrated_rejected",
)

#: The quantiles every latency report shows, with their column labels.
QUANTILE_LABELS = (
    (0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999"),
)


def time_scale_us(meta: Dict[str, Any]) -> float:
    """Multiplier from a trace's native time unit to microseconds.

    Simulated traces record seconds and declare nothing; clocked traces
    declare ``"time_unit": "ns"`` in their meta record.  The exporter,
    the analyzers and :meth:`Tracer.latency_rows` all scale through this.
    """
    return 1e-3 if meta.get("time_unit") == "ns" else 1e6


def latency_rows(histograms: Dict[str, Histogram], meta: Dict[str, Any],
                 detail: bool = True) -> List[List[object]]:
    """Tabulated latencies in milliseconds: one row per histogram.

    Rows: ``[name, count, mean, p50, p90, p99, p999]``, scaled from the
    unit ``meta`` declares; coarser aggregates sort first so the per-op
    summary leads the report, and ``detail=False`` keeps only those (no
    per-VM/per-pool rows).
    """
    ms_per_unit = time_scale_us(meta) / 1e3
    rows: List[List[object]] = []
    for name in sorted(histograms, key=lambda n: (n.count("."), n)):
        if not detail and ".vm" in name:
            continue
        hist = histograms[name]
        if not hist.count:
            continue
        rows.append(
            [name, hist.count, hist.mean * ms_per_unit]
            + [hist.quantile(q) * ms_per_unit for q, _ in QUANTILE_LABELS]
        )
    return rows


class LiveSpan:
    """One in-flight span on the tracer's clock, closed by ``with`` exit.

    Unlike the simulator's generator-driven spans (begin/end around a
    ``yield``), live spans bracket ``await``-ful request handling, so
    the context-manager shape guarantees the close even on exceptions —
    the validator's span-balance check stays strict for live traces.
    """

    __slots__ = ("_tracer", "name", "vm", "pool", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 vm: Optional[int] = None, pool: Optional[int] = None,
                 **args: Any) -> None:
        self._tracer = tracer
        self.name = name
        self.vm = vm
        self.pool = pool
        self.args = args
        self._t0 = 0

    def note(self, **args: Any) -> None:
        """Attach arguments discovered mid-span (hit/miss, status, ...)."""
        self.args.update(args)

    def __enter__(self) -> "LiveSpan":
        self._tracer.span_begin()
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.span_end(
            self.name, self._t0, self._tracer.clock(),
            vm=self.vm, pool=self.pool, **self.args)


class Tracer:
    """Ring-buffered flight recorder."""

    def __init__(self, max_events: int = 200_000, sample: int = 1,
                 clock: Optional[Callable[[], int]] = None) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.max_events = max_events
        self.sample = sample
        #: ``None``: simulated seconds, timestamps come from the callers.
        #: Else monotonic integer nanoseconds — the only source of live
        #: timestamps, so instants stay ordered for the validator.
        self.clock = clock
        self.events: Deque[Dict[str, Any]] = deque(maxlen=max_events)
        #: Events pushed out of the ring by newer ones.
        self.dropped = 0
        #: Span events skipped by ``--trace-sample`` (still counted and
        #: still feeding histograms; only the ring entry is elided).
        self.sampled_out = 0
        self.spans_started = 0
        self.spans_finished = 0
        self._span_seq: Dict[str, int] = {}
        #: op -> vm -> pool latency histograms, flat by metric name.
        self._histograms: Dict[str, Histogram] = {}
        #: (cache label, pool id) -> the observed ``Pool``, destroyed or
        #: not: its name and counters go into the meta record.
        self.pools: Dict[Tuple[str, int], Any] = {}
        #: (cache label, vm id) -> VM name, from vm.register events.
        self.vm_names: Dict[Tuple[str, int], str] = {}
        self._cache_counts: Dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    def register_cache(self, name: str) -> str:
        """Assign a unique label to one cache instance.

        Experiments build several caches (one per mode) whose pool ids
        restart at 1; the label keys the ledger so their provenance never
        mixes.
        """
        count = self._cache_counts.get(name, 0)
        self._cache_counts[name] = count + 1
        return name if count == 0 else f"{name}#{count + 1}"

    # -- spans ----------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but never finished (in flight or abandoned)."""
        return self.spans_started - self.spans_finished

    def span_begin(self) -> None:
        """Mark a span as in flight (finished by a ``span_end``/``op_span``)."""
        self.spans_started += 1

    def span(self, name: str, vm: Optional[int] = None,
             pool: Optional[int] = None, **args: Any) -> LiveSpan:
        """A context-managed span timed on :attr:`clock` (clocked tracers
        only)."""
        return LiveSpan(self, name, vm=vm, pool=pool, **args)

    def span_end(self, name: str, t0: float, t1: float,
                 vm: Optional[int] = None, pool: Optional[int] = None,
                 **args) -> None:
        """Close a span and (subject to sampling) record it."""
        self.spans_finished += 1
        seq = self._span_seq.get(name, 0)
        self._span_seq[name] = seq + 1
        if seq % self.sample:
            self.sampled_out += 1
            return
        self._append({
            "ph": "X", "name": name, "ts": t0, "dur": t1 - t0,
            "vm": vm, "pool": pool, "args": args,
        })

    def op_span(self, op: str, vm: int, pool: int, t0: float, t1: float,
                **args) -> None:
        """Close a client-level op span and feed the latency histograms.

        Histograms see *every* op regardless of ``sample`` — they are the
        cheap aggregate; sampling only thins the ring buffer.
        """
        duration = t1 - t0
        self.observe_latency(op, vm, pool, duration)
        self.span_end(f"op.{op}", t0, t1, vm=vm, pool=pool, **args)

    # -- latency histograms ---------------------------------------------

    def histogram(self, name: str) -> Histogram:
        """The tracer-owned histogram ``name`` (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def observe_latency(self, op: str, vm: int, pool: int,
                        duration: float) -> None:
        """Record one op latency at all three aggregation levels."""
        self.histogram(f"obs.lat.{op}").add(duration)
        self.histogram(f"obs.lat.{op}.vm{vm}").add(duration)
        self.histogram(f"obs.lat.{op}.vm{vm}.pool{pool}").add(duration)

    def latency_rows(self, per_pool: bool = True) -> List[List[object]]:
        """:func:`latency_rows` of this tracer's histograms."""
        return latency_rows(self._histograms, self._unit(), per_pool)

    # -- instant events -------------------------------------------------

    def instant(self, name: str, ts: float, vm: Optional[int] = None,
                pool: Optional[int] = None, **args) -> None:
        """Record a provenance event (never sampled out)."""
        self._append({
            "ph": "i", "name": name, "ts": ts,
            "vm": vm, "pool": pool, "args": args,
        })

    def note_pool(self, cache: str, pool) -> None:
        self.pools[(cache, pool.pool_id)] = pool

    def note_vm(self, cache: str, vm: int, name: str) -> None:
        self.vm_names[(cache, vm)] = name

    # -- internals ------------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        if len(self.events) == self.max_events:
            self.dropped += 1
        self.events.append(event)

    # -- snapshots ------------------------------------------------------

    def _unit(self) -> Dict[str, str]:
        """The meta keys that declare the time unit (none for seconds, so
        simulated traces stay byte-identical)."""
        return {} if self.clock is None else {"time_unit": "ns"}

    def _ledger(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """cache label -> pool id -> the pool's :data:`LEDGER_FIELDS`."""
        ledger: Dict[str, Dict[str, Dict[str, int]]] = {}
        for (cache, pool_id), pool in self.pools.items():
            stats = pool.stats
            ledger.setdefault(cache, {})[str(pool_id)] = {
                field: getattr(stats, field) for field in LEDGER_FIELDS}
        return ledger

    def meta(self) -> Dict[str, Any]:
        """Everything the exporters/validators need beyond the events."""
        return {
            **self._unit(),
            "max_events": self.max_events,
            "sample": self.sample,
            "recorded": len(self.events),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "spans_started": self.spans_started,
            "spans_finished": self.spans_finished,
            "open_spans": self.open_spans,
            "ledger": self._ledger(),
            "pool_names": {
                f"{cache}/{pool_id}": pool.name
                for (cache, pool_id), pool in self.pools.items()
            },
            "vm_names": {
                f"{cache}/{vm}": name
                for (cache, vm), name in self.vm_names.items()
            },
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }


#: The active tracer; ``None`` keeps every instrumented site a no-op.
ACTIVE: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or with ``None`` remove) the process-wide tracer.

    Only affects instrumentation sites from this point on; like
    ``set_audit_interval``, callers are expected to install it before
    building the simulation they want observed.
    """
    global ACTIVE
    ACTIVE = tracer
