"""Observability for the DoubleDecker cache path.

End-to-end operation tracing (spans + a ring-buffer flight recorder),
log-bucketed latency histograms, and a decision-provenance event stream
covering evictions, admission rejections, trickle-downs, and migrations.
Disabled (the default) it costs one module-global read and branch per
batch op; enabled via the experiment CLI's ``--trace`` flag or
:func:`set_tracer`.  Analyze traces with ``python -m repro.obs``.
"""

from .export import (
    events_to_perfetto,
    parse_jsonl,
    to_jsonl,
    validate_trace,
)
from .live import OpsLogger, TelemetrySidecar, bind_store_probe
from .tracer import (
    LEDGER_FIELDS,
    QUANTILE_LABELS,
    Tracer,
    ledger_violations,
    set_tracer,
)

__all__ = [
    "LEDGER_FIELDS",
    "QUANTILE_LABELS",
    "OpsLogger",
    "TelemetrySidecar",
    "Tracer",
    "attach_latency_report",
    "bind_store_probe",
    "events_to_perfetto",
    "ledger_violations",
    "parse_jsonl",
    "set_tracer",
    "to_jsonl",
    "validate_trace",
]


def attach_latency_report(result, tracer: Tracer, per_pool: bool = False) -> None:
    """Add the tracer's per-op latency table to an experiment result.

    Called by the experiment runner when tracing is on, so run reports
    carry p50/p90/p99/p999 per op type next to the paper's tables.
    """
    rows = tracer.latency_rows(per_pool=per_pool)
    if not rows:
        return
    result.add_table(
        "op latency (ms)",
        ["op", "count", "mean"] + [label for _, label in QUANTILE_LABELS],
        rows,
    )
