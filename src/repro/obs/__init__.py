"""Observability for the DoubleDecker cache path.

End-to-end operation tracing (spans + a ring-buffer flight recorder),
log-bucketed latency histograms, and a decision-provenance event stream
covering evictions, admission rejections, trickle-downs, and migrations.
Disabled (the default) it costs one module-global read and branch per
batch op; enabled via the experiment CLI's ``--trace`` flag or
:func:`set_tracer`.  Analyze traces with ``python -m repro.obs``.
"""

from .._lazy import lazy_exports
from .tracer import (
    LEDGER_FIELDS,
    QUANTILE_LABELS,
    Tracer,
    set_tracer,
)

#: Public name -> the module that defines it, imported on first use: a
#: simulation records through the tracer and needs neither the exporters
#: nor the live-service telemetry (which pulls in asyncio and ssl).
_EXPORTS = {
    "events_to_perfetto": ".export",
    "parse_jsonl": ".export",
    "to_jsonl": ".export",
    "validate_trace": ".export",
    "OpsLogger": ".live",
    "TelemetrySidecar": ".live",
    "bind_store_probe": ".live",
}

__all__ = sorted([*_EXPORTS, "LEDGER_FIELDS", "QUANTILE_LABELS", "Tracer",
                  "attach_latency_report", "set_tracer"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


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
