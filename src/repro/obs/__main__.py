"""``python -m repro.obs`` — trace analysis and validation CLI.

Usage::

    python -m repro.obs summarize trace_caching_modes.jsonl
    python -m repro.obs top-victims trace_caching_modes.jsonl -n 5
    python -m repro.obs latency-breakdown trace_caching_modes.jsonl --per-vm
    python -m repro.obs export trace.jsonl -o trace.perfetto.json
    python -m repro.obs validate trace.jsonl [--allow-open-spans]
    python -m repro.obs smoke

Traces come from the experiment runner::

    python -m repro.experiments caching_modes --scale 0.05 --trace
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyze import (
    MalformedTrace,
    latency_breakdown,
    load_trace,
    run_smoke,
    summarize,
    top_victims,
)
from .export import (event_problems, events_to_perfetto, meta_problems,
                     replay_skips, validate_trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze and validate repro.obs traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="event counts, span time, ledger")
    p.add_argument("trace", help="JSONL trace file")

    p = sub.add_parser("top-victims", help="eviction provenance per pool")
    p.add_argument("trace")
    p.add_argument("-n", "--limit", type=int, default=10)

    p = sub.add_parser("latency-breakdown",
                       help="per-op p50/p90/p99/p999 from the histograms")
    p.add_argument("trace")
    p.add_argument("--per-vm", action="store_true",
                   help="include per-VM and per-pool histograms")

    p = sub.add_parser("export", help="convert JSONL to Perfetto JSON")
    p.add_argument("trace")
    p.add_argument("-o", "--out", default=None,
                   help="output path (default: <trace>.perfetto.json)")

    p = sub.add_parser("validate",
                       help="schema + span-balance + ledger checks")
    p.add_argument("trace")
    p.add_argument("--allow-open-spans", action="store_true",
                   help="tolerate spans left open by a truncated run "
                        "(experiments stopped mid-flight)")

    p = sub.add_parser("smoke",
                       help="run a small traced+audited scenario and "
                            "validate it strictly")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("-q", "--quiet", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "smoke":
        return run_smoke(seed=args.seed, verbose=not args.quiet)

    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        # A missing file, bad JSON or a record that is not a trace record.
        if args.command == "validate":
            print(f"{args.trace}: INVALID")
            print(f"  - {exc}")
        else:
            print(f"{args.trace}: cannot read trace: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "summarize":
            print(summarize(trace))
            return 0
        if args.command == "top-victims":
            print(top_victims(trace, limit=args.limit))
            return 0
        if args.command == "latency-breakdown":
            print(latency_breakdown(trace, per_vm=args.per_vm))
            return 0
        if args.command == "export":
            out = Path(args.out) if args.out else Path(args.trace).with_suffix(
                ".perfetto.json")
            meta, events = trace
            problems = meta_problems(meta) + event_problems(events)
            if problems:
                raise MalformedTrace(problems)
            out.write_text(events_to_perfetto(meta, events) + "\n")
            print(f"wrote {out} ({len(events)} events)")
            return 0
    except MalformedTrace as exc:
        for problem in exc.problems:
            print(f"{args.trace}: {problem}", file=sys.stderr)
        return 1
    if args.command == "validate":
        meta, events = trace
        problems = validate_trace(
            meta, events, allow_open_spans=args.allow_open_spans)
        if problems:
            print(f"{args.trace}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        skips = replay_skips(meta)
        replay = f"; replay skipped ({', '.join(skips)})" if skips else ""
        print(f"{args.trace}: OK ({len(events)} events, "
              f"{meta['open_spans']} open spans, "
              f"{len(meta.get('ledger', {}))} cache ledgers{replay})")
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
