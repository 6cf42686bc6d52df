"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments motivation --scale 0.25
    python -m repro.experiments all --scale 0.25 --out results/
    python -m repro.experiments all --scale 0.25 --jobs 4
    python -m repro.experiments caching_modes --profile hot.pstats
    python -m repro.experiments caching_modes --trace --audit

``--trace [PREFIX]`` turns on the flight recorder for each experiment and
writes ``PREFIX_<name>.jsonl`` (lossless; ``python -m repro.obs`` reads
it, and its ``export`` subcommand renders it for Perfetto/chrome about
tracing); the run report grows a per-op latency quantile table.  Tracing
off, output is byte-identical to a build without the subsystem.

Each experiment prints the same rows/series its paper table or figure
reports (see DESIGN.md's per-experiment index).

``--jobs N`` fans independent experiments out over N worker processes.
Experiments share nothing (each builds its own simulation Environment
from ``scale``/``seed``), so results are byte-identical to a serial run;
only the wall clock changes.  Output is still printed in the canonical
experiment order regardless of which worker finishes first.

``--profile [FILE]`` wraps the run in :mod:`cProfile` and dumps a
``.pstats`` file for ``pstats``/``snakeviz``-style analysis.  Combined
with ``--jobs N`` each experiment is profiled inside its worker process
(profiling the pool's parent would only see an idle dispatcher) and one
``FILE``-derived ``<stem>.<rank>.pstats`` is written per experiment,
ranked in canonical experiment order no matter which worker finishes
first; the parent prints a combined hotspot table across all ranks.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from . import ALL_EXPERIMENTS


def _run_one(
    task: Tuple[str, float, int, bool, bool, float, Optional[str],
                Optional[str], int, int, bool, Optional[int], int]
) -> Tuple[str, str, float, Optional[str], Optional[str], Optional[bytes]]:
    """Run one experiment; module-level so multiprocessing can pickle it.

    Returns ``(name, summary, elapsed, json_text, trace_jsonl,
    profile_blob)`` — plain strings/bytes only, so the result pickles
    cheaply and the parent never needs the (large, unpicklable)
    simulation objects.  The trace field is ``None`` with tracing off,
    keeping the untraced output byte-identical whether or not this build
    knows about tracing.  ``profile_blob`` (set by the
    ``--profile --jobs N`` path) is the worker's marshalled cProfile
    stats — the exact byte format ``Profile.dump_stats`` writes, so the
    parent can persist it verbatim and ``pstats`` can load it.
    """
    (name, scale, seed, plots, want_json, audit, admission,
     trace, trace_ops, trace_sample, profile, hosts, fleet_jobs) = task
    cls = ALL_EXPERIMENTS[name]
    # Fleet-topology experiments additionally take a host count and a
    # shard-worker count; every other experiment keeps its signature.
    extra = {}
    if getattr(cls, "takes_fleet_args", False):
        extra["jobs"] = fleet_jobs
        if hosts is not None:
            extra["hosts"] = hosts
    from ..core import set_audit_interval, set_default_admission

    # Installed here (not in main) so --jobs workers inherit it too.
    set_audit_interval(audit)
    set_default_admission(admission)
    tracer = None
    if trace is not None:
        from ..obs import Tracer, set_tracer

        tracer = Tracer(max_events=trace_ops, sample=trace_sample)
        set_tracer(tracer)
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    try:
        started = time.time()  # dd-lint: disable=DD001 (host-side wall clock for the CLI's elapsed-time report, never feeds simulated state)
        if profiler is not None:
            profiler.enable()
        try:
            result = cls(scale=scale, seed=seed, **extra).run()
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.time() - started  # dd-lint: disable=DD001 (host-side wall clock for the CLI's elapsed-time report, never feeds simulated state)
    finally:
        set_audit_interval(0.0)
        set_default_admission(None)
        if tracer is not None:
            from ..obs import set_tracer

            set_tracer(None)
    trace_jsonl = None
    if tracer is not None:
        from ..obs import attach_latency_report, to_jsonl

        # Fold p50/p90/p99/p999 per op into the run report itself.
        attach_latency_report(result, tracer)
        trace_jsonl = to_jsonl(tracer)
    profile_blob = None
    if profiler is not None:
        import marshal

        profiler.create_stats()
        profile_blob = marshal.dumps(profiler.stats)
    summary = result.summary(plots=plots)
    json_text = None
    if want_json:
        from ..analysis import result_to_json

        json_text = result_to_json(result)
    return name, summary, elapsed, json_text, trace_jsonl, profile_blob


def _emit(args, name: str, summary: str, elapsed: float,
          json_text: Optional[str],
          trace_jsonl: Optional[str] = None) -> None:
    cls = ALL_EXPERIMENTS[name]
    print(f"\n### running {name} ({cls.exp_id}) at scale {args.scale} ###")
    print(summary)
    print(f"(wall time {elapsed:.1f}s)")
    if args.out is not None:
        (args.out / f"{name}.txt").write_text(summary + "\n")
        if json_text is not None:
            (args.out / f"{name}.json").write_text(json_text)
    if trace_jsonl is not None:
        # Artifacts are written by the parent in canonical experiment
        # order, so --jobs fan-out yields the same files as a serial run.
        jsonl_path = Path(f"{args.trace}_{name}.jsonl")
        jsonl_path.write_text(trace_jsonl)
        print(f"(trace written to {jsonl_path})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DoubleDecker paper's tables and figures.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment name, comma-separated names, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset/cache scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--no-plots", action="store_true",
                        help="omit ASCII occupancy plots")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write summaries into")
    parser.add_argument("--json", action="store_true",
                        help="with --out, also write machine-readable JSON")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes "
                             "(results identical to serial; default 1); "
                             "for fleet-topology experiments also the "
                             "shard-worker count per fleet")
    parser.add_argument("--hosts", type=int, default=None, metavar="N",
                        help="host count for fleet-topology experiments "
                             "(default: experiment-specific)")
    parser.add_argument("--audit", type=float, nargs="?", const=10.0,
                        default=0.0, metavar="SECONDS",
                        help="audit every cache's shadow accounting every "
                             "SECONDS simulated seconds (default 10 when "
                             "the flag is given); aborts on any invariant "
                             "violation")
    parser.add_argument("--admission", default=None, metavar="POLICY",
                        help="process-wide default SSD admission policy "
                             "(admit_all, second_access, write_throttle) "
                             "for pools that don't set their own")
    parser.add_argument("--trace", nargs="?", const="trace", default=None,
                        metavar="PREFIX",
                        help="record an operation/provenance trace per "
                             "experiment; writes PREFIX_<name>.jsonl "
                             "(PREFIX defaults to 'trace'); analyze, or "
                             "export for Perfetto, with python -m repro.obs")
    parser.add_argument("--trace-ops", type=int, default=200_000, metavar="N",
                        help="flight-recorder capacity: keep the newest N "
                             "events (default 200000)")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="K",
                        help="record every Kth span per span type; "
                             "histograms and provenance still see every op "
                             "(default 1 = record all)")
    parser.add_argument("--profile", nargs="?", const="profile.pstats",
                        default=None, metavar="FILE",
                        help="profile the run with cProfile and dump "
                             "pstats to FILE (default profile.pstats); "
                             "with --jobs N each experiment is profiled "
                             "in its worker and written as "
                             "<stem>.<rank>.pstats in canonical order")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print("available experiments:")
        for name, cls in ALL_EXPERIMENTS.items():
            print(f"  {name:20s} {cls.exp_id:18s} {cls.description.strip()[:60]}")
        return 0

    if args.experiment == "all":
        names = list(ALL_EXPERIMENTS)
    else:
        names = [part.strip() for part in args.experiment.split(",") if part.strip()]
        if not names:
            print(f"empty experiment list {args.experiment!r}; use --list",
                  file=sys.stderr)
            return 2
        unknown = [name for name in names if name not in ALL_EXPERIMENTS]
        if unknown:
            print(f"unknown experiment {', '.join(map(repr, unknown))}; use --list",
                  file=sys.stderr)
            return 2

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.hosts is not None and not any(
        getattr(ALL_EXPERIMENTS[name], "takes_fleet_args", False)
        for name in names
    ):
        print("--hosts only applies to fleet-topology experiments "
              "(e.g. 'fleet')", file=sys.stderr)
        return 2

    if args.audit < 0:
        print(f"--audit must be >= 0, got {args.audit}", file=sys.stderr)
        return 2

    if args.admission is not None:
        from ..core import ADMISSION_POLICIES

        if args.admission not in ADMISSION_POLICIES:
            print(f"unknown admission policy {args.admission!r}; choose from "
                  f"{', '.join(ADMISSION_POLICIES)}", file=sys.stderr)
            return 2

    if args.trace_ops < 1:
        print(f"--trace-ops must be >= 1, got {args.trace_ops}", file=sys.stderr)
        return 2
    if args.trace_sample < 1:
        print(f"--trace-sample must be >= 1, got {args.trace_sample}",
              file=sys.stderr)
        return 2

    # Under --jobs, profiling must happen inside the workers (profiling
    # the pool's parent would only see an idle dispatcher), so the flag
    # rides along in the task tuple.
    fan_out = args.jobs > 1 and len(names) > 1
    profile_in_worker = args.profile is not None and fan_out
    tasks = [(name, args.scale, args.seed, not args.no_plots, args.json,
              args.audit, args.admission,
              args.trace, args.trace_ops, args.trace_sample,
              profile_in_worker, args.hosts, args.jobs)
             for name in names]

    if args.profile is not None and not fan_out:
        # Serial run: one profiler around everything, one pstats file.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            for task in tasks:
                _emit(args, *_run_one(task)[:5])
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"\nprofile written to {args.profile}; top hotspots:")
        stats.print_stats(10)
        return 0

    if fan_out:
        import multiprocessing as mp

        profile_paths = []
        base = Path(args.profile) if profile_in_worker else None
        # imap preserves submission order, so output — and the profile
        # rank numbering — stays deterministic no matter which worker
        # finishes first.
        with mp.Pool(processes=min(args.jobs, len(tasks))) as pool:
            for rank, outcome in enumerate(pool.imap(_run_one, tasks)):
                _emit(args, *outcome[:5])
                if base is not None:
                    suffix = base.suffix or ".pstats"
                    path = base.with_name(f"{base.stem}.{rank}{suffix}")
                    # The blob is marshalled cProfile stats — identical
                    # bytes to Profile.dump_stats, loadable by pstats.
                    path.write_bytes(outcome[5])
                    profile_paths.append(path)
                    print(f"(profile written to {path})")
        if profile_paths:
            import pstats

            stats = pstats.Stats(str(profile_paths[0]))
            for path in profile_paths[1:]:
                stats.add(str(path))
            stats.sort_stats("cumulative")
            print(f"\ncombined hotspots across {len(profile_paths)} workers:")
            stats.print_stats(10)
    else:
        for task in tasks:
            _emit(args, *_run_one(task)[:5])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
