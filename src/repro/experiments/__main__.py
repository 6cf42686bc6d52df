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

``--jobs N`` is the core budget of the one cell pool
(:func:`repro.experiments.runner.iter_cells`): every requested
experiment's independent simulations go into it, each in a forked
worker, over ``min(N, CPUs, cells)`` cores (N defaults to the CPUs this
process may use).  N below the CPU count is a hard cap on live workers.
On every CPU, the cells left over after the last full round start
beside it and share the cores, so at most ``2 * cores - 1`` are in
flight (memory scales with that); equal cells finish sooner, while one
cell more than twice as long as two others on two cores can finish
later (``L + s/2`` instead of ``L``).  A cell builds its own simulation from
``scale``/``seed`` and shares nothing, so results are byte-identical to
``--jobs 1`` (everything in this process); only the wall clock changes.
Output is printed in the order the experiments were named, each as soon
as its cells are done.

``--profile [FILE]`` wraps the run in :mod:`cProfile` and dumps a
``.pstats`` file for ``pstats``/``snakeviz``-style analysis.  A profiled
or traced run stays in this process whatever ``--jobs`` says — the
profiler and the tracer only see the process they live in — and writes
one pstats file, and one JSONL per experiment.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .._cli import bounded
from . import ALL_EXPERIMENTS
from .runner import Experiment, ExperimentResult, iter_cells


def _results(experiments: List[Experiment], args
             ) -> Iterator[Tuple[ExperimentResult, Optional[str]]]:
    """``(result, trace JSONL or None)`` per experiment, in order, each
    as soon as it is complete."""
    if args.trace is None:
        grids = [experiment.cells() for experiment in experiments]
        outcomes = iter_cells(
            lambda experiment, cell: experiment.simulate(*cell),
            [(experiment, cell) for experiment, grid in zip(experiments, grids)
             for cell in grid],
            args.jobs)
        for experiment, grid in zip(experiments, grids):
            yield experiment.report([next(outcomes) for _ in grid]), None
        return
    from ..obs import Tracer, attach_latency_report, set_tracer, to_jsonl

    for experiment in experiments:
        tracer = Tracer(max_events=args.trace_ops, sample=args.trace_sample)
        set_tracer(tracer)
        try:
            result = experiment.run()
        finally:
            set_tracer(None)
        # Fold p50/p90/p99/p999 per op into the run report itself.
        attach_latency_report(result, tracer)
        yield result, to_jsonl(tracer)


def _emit(args, name: str, result: ExperimentResult,
          trace_jsonl: Optional[str]) -> None:
    cls = ALL_EXPERIMENTS[name]
    print(f"\n### running {name} ({cls.exp_id}) at scale {args.scale} ###")
    summary = result.summary(plots=not args.no_plots)
    print(summary, flush=True)
    if args.out is not None:
        (args.out / f"{name}.txt").write_text(summary + "\n")
        if args.json:
            from ..analysis import result_to_json

            (args.out / f"{name}.json").write_text(result_to_json(result))
    if trace_jsonl is not None:
        jsonl_path = Path(f"{args.trace}_{name}.jsonl")
        jsonl_path.write_text(trace_jsonl)
        print(f"(trace written to {jsonl_path})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DoubleDecker paper's tables and figures.",
        exit_on_error=False,
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment name, comma-separated names, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--scale", type=bounded(float, 0, strict=True),
                        default=1.0,
                        help="dataset/cache scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--no-plots", action="store_true",
                        help="omit ASCII occupancy plots")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write summaries into")
    parser.add_argument("--json", action="store_true",
                        help="with --out, also write machine-readable JSON")
    parser.add_argument("--jobs", type=bounded(int, 1), default=None,
                        metavar="N",
                        help="run the simulations on N cores, each in a "
                             "forked worker (default and ceiling: the CPU "
                             "count; below it, at most N processes; on "
                             "every CPU a grid's leftover cells share the "
                             "cores with its last full round, at most "
                             "2N-1 at a time; 1 keeps everything in this "
                             "process; results are identical either way)")
    parser.add_argument("--audit", type=bounded(float, 0), nargs="?",
                        const=10.0,
                        default=0.0, metavar="SECONDS",
                        help="audit every cache's shadow accounting every "
                             "SECONDS simulated seconds (default 10 when "
                             "the flag is given); aborts on any invariant "
                             "violation")
    parser.add_argument("--trace", nargs="?", const="trace", default=None,
                        metavar="PREFIX",
                        help="record an operation/provenance trace per "
                             "experiment; writes PREFIX_<name>.jsonl "
                             "(PREFIX defaults to 'trace'); analyze, or "
                             "export for Perfetto, with python -m repro.obs")
    parser.add_argument("--trace-ops", type=bounded(int, 1), default=200_000,
                        metavar="N",
                        help="flight-recorder capacity: keep the newest N "
                             "events (default 200000)")
    parser.add_argument("--trace-sample", type=bounded(int, 1), default=1,
                        metavar="K",
                        help="record every Kth span per span type; "
                             "histograms and provenance still see every op "
                             "(default 1 = record all)")
    parser.add_argument("--profile", nargs="?", const="profile.pstats",
                        default=None, metavar="FILE",
                        help="profile the run with cProfile and dump "
                             "pstats to FILE (default profile.pstats); "
                             "a profiled run stays in this process")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as error:
        print(f"{error.argument_name} {error.message}", file=sys.stderr)
        return 2

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

    if args.json and args.out is None:
        print("--json needs --out DIR to write into", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    experiments = [ALL_EXPERIMENTS[name](scale=args.scale, seed=args.seed)
                   for name in names]

    from ..core import set_audit_interval

    # Process-wide switch: forked workers inherit it.
    set_audit_interval(args.audit)
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    started = time.time()
    try:
        for name, outcome in zip(names, _results(experiments, args)):
            _emit(args, name, *outcome)
    finally:
        set_audit_interval(0.0)
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
    elapsed = time.time() - started
    print(f"\n(wall time {elapsed:.1f}s)")
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"\nprofile written to {args.profile}; top hotspots:")
        stats.print_stats(10)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
