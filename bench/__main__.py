"""``python3 -m bench {one,run,compare}`` (see bench/README.md).

``one``      one workload, one run; the last stdout line is the JSON
             result ``BENCHMARK.json``'s driver reads.
``run``      all six workloads, untraced then traced, each in a child
             process; prints every metric and writes one JSON document.
``compare``  two ``run`` documents, one row per workload x metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import List, Optional

from .metrics import WORKLOADS
from .procs import ROOT, SRC, child_env

FLUSH_POLICY = "fsync off (--no-fsync / sync_writes=False); reads from page cache"


def provenance(seed: int, seconds: float) -> dict:
    """Where and how a document was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "seed": seed,
            "seconds": seconds, "flush_policy": FLUSH_POLICY,
            "unix_time": int(time.time())}


def print_metrics(doc: dict, out=sys.stdout) -> None:
    """Every metric of one workload section by name, with its unit."""
    name = doc["workload"]
    for metric, entry in doc.get("end_to_end", {}).items():
        flag = "  UNSTABLE" if entry["unstable"] else ""
        print(f"{name} {metric} {_fmt(entry['value'])} {entry['unit']} "
              f"(spread {_fmt(entry['spread'])}){flag}", file=out)
    for metric, entry in doc.get("per_layer", {}).items():
        print(f"{name} {metric} {_fmt(entry['value'])} {entry['unit']}",
              file=out)
    print(f"{name} fail_ratio {doc['fail_ratio']:.6g} ratio "
          f"({doc['failed']}/{doc['attempted']} {doc['failures']})", file=out)
    if doc.get("missing_probes"):
        print(f"{name} missing_probes {doc['missing_probes']}", file=out)
    if "fingerprint_sha256" in doc:
        print(f"{name} fingerprint_sha256 {doc['fingerprint_sha256']}",
              file=out)


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def cmd_one(args: argparse.Namespace) -> int:
    from .workloads import contract_metrics, run_one

    doc = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                  quick=args.quick)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
    print_metrics(doc)
    print(json.dumps({
        "correct": doc["failed"] == 0, "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": contract_metrics(doc)}))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    seconds = 0.3 if args.quick else args.seconds
    document = {"provenance": provenance(args.seed, seconds),
                "workloads": {}}
    failed = False
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for workload in args.workloads or list(WORKLOADS):
        section: dict = {}
        for trace in (0, 1):
            part = scratch / f"{workload}.trace{trace}.{os.getpid()}.json"
            argv = [sys.executable, "-m", "bench", "one",
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(part)] + (["--quick"] if args.quick else [])
            done = subprocess.run(argv, cwd=str(ROOT), env=child_env(),
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit code "
                      f"{done.returncode}", file=sys.stderr)
                failed = True
                continue
            with open(part) as handle:
                doc = json.load(handle)
            part.unlink()
            print_metrics(doc)
            failed = failed or doc["failed"] > 0
            key = "traced" if trace else "untraced"
            section[key] = {k: doc[k] for k in (
                "attempted", "failed", "failures", "fail_ratio", "details")}
            for k in ("end_to_end", "per_layer", "missing_probes",
                      "layer_s", "profiled_s", "sizes",
                      "fingerprint_sha256"):
                if k in doc:
                    section[k] = doc[k]
        document["workloads"][workload] = section
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from . import compare

    return compare.main(args.base, args.change)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("one", help="one workload, one run")
    one.add_argument("--workload", required=True, choices=list(WORKLOADS))
    one.add_argument("--seed", type=int, default=42)
    one.add_argument("--seconds", type=float, default=8.0)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--out", help="also write the full section here")
    one.add_argument("--quick", action="store_true",
                     help="smoke mode: small sizes, one repetition")
    one.set_defaults(func=cmd_one)

    run = commands.add_parser("run", help="all workloads, timed + traced")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=15.0,
                     help="timed seconds per workload (3 repetitions)")
    run.add_argument("--quick", action="store_true",
                     help="tiny op counts: a smoke test, not a measurement")
    run.add_argument("--out", help="write the JSON document here")
    run.add_argument("workloads", nargs="*",
                     help="subset to run (default: all six)")
    run.set_defaults(func=cmd_run)

    compare = commands.add_parser("compare", help="compare two documents")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    unknown = set(getattr(args, "workloads", None) or ()) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    if args.command != "compare" and not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
