"""Child-process launcher: runs a real entry point, optionally under
``cProfile``, without touching the program.

``python -m bench.launch service [--profile OUT] -- <repro.service args>``
    calls ``repro.service.__main__.main`` exactly as ``python -m
    repro.service`` would.  With ``--profile`` the profiler is switched
    on by SIGUSR1 and off (and dumped to OUT) by SIGUSR2, so the load
    generator can bracket the timed phase from outside and start-up and
    preload stay out of the layer table.

``python -m bench.launch worker SPEC.json``
    runs an in-process workload (``bench.direct`` / ``bench.sim``) in a
    process of its own and prints its result as one JSON line.
"""

from __future__ import annotations

import cProfile
import json
import os
import signal
import sys
from typing import Optional


class PhaseProfiler:
    """``with PhaseProfiler(path):`` profiles the block and dumps pstats
    to ``path``; with ``path=None`` it does nothing."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self.profile = cProfile.Profile() if path else None

    def __enter__(self) -> "PhaseProfiler":
        if self.profile is not None:
            self.profile.enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.profile is not None:
            self.profile.disable()
            dump_atomically(self.profile, self.path)


def dump_atomically(profile: cProfile.Profile, path: str) -> None:
    """Write-then-rename, so a waiting reader never sees half a file."""
    profile.dump_stats(path + ".tmp")
    os.replace(path + ".tmp", path)


def run_service(argv: list, profile_path: Optional[str]) -> int:
    from repro.service.__main__ import main as service_main

    if profile_path:
        profile = cProfile.Profile()

        def switch_on(signum: int, frame: object) -> None:
            profile.enable()

        def switch_off(signum: int, frame: object) -> None:
            profile.disable()
            dump_atomically(profile, profile_path)

        signal.signal(signal.SIGUSR1, switch_on)
        signal.signal(signal.SIGUSR2, switch_off)
    return service_main(argv)


def run_worker(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    if spec["kind"] == "direct":
        from .direct import run
    elif spec["kind"] == "sim":
        from .sim import run
    else:
        raise SystemExit(f"unknown worker kind {spec['kind']!r}")
    print(json.dumps(run(spec)), flush=True)
    return 0


def main(argv: Optional[list] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["worker"] and len(args) == 2:
        return run_worker(args[1])
    if args[:1] == ["service"] and "--" in args:
        split = args.index("--")
        head = args[1:split]
        profile_path = None
        if head[:1] == ["--profile"] and len(head) == 2:
            profile_path = head[1]
        elif head:
            raise SystemExit(f"bad launcher arguments: {head}")
        return run_service(args[split + 1:], profile_path)
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main())
