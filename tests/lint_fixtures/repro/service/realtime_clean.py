"""Allowlist fixture: wall-clock reads are *correct* in ``repro/service/``
modules, which live on real time and real sockets.

Every construct below fires DD001 elsewhere in ``repro/`` (see
``dd001_wall_clock.py``); here the ``REALTIME_MODULES`` allowlist must
keep the file clean.
"""

import time


def measure_latency() -> int:
    started = time.perf_counter_ns()   # allowed: real service latency
    _ = time.monotonic()               # allowed: admission clock
    return time.perf_counter_ns() - started
