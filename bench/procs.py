"""Child processes: the server under test and the in-process workers.

Each repetition runs the program in a process of its own, so
``peak_rss_mb`` is that process's high-water mark (from ``wait4``) and
no warm state leaks between repetitions.
"""

from __future__ import annotations

import array
import fcntl
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

from .calibrate import Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{ROOT}"
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A spawned process whose rusage is collected when it ends."""

    def __init__(self, argv: List[str], stderr_path: str) -> None:
        self._stderr = open(stderr_path, "ab")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=self._stderr)
        self.peak_rss_mb: Optional[float] = None
        self.cpu_s: Optional[float] = None

    def cpu_seconds(self) -> float:
        """User+system CPU of the live child, from ``/proc`` (10 ms
        resolution)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def try_reap(self) -> bool:
        """Collect the child if it has ended; True once it has."""
        if self.proc.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if not pid:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self._stderr.close()
        return True

    def reap(self, timeout: float = 60.0,
             while_waiting: Callable[[], None] = lambda: time.sleep(0.002),
             ) -> int:
        """Wait for the child (killing it after ``timeout``), record its
        rusage, and return its exit code."""
        deadline = time.monotonic() + timeout
        while not self.try_reap():
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            while_waiting()
        return self.proc.returncode


class Server(Child):
    """``python -m repro.service`` on a free port, fsync off.

    ``profile_path`` swaps in the profiling launcher (same ``main``);
    ``telemetry`` adds ``--trace`` and ``--metrics-port`` for the
    observability-overhead measurement.
    """

    def __init__(self, workdir: str, capacity_mb: float,
                 profile_path: Optional[str] = None,
                 telemetry: bool = False) -> None:
        self.profile_path = profile_path
        if profile_path:
            argv = [sys.executable, "-m", "bench.launch", "service",
                    "--profile", profile_path, "--"]
        else:
            argv = [sys.executable, "-m", "repro.service"]
        argv += ["--port", "0", "--dir", os.path.join(workdir, "store"),
                 "--capacity-mb", str(capacity_mb), "--no-fsync",
                 "--ops-log", os.path.join(workdir, "ops.log")]
        if telemetry:
            argv += ["--trace", os.path.join(workdir, "trace.jsonl"),
                     "--metrics-port", "0"]
        super().__init__(argv, os.path.join(workdir, "server.stderr"))
        self.port = self._announced_port()
        self.metrics_port = self._announced_port() if telemetry else None

    def _announced_port(self) -> int:
        """Parse ``... listening on host:port (...)`` /
        ``... metrics on http://host:port/metrics``."""
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if not line:
            self.stop()
            raise RuntimeError(
                f"server exited during start-up (code {self.proc.returncode})")
        match = re.search(r"127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return int(match.group(1))

    def profile_on(self) -> None:
        os.kill(self.proc.pid, signal.SIGUSR1)

    def profile_off(self, timeout: float = 30.0) -> None:
        os.kill(self.proc.pid, signal.SIGUSR2)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.profile_path):
            if time.monotonic() > deadline:
                raise RuntimeError("server never dumped its profile")
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM is the service's graceful shutdown."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGTERM)
        code = self.reap()
        self.proc.stdout.close()
        return code


def run_worker(spec: dict, workdir: str) -> dict:
    """Run ``bench.launch worker`` on ``spec``, sampling the calibration
    kernel while it runs.  Returns the worker's JSON result plus
    ``peak_rss_mb``, ``cpu_s``, ``spawned`` (monotonic) and the
    ``sampler``."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    stderr_path = os.path.join(workdir, "worker.stderr")
    child = Child([sys.executable, "-m", "bench.launch", "worker", spec_path],
                  stderr_path)
    sampler = Sampler()
    # The result is one short line, far below the pipe's capacity, so
    # the worker never blocks on a parent that reads only at the end.
    code = child.reap(timeout=170.0, while_waiting=sampler.poll)
    output = child.proc.stdout.read().decode("utf-8", "replace")
    child.proc.stdout.close()
    if code != 0:
        with open(stderr_path) as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"worker exited with code {code}:\n{tail}")
    result = json.loads(output.strip().splitlines()[-1])
    result.update(peak_rss_mb=child.peak_rss_mb, cpu_s=child.cpu_s,
                  spawned=child.spawned, sampler=sampler)
    return result


def disk_usage(store_dir: str) -> dict:
    """Bytes the store occupies, seen from outside: ``allocated`` counts
    filesystem blocks (a 1 KiB blob costs a whole block), ``logical``
    sums file sizes, ``wal`` is SQLite's write-ahead log."""
    allocated = logical = wal = 0
    for folder, _, names in os.walk(store_dir):
        for name in names:
            info = os.stat(os.path.join(folder, name))
            allocated += info.st_blocks * 512
            logical += info.st_size
            if name.endswith("-wal"):
                wal += info.st_size
    return {"allocated": allocated, "logical": logical, "wal": wal}


_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS = 0x80086601, 0x40086602
_FS_TOPDIR_FL = 0x00020000


def spread_subdirectories(directory: str) -> bool:
    """Mark ``directory`` as a top of hierarchy (``chattr +T``), so ext4
    places each subdirectory created in it in a block group of its own.

    Why: this sandbox's root filesystem is ext4 without a journal, and
    there ``ext4_new_inode`` skips, one by one, every inode of the group
    that was deleted in the last 5-35 s.  A repetition's clean-up (a few
    thousand unlinks) therefore made file creation in the *next*
    repetition's store cost 260-450 us instead of 90 us, for as long as
    repetitions followed each other.  With each repetition's directory
    in a different block group only the repetition's own deletes count,
    and those repeat exactly.  Best effort: on a filesystem without the
    flag the call fails and nothing changes.
    """
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = array.array("L", [0])
        fcntl.ioctl(fd, _FS_IOC_GETFLAGS, flags, True)
        flags[0] |= _FS_TOPDIR_FL
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, flags, True)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)
