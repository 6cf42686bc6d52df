"""Experiment scaffolding: the cell pool, results containers and the
occupancy sampler.

Every table and figure is a grid of independent seeded simulations
("cells").  :func:`run_cells` is the one place they fan out over the
machine's cores; everything above it (``Experiment.run``, the CLI's
``--jobs``) only decides which cells go in.
"""

from __future__ import annotations

import abc
import math
import os
import pickle
import select
import signal
import sys
import threading
import traceback
from dataclasses import dataclass, field
from itertools import islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..context import SimContext
from ..metrics import TimeSeries, ascii_plot, format_table
from ..obs import tracer as _obs

__all__ = ["Experiment", "ExperimentResult", "OccupancySampler", "iter_cells",
           "run_cells"]


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _observed() -> bool:
    """Is something watching this process that a forked worker would
    run outside of?  A profiler or debugger hook, or an active tracer."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and any(
            monitoring.get_tool(tool) is not None for tool in range(6)):
        # 3.12+: cProfile and debuggers register here, not with setprofile.
        return True
    return _obs.ACTIVE is not None


def iter_cells(fn: Callable[..., Any], cells: Iterable[Sequence[Any]],
               jobs: Optional[int] = None) -> Iterator[Any]:
    """Yield ``fn(*cell)`` for every cell, in cell order, each as soon as
    it and all cells before it are done; the cells are forked out over
    ``cores = min(len(cells), CPUs, jobs)`` cores.

    When that is every CPU this process may use, the cells left over
    after the last full round start beside it (``cores + len(cells) %
    cores`` workers live, at most ``2 * cores - 1``) and the kernel
    time-slices them, so no core idles through a lone last cell: equal
    cells take ``len(cells) / cores`` rounds, not the ceiling of it.
    Cells of very unequal cost can lose by it: on two cores, ``[L, s, s]``
    with ``L > 2s`` takes ``L + s/2`` instead of ``L``.  An explicit
    ``jobs`` below the CPU count is a hard cap on live workers.

    A cell sees nothing another cell did, so the values are the ones the
    in-process loop yields.  That loop is what runs when there is
    nothing to overlap (one CPU, ``jobs=1``, one cell), when forking is
    unavailable or unsafe (no ``os.fork``; another live thread), or when
    an observer must see the work in this process (:func:`_observed`).

    A cell that raises has its exception re-raised here, chained to the
    worker's traceback text; a worker that dies without a result raises
    ``RuntimeError``.  Either way, and when the iterator is closed
    early, every remaining worker is killed and reaped.  ``fn`` must
    return picklable data.
    """
    cells = list(cells)
    cpus = _cpu_count()
    cores = min(len(cells), cpus, len(cells) if jobs is None else jobs)
    if (cores < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1 or _observed()):
        for cell in cells:
            yield fn(*cell)
        return
    workers = cores + len(cells) % cores if cores == cpus else cores

    waiting = iter(enumerate(cells))
    live: Dict[int, Tuple[int, int, List[bytes]]] = {}  # pipe -> pid, cell, chunks
    done: Dict[int, Any] = {}
    due = 0
    # poll, not select: a pipe's fd may be past FD_SETSIZE.
    poller = select.poll()
    try:
        while due < len(cells):
            for index, cell in islice(waiting, workers - len(live)):
                pipe, pid = _fork_cell(fn, cell, list(live))
                live[pipe] = (pid, index, [])
                poller.register(pipe, select.POLLIN)
            for pipe, _ in poller.poll():
                chunk = os.read(pipe, 1 << 16)
                if chunk:
                    live[pipe][2].append(chunk)
                    continue
                poller.unregister(pipe)
                pid, index, chunks = live.pop(pipe)
                os.close(pipe)
                status = os.waitpid(pid, 0)[1]
                done[index] = _cell_result(
                    index, cells[index], b"".join(chunks), status)
            while due in done:
                yield done.pop(due)
                due += 1
    finally:
        for pipe, (pid, _, _) in live.items():
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_cells(fn: Callable[..., Any], cells: Iterable[Sequence[Any]],
              jobs: Optional[int] = None) -> List[Any]:
    """``[fn(*cell) for cell in cells]`` through :func:`iter_cells`."""
    return list(iter_cells(fn, cells, jobs))


def _fork_cell(fn: Callable[..., Any], cell: Sequence[Any],
               others: List[int]) -> Tuple[int, int]:
    """Fork a worker that runs ``fn(*cell)`` and pickles the outcome
    into a pipe; returns ``(read end, pid)``.  The worker never returns."""
    read_end, write_end = os.pipe()
    # Buffered output written before the fork belongs to the parent only.
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return read_end, pid
    code = 1
    try:
        os.close(read_end)
        for pipe in others:
            os.close(pipe)
        try:
            payload = pickle.dumps((True, fn(*cell)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised in the parent by _cell_result
            payload = _pickled_failure(exc)
        with os.fdopen(write_end, "wb") as out:
            out.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        # No atexit handlers, no unwinding into the parent's stack.
        os._exit(code)


def _pickled_failure(exc: BaseException) -> bytes:
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        payload = pickle.dumps((False, (exc, text)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
    except Exception:
        # The exception itself does not survive pickling; its text does.
        stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
        payload = pickle.dumps((False, (stand_in, text)), pickle.HIGHEST_PROTOCOL)
    return payload


class _WorkerTraceback(Exception):
    """``__cause__`` of a re-raised cell exception: the traceback as the
    worker formatted it (the frames themselves stay in the worker)."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _cell_result(index: int, cell: Sequence[Any], payload: bytes,
                 status: int) -> Any:
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise RuntimeError(
            f"worker for cell {index} {cell!r} died without a result ({how})")
    # Only bytes this function's own worker wrote are unpickled.
    ok, value = pickle.loads(payload)
    if ok:
        return value
    exc, text = value
    raise exc from _WorkerTraceback(text)


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    ``rows`` holds raw table data (name -> header + row tuples) and
    ``series`` the occupancy traces; :meth:`summary` renders both the way
    the paper's tables/figures report them.
    """

    name: str
    description: str = ""
    rows: Dict[str, Tuple[Sequence[str], List[Sequence[object]]]] = field(
        default_factory=dict
    )
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)

    def add_table(self, key: str, headers: Sequence[str],
                  table_rows: List[Sequence[object]]) -> None:
        self.rows[key] = (headers, table_rows)

    def add_series(self, key: str, series: TimeSeries) -> None:
        self.series[key] = series

    def note(self, text: str) -> None:
        self.notes.append(text)

    def summary(self, plots: bool = True) -> str:
        """Human-readable rendition of all tables (and optionally plots)."""
        parts: List[str] = [f"== {self.name} ==", self.description]
        for key, (headers, table_rows) in self.rows.items():
            parts.append("")
            parts.append(format_table(headers, table_rows, title=f"-- {key} --"))
        if plots and self.series:
            groups: Dict[str, Dict[str, TimeSeries]] = {}
            for key, ts in self.series.items():
                group, _, label = key.partition("/")
                groups.setdefault(group, {})[label or key] = ts
            for group, members in groups.items():
                parts.append("")
                parts.append(ascii_plot(members, title=f"-- {group} (MB over time) --"))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


class Experiment(abc.ABC):
    """Base class: every paper table/figure gets one subclass."""

    #: Experiment id from DESIGN.md's index, e.g. ``"FIG-8"``.
    exp_id: str = ""
    name: str = ""
    description: str = ""

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        self.scale = scale
        self.seed = seed

    def cells(self) -> List[Tuple[Any, ...]]:
        """The experiment's independent simulations, in report order:
        one argument tuple for :meth:`simulate` each.  The default is a
        single run."""
        return [()]

    @abc.abstractmethod
    def simulate(self, *cell: Any) -> Any:
        """Run one cell from ``self.seed`` and return plain picklable
        data (rates, series, ``PoolStats``) — never live simulation
        objects, which do not leave the worker that built them."""

    @abc.abstractmethod
    def report(self, outcomes: List[Any]) -> ExperimentResult:
        """Fold the cells' outcomes (in :meth:`cells` order) into the
        tables, series and scalars the paper reports."""

    def run(self, jobs: Optional[int] = None) -> ExperimentResult:
        """Simulate every cell on up to ``jobs`` cores (default: every
        CPU; see :func:`iter_cells`) and report; the result does not
        depend on ``jobs``."""
        return self.report(run_cells(self.simulate, self.cells(), jobs))

    # -- scaling helpers ------------------------------------------------------

    def mb(self, megabytes: float) -> float:
        """Scale a memory/dataset size."""
        return megabytes * self.scale

    def count(self, n: int) -> int:
        """Scale an object count (files, records)."""
        return max(1, int(n * self.scale))

    def secs(self, seconds: float) -> float:
        """Scale a duration (sub-linear so small scales stay meaningful)."""
        return seconds * max(0.25, min(1.0, self.scale))


class OccupancySampler:
    """Periodically samples hypervisor-cache occupancy per container/VM."""

    def __init__(self, ctx: SimContext, interval_s: float = 10.0) -> None:
        self.ctx = ctx
        self.interval_s = interval_s
        self._gauges: List[Tuple[str, Callable[[], float]]] = []
        self._series: Dict[str, TimeSeries] = {}
        self._proc = None

    def watch_pool(self, cache, label: str, pool_id: int, kind=None) -> None:
        """Track one container's pool occupancy in MB.

        ``cache``, ``pool_id``, and ``kind`` are bound eagerly (default
        arguments, not free closure variables) so gauges registered in a
        loop — or against two different caches in one experiment — each
        sample the cache they were registered with.
        """
        def gauge(cache=cache, pool_id=pool_id, kind=kind) -> float:
            return cache.pool_used_mb(pool_id, kind)

        self._gauges.append((label, gauge))

    def watch_vm(self, cache, label: str, vm_id: int, kind=None) -> None:
        """Track one VM's total occupancy in MB (same eager binding)."""
        def gauge(cache=cache, vm_id=vm_id, kind=kind) -> float:
            return cache.vm_used_mb(vm_id, kind)

        self._gauges.append((label, gauge))

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.ctx.env.process(self._loop(), name="occupancy-sampler")

    def _loop(self):
        while True:
            now = self.ctx.now
            for label, gauge in self._gauges:
                series = self._series.get(label)
                if series is None:
                    series = TimeSeries(label)
                    self._series[label] = series
                series.record(now, gauge())
            yield self.ctx.env.timeout(self.interval_s)

    @property
    def series(self) -> Dict[str, TimeSeries]:
        return self._series
