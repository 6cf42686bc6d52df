"""Unit tests for the experiment runner utilities."""

import os
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from repro import SimContext
from repro.core import CachePolicy, DDConfig, StoreKind
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentResult,
    OccupancySampler,
    iter_cells,
    run_cells,
)


class TestOccupancySampler:
    def _stack(self):
        ctx = SimContext(seed=61)
        host = ctx.create_host()
        cache = host.install_doubledecker(DDConfig(mem_capacity_mb=64))
        vm = host.create_vm("vm1", memory_mb=512)
        c = vm.create_container("c", 64, CachePolicy.memory(100))
        return ctx, host, cache, vm, c

    def test_watch_pool_records_series(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_pool(cache, "c", c.pool_id)
        sampler.start()
        f = c.create_file(2048)
        ctx.env.process(c.read(f))
        ctx.run(until=60)
        series = sampler.series["c"]
        assert len(series) >= 10
        assert series.max() > 0

    def test_watch_vm_records_series(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_vm(cache, "vm1", vm.vm_id, StoreKind.MEMORY)
        sampler.start()
        f = c.create_file(2048)
        ctx.env.process(c.read(f))
        ctx.run(until=60)
        assert sampler.series["vm1"].max() > 0

    def test_start_idempotent(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.watch_pool(cache, "c", c.pool_id)
        sampler.start()
        sampler.start()
        ctx.run(until=20)
        # One process, not two: samples are spaced a full interval apart.
        times = sampler.series["c"].times
        assert all(b - a >= 5.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_gauges_added_after_start_get_sampled(self):
        ctx, host, cache, vm, c = self._stack()
        sampler = OccupancySampler(ctx, interval_s=5.0)
        sampler.start()
        ctx.run(until=10)
        sampler.watch_pool(cache, "late", c.pool_id)
        ctx.run(until=30)
        assert "late" in sampler.series


class TestExperimentResultEdgeCases:
    def test_summary_without_plots(self):
        result = ExperimentResult("x")
        assert "== x ==" in result.summary(plots=False)

    def test_series_grouping_in_summary(self):
        from repro.metrics import TimeSeries

        result = ExperimentResult("x")
        for label in ("modeA/c1", "modeA/c2", "modeB/c1"):
            ts = TimeSeries(label)
            ts.record(0, 1)
            ts.record(10, 2)
            result.add_series(label, ts)
        text = result.summary(plots=True)
        assert "modeA (MB over time)" in text
        assert "modeB (MB over time)" in text


# ----------------------------------------------------------------------
# The cell pool
# ----------------------------------------------------------------------

def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cpus():
    """The pool's answers must not depend on the box: pretend to four
    CPUs (workers then share whatever cores there are).  A thread some
    earlier test leaked would silently keep the pool in-process."""
    assert threading.active_count() == 1, threading.enumerate()
    with mock.patch.object(runner, "_cpu_count", return_value=4):
        yield


def _slow_then_fast(delay, label):
    time.sleep(delay)
    return label, os.getpid()


def _stamped(index, delay):
    started = time.monotonic()
    time.sleep(delay)
    return index, started, time.monotonic(), os.getpid()


def _peak_live(cpus, cells, jobs=None):
    """Run ``cells`` sleeping cells on a pretended ``cpus``-CPU box and
    return the most that were live at one instant, measured from their
    own clocks (one that ends as another starts does not overlap it)."""
    assert threading.active_count() == 1, threading.enumerate()
    with mock.patch.object(runner, "_cpu_count", return_value=cpus):
        out = run_cells(_stamped, [(i, 0.25) for i in range(cells)], jobs)
    assert [index for index, *_ in out] == list(range(cells))
    pids = {pid for *_, pid in out}
    assert len(pids) == cells and os.getpid() not in pids
    _no_children()
    edges = sorted([(end, -1) for _, _, end, _ in out]
                   + [(start, 1) for _, start, _, _ in out])
    live = peak = 0
    for _, step in edges:
        live += step
        peak = max(peak, live)
    return peak


def _cell(parent, action):
    """One misbehaving (or idle) cell; ``parent`` guards the fatal
    actions so a pool that failed to fork cannot take pytest down."""
    if action == "raise":
        raise ValueError("boom in the cell")
    if os.getpid() == parent:
        return "in-process"
    if action == "exit":
        os._exit(3)
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "hang":
        time.sleep(60)
    return action


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")
class TestCellPoolForked:
    def test_results_in_cell_order_when_later_cells_finish_first(self, four_cpus):
        cells = [(0.4, "a"), (0.2, "b"), (0.0, "c"), (0.0, "d"), (0.1, "e")]
        fds = _fd_count()
        out = run_cells(_slow_then_fast, cells)
        assert [label for label, _ in out] == ["a", "b", "c", "d", "e"]
        pids = {pid for _, pid in out}
        assert len(pids) == len(cells) and os.getpid() not in pids
        assert _fd_count() == fds
        _no_children()

    def test_iter_cells_yields_each_prefix_as_it_completes(self, four_cpus):
        started = time.monotonic()
        stream = iter_cells(_slow_then_fast, [(0.0, "a"), (1.0, "b")])
        assert next(stream)[0] == "a"
        assert time.monotonic() - started < 0.9
        assert next(stream)[0] == "b"
        assert list(stream) == []
        _no_children()

    def test_budget_caps_live_workers(self):
        # Below the CPU count a budget is a hard cap, remainder or not.
        assert _peak_live(cpus=4, cells=3, jobs=2) == 2

    @pytest.mark.parametrize("cells, peak", [
        (3, 3),  # the lone third cell starts beside the full round
        (4, 2),  # a multiple of the cores: no remainder to place
        (5, 3),
    ])
    def test_remainder_runs_beside_the_last_full_round(self, cells, peak):
        assert _peak_live(cpus=2, cells=cells) == peak

    def test_more_open_fds_than_select_can_watch(self, four_cpus):
        import resource

        held_count = 1100
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        need = _fd_count() + held_count + 64
        if hard != resource.RLIM_INFINITY and hard < need:
            pytest.skip(f"hard RLIMIT_NOFILE {hard} < {need}")
        if soft != resource.RLIM_INFINITY and soft < need:
            resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
        held = []
        try:
            for _ in range(held_count):
                held.append(os.open(os.devnull, os.O_RDONLY))
            assert max(held) >= 1024  # so every pipe is past FD_SETSIZE
            fds = _fd_count()
            out = run_cells(_slow_then_fast, [(0.0, "a"), (0.0, "b")])
            assert [label for label, _ in out] == ["a", "b"]
            pids = {pid for _, pid in out}
            assert len(pids) == 2 and os.getpid() not in pids
            assert _fd_count() == fds
            _no_children()
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def test_raising_cell_reraises_with_the_workers_traceback(self, four_cpus):
        parent = os.getpid()
        cells = [(parent, "hang"), (parent, "raise"), (parent, "hang")]
        fds = _fd_count()
        started = time.monotonic()
        with pytest.raises(ValueError, match="boom in the cell") as caught:
            run_cells(_cell, cells)
        assert time.monotonic() - started < 30  # the hung workers were killed
        cause = str(caught.value.__cause__)
        assert "Traceback" in cause and "in _cell" in cause
        assert _fd_count() == fds
        _no_children()

    @pytest.mark.parametrize("action, how", [("exit", "exit code 3"),
                                             ("kill", "signal 9")])
    def test_worker_dying_without_a_result_names_the_cell(self, four_cpus,
                                                          action, how):
        parent = os.getpid()
        fds = _fd_count()
        with pytest.raises(RuntimeError) as caught:
            run_cells(_cell, [(parent, "fine"), (parent, action),
                              (parent, "hang")])
        message = str(caught.value)
        assert "cell 1" in message and repr(action) in message
        assert how in message
        assert _fd_count() == fds
        _no_children()

    def test_unpicklable_exception_still_reports(self, four_cpus):
        class Local(Exception):  # a local class does not unpickle
            pass

        def fn(index):
            if index:
                raise Local("only its text survives")
            return index

        with pytest.raises(RuntimeError, match="Local: only its text"):
            run_cells(fn, [(0,), (1,)])
        _no_children()

    def test_closing_the_iterator_early_reaps_the_workers(self, four_cpus):
        parent = os.getpid()
        stream = iter_cells(_cell, [(parent, "fine"), (parent, "hang")])
        assert next(stream) == "fine"
        stream.close()
        _no_children()

    def test_a_cell_imports_nothing_after_the_fork(self):
        # A module first imported inside simulate() would be imported
        # again by every forked cell, on its timed path.  A fresh
        # interpreter, because this one has imported everything already.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, "-c", (
            "import os, sys\n"
            "from unittest import mock\n"
            "from repro.experiments import runner\n"
            "from repro.experiments.caching_modes import CachingModesExperiment\n"
            "experiment = CachingModesExperiment(scale=0.02, seed=42,\n"
            "                                    warmup_s=1.0, duration_s=1.0)\n"
            "before = set(sys.modules)\n"
            "def cell(mode):\n"
            "    experiment.simulate(mode)\n"
            "    return os.getpid(), sorted(set(sys.modules) - before)\n"
            "with mock.patch.object(runner, '_cpu_count', return_value=4):\n"
            "    out = runner.run_cells(cell, experiment.cells()[:2])\n"
            "assert os.getpid() not in {pid for pid, _ in out}, out\n"
            "print([new for _, new in out])")],
            env=dict(os.environ, PYTHONPATH=src), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert done.stdout.strip() == "[[], []]", done.stdout


class TestCellPoolInProcess:
    """Every reason to stay in this process: ``fn`` sees the parent's pid
    (and the results are those of the plain loop)."""

    CELLS = [(0.0, "a"), (0.0, "b"), (0.0, "c")]

    def _assert_in_process(self, **kwargs):
        out = run_cells(_slow_then_fast, self.CELLS, **kwargs)
        assert out == [(label, os.getpid()) for _, label in self.CELLS]

    def test_one_cell_or_a_budget_of_one(self, four_cpus):
        self._assert_in_process(jobs=1)
        assert run_cells(_slow_then_fast, [(0.0, "a")]) == [("a", os.getpid())]
        assert run_cells(_slow_then_fast, []) == []

    def test_under_cprofile(self, four_cpus):
        # 3.12+ registers cProfile with sys.monitoring, older
        # interpreters with sys.setprofile: both must be seen.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            self._assert_in_process()
        finally:
            profiler.disable()

    def test_under_settrace(self, four_cpus):
        saved = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            self._assert_in_process()
        finally:
            sys.settrace(saved)

    @pytest.mark.skipif(not hasattr(sys, "monitoring"),
                        reason="sys.monitoring is 3.12+")
    def test_under_a_monitoring_tool(self, four_cpus):
        sys.monitoring.use_tool_id(3, "test_runner")
        try:
            self._assert_in_process()
        finally:
            sys.monitoring.free_tool_id(3)

    def test_with_a_tracer_installed(self, four_cpus):
        from repro.obs import Tracer, set_tracer

        set_tracer(Tracer())
        try:
            self._assert_in_process()
        finally:
            set_tracer(None)

    def test_with_a_second_thread_alive(self, four_cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self._assert_in_process()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs sched_setaffinity")
    def test_with_affinity_narrowed_to_one_cpu(self):
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            self._assert_in_process()
        finally:
            os.sched_setaffinity(0, allowed)

    def test_without_os_fork(self, four_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        self._assert_in_process()
