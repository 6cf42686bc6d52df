"""Smoke tests for the experiment harness (tiny scale, short windows).

These guard the harness wiring — every experiment must run end-to-end,
produce its tables/series, and keep its core shape — without the cost of
the full benchmark suite.
"""

import os
import pickle
from unittest import mock

import pytest

from repro.core import StoreKind
from repro.experiments import (
    ALL_EXPERIMENTS,
    AppBehaviorExperiment,
    DynamicContainersExperiment,
    DynamicVMsExperiment,
    MotivationExperiment,
    Scenario,
    runner,
)
from repro.experiments.runner import Experiment, ExperimentResult
from repro.metrics import TimeSeries


class TestRunnerPlumbing:
    def test_registry_covers_all_paper_artifacts(self):
        ids = {cls.exp_id for cls in ALL_EXPERIMENTS.values()}
        # Every evaluation table/figure of the paper appears exactly once,
        # plus the EXT-END endurance extension (not a paper artifact).
        assert ids == {
            "FIG-1/FIG-2", "FIG-3/TAB-1", "FIG-8/FIG-9/TAB-2",
            "FIG-10/FIG-11/TAB-3", "TAB-4", "FIG-12", "FIG-13",
            "EXT-END",
        }

    def test_scale_validation(self):
        for scale in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MotivationExperiment(scale=scale)

    def test_result_summary_renders(self):
        result = ExperimentResult("x", "desc")
        result.add_table("t", ["a", "b"], [[1, 2.5]])
        ts = TimeSeries("s")
        ts.record(0, 1)
        result.add_series("g/s", ts)
        result.note("note text")
        text = result.summary()
        assert "== x ==" in text
        assert "note text" in text
        assert "2.50" in text

    def test_scaling_helpers(self):
        exp = MotivationExperiment(scale=0.5)
        assert exp.mb(1000) == 500
        assert exp.count(100) == 50
        assert exp.secs(100) == 50
        tiny = MotivationExperiment(scale=0.1)
        assert tiny.secs(100) == 25  # floor at 0.25


class TestMotivationSmoke:
    def test_runs_and_shows_disproportion(self):
        exp = MotivationExperiment(scale=0.125, duration_s=120)
        result = exp.run()
        assert "simultaneous_share_ratio" in result.scalars
        assert result.scalars["simultaneous_share_ratio"] > 1.0
        assert any(key.startswith("fig2a") for key in result.series)


class TestAppBehaviorSmoke:
    def test_table1_only_runs(self):
        exp = AppBehaviorExperiment(scale=0.125, warmup_s=40, duration_s=60)
        result = exp.run_table1_only()
        headers, rows = result.rows["table1: guest metrics at the 1:1 split"]
        assert len(rows) == 4
        # Redis swaps, webserver does not.
        assert result.scalars["redis_swap_mb"] > 0
        assert result.scalars["webserver_swap_mb"] == 0


class TestDynamicSmoke:
    def test_containers_experiment_runs(self):
        exp = DynamicContainersExperiment(scale=0.125, phase_s=80)
        result = exp.run()
        labels = {key.split("/", 1)[1] for key in result.series}
        assert {"container1", "container2",
                "container3-mem", "container3-ssd"} <= labels

    def test_vms_experiment_runs(self):
        exp = DynamicVMsExperiment(scale=0.125, phase_s=60)
        result = exp.run()
        labels = {key.split("/", 1)[1] for key in result.series}
        assert {"vm1", "vm2", "vm3", "vm4"} <= labels
        # VM1 held the whole (scaled) cache in phase 1.
        vm1 = result.series["fig13/vm1"]
        assert vm1.max() > 0.8 * exp.mb(2048)


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "motivation" in out
        assert "dynamic_vms" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["nope"]) == 2

    def test_runs_one_experiment(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["motivation", "--scale", "0.125", "--no-plots",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "motivation.txt").exists()
        out = capsys.readouterr().out
        assert "steady-state cache share" in out


# Short spans at the smallest scale the suite uses: the pool tests run
# every experiment twice.
SMALL = {
    "motivation": dict(duration_s=20.0),
    "app_behavior": dict(warmup_s=4.0, duration_s=6.0),
    "caching_modes": dict(warmup_s=8.0, duration_s=12.0),
    "flexible_policy": dict(warmup_s=8.0, duration_s=12.0),
    "cooperative": dict(warmup_s=4.0, duration_s=6.0),
    "dynamic_containers": dict(phase_s=10.0),
    "dynamic_vms": dict(phase_s=10.0),
    "endurance": dict(warmup_s=8.0, duration_s=12.0),
}


@pytest.fixture
def two_cpus():
    """Fork even on a one-CPU box, where the default would equal
    ``jobs=1`` trivially."""
    with mock.patch.object(runner, "_cpu_count", return_value=2):
        yield


class _OneBadCell(Experiment):
    """Three tiny DoubleDecker runs; the middle one corrupts its cache's
    accounting mid-run, which only the auditor notices."""

    name = "one_bad_cell"

    def cells(self):
        return [(False,), (True,), (False,)]

    def simulate(self, corrupt):
        scenario = (
            Scenario(seed=self.seed)
            .cache("doubledecker", mem_mb=4.0)
            .vm("vm1", memory_mb=64.0)
            .container("vm1", "web", 8.0, "mem:100",
                       ("webserver", dict(nfiles=60, mean_size_kb=64.0)))
        )
        if corrupt:
            def drift(runtime):
                runtime["cache"].used[StoreKind.MEMORY] += 1
            scenario.at(5.0, drift)
        return scenario.run(0.0, 30.0).rates

    def report(self, outcomes):
        result = ExperimentResult(self.name)
        result.scalars["cells"] = len(outcomes)
        return result


class TestCellPool:
    def test_registry_matches_small_configs(self):
        assert set(SMALL) == set(ALL_EXPERIMENTS)

    @pytest.mark.parametrize("name", list(SMALL))
    def test_summary_does_not_depend_on_the_budget(self, name, two_cpus):
        def summary(**budget):
            experiment = ALL_EXPERIMENTS[name](scale=0.02, seed=7,
                                               **SMALL[name])
            return experiment.run(**budget).summary()

        assert summary(jobs=1) == summary()

    def test_outcomes_are_plain_data(self):
        # What simulate() returns crosses a pipe: no live simulation objects.
        experiment = ALL_EXPERIMENTS["cooperative"](
            scale=0.02, seed=7, candidates=[(25.0, 25.0, 25.0, 25.0)],
            **SMALL["cooperative"])
        for cell in experiment.cells():
            pickle.dumps(experiment.simulate(*cell))

    def test_audited_violation_in_one_cell_fails_the_run(self, two_cpus):
        from repro.core import set_audit_interval
        from repro.core.audit import InvariantViolation

        assert _OneBadCell(seed=3).run().scalars["cells"] == 3  # unaudited
        set_audit_interval(2.0)
        try:
            with pytest.raises(InvariantViolation):
                _OneBadCell(seed=3).run()
        finally:
            set_audit_interval(0.0)
        with pytest.raises(ChildProcessError):  # nothing left running
            os.waitpid(-1, os.WNOHANG)
