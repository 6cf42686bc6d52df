"""Targeted tests for smaller code paths not covered elsewhere."""

import pytest

from repro.experiments.runner import Experiment, ExperimentResult


class TestCLIAllBranch:
    def test_all_runs_every_registered_experiment(self, monkeypatch, tmp_path,
                                                  capsys):
        import repro.experiments.__main__ as cli

        calls = []

        class FakeExperiment(Experiment):
            exp_id = "FAKE-1"
            name = "fake"
            description = "a fake experiment"

            def simulate(self):
                calls.append((self.scale, self.seed))
                return [[1]]

            def report(self, outcomes):
                result = ExperimentResult(self.name, self.description)
                result.add_table("t", ["a"], outcomes[0])
                return result

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS",
                            {"fake": FakeExperiment, "fake2": FakeExperiment})
        # --jobs 1: ``calls`` is filled in this process.
        code = cli.main(["all", "--scale", "0.5", "--seed", "9",
                         "--out", str(tmp_path), "--no-plots", "--jobs", "1"])
        assert code == 0
        assert calls == [(0.5, 9), (0.5, 9)]
        assert (tmp_path / "fake.txt").exists()
        assert (tmp_path / "fake2.txt").exists()


class TestExperimentScaleHelpers:
    def test_secs_floor(self):
        class Tiny(Experiment):
            def simulate(self):  # pragma: no cover
                return None

            def report(self, outcomes):  # pragma: no cover
                return ExperimentResult("t")

        exp = Tiny(scale=0.01)
        assert exp.secs(100) == 25.0
        exp_full = Tiny(scale=2.0)
        assert exp_full.secs(100) == 100.0  # capped at 1.0x
        assert exp_full.mb(10) == 20
        assert exp_full.count(3) == 6


class TestCLIJsonExport:
    def test_json_flag_writes_json(self, monkeypatch, tmp_path, capsys):
        import json

        import repro.experiments.__main__ as cli

        class FakeExperiment(Experiment):
            exp_id = "FAKE-2"
            name = "fakejson"
            description = "fake"

            def simulate(self):
                return 1.5

            def report(self, outcomes):
                result = ExperimentResult(self.name)
                (result.scalars["v"],) = outcomes
                return result

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"fakejson": FakeExperiment})
        code = cli.main(["fakejson", "--out", str(tmp_path), "--json",
                         "--no-plots"])
        assert code == 0
        payload = json.loads((tmp_path / "fakejson.json").read_text())
        assert payload["scalars"] == {"v": 1.5}

    def test_json_without_out_is_rejected_before_running(self, monkeypatch,
                                                         capsys):
        import repro.experiments.__main__ as cli

        class FakeExperiment(Experiment):
            exp_id = "FAKE-3"
            name = "fakejson"
            description = "fake"

            def simulate(self):  # pragma: no cover
                raise AssertionError("ran without --out")

            def report(self, outcomes):  # pragma: no cover
                return ExperimentResult(self.name)

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"fakejson": FakeExperiment})
        assert cli.main(["fakejson", "--json", "--no-plots"]) == 2
        assert "--json needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_is_rejected_before_running(self, monkeypatch, capsys,
                                                  scale):
        import repro.experiments.__main__ as cli

        class FakeExperiment(Experiment):
            exp_id = "FAKE-4"
            name = "fakescale"
            description = "fake"

            def simulate(self):  # pragma: no cover
                raise AssertionError("ran with a bad --scale")

            def report(self, outcomes):  # pragma: no cover
                return ExperimentResult(self.name)

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"fakescale": FakeExperiment})
        assert cli.main(["fakescale", "--scale", scale, "--no-plots",
                         "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--scale must be" in err


class TestPaperHardwareDefaults:
    def test_hostspec_matches_testbed(self):
        """The host's block is the testbed's 64 KiB, and its devices are
        the paper's SATA disk and SSD classes."""
        from repro import SimContext
        from repro.storage import HDDSpec, SSDSpec

        host = SimContext().create_host()
        assert host.block_bytes == 64 * 1024
        assert host.hdd.spec == HDDSpec()
        assert host.ssd.spec == SSDSpec()

    def test_ssd_spec_matches_v300_class(self):
        from repro.storage import SSDSpec

        spec = SSDSpec()
        # SATA-3 class: reads well under a millisecond, bandwidth-capped.
        assert spec.read_time(4096) < 1e-3
        assert 200 <= spec.write_bandwidth_mbps <= 550

    def test_latency_ladder(self):
        """mem << hypercall+mem << SSD << HDD-random — the ordering every
        experiment result rests on."""
        from repro.cleancache import HypercallChannel
        from repro.simkernel import Environment
        from repro.storage import HDDSpec, MemSpec, SSDSpec

        blk = 64 * 1024
        mem = MemSpec().copy_time(blk)
        env = Environment()
        env.run(until=env.process(HypercallChannel(env).charge_data(1, blk)))
        hypercall = env.now + mem
        ssd = SSDSpec().read_time(blk)
        hdd = HDDSpec().access_time(blk, sequential=False)
        assert mem < hypercall < ssd < hdd
        assert hdd / ssd > 10
        assert ssd / hypercall > 5
