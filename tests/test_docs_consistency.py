"""Docs-code consistency: DESIGN.md's experiment index must reference
real files and experiments, and the README's example table must match
the examples directory."""

import re
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent


class TestDesignIndex:
    def test_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets"
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_experiment_modules_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        modules = set(re.findall(r"experiments/(\w+)(?=\s|\|)", design))
        for module in modules - {"scenarios", "runner"}:
            path = REPO / "src" / "repro" / "experiments" / f"{module}.py"
            assert path.exists(), module

    def test_every_paper_artifact_indexed(self):
        design = (REPO / "DESIGN.md").read_text()
        for artifact in ("FIG-1", "FIG-2", "FIG-3", "TAB-1", "FIG-8",
                         "FIG-9", "TAB-2", "TAB-3", "FIG-10", "FIG-11",
                         "TAB-4", "FIG-12", "FIG-13"):
            assert artifact in design, f"{artifact} missing from DESIGN.md"


class TestOneBuildPath:
    def test_only_scenarios_wire_a_simulation(self):
        """DESIGN.md promises one build path: every experiment
        declares a Scenario instead of wiring a host by hand."""
        wiring = re.compile(
            r"\b(SimContext|create_host|create_vm|create_container)\(")
        experiments = REPO / "src" / "repro" / "experiments"
        offenders = [
            path.name for path in sorted(experiments.glob("*.py"))
            if path.name != "scenarios.py"
            and wiring.search(path.read_text())
        ]
        assert offenders == []


class TestReadme:
    def test_example_table_matches_directory(self):
        readme = (REPO / "README.md").read_text()
        listed = set(re.findall(r"`(\w+\.py)` \|", readme))
        actual = {p.name for p in (REPO / "examples").glob("*.py")}
        assert listed == actual

    def test_docs_links_resolve(self):
        readme = (REPO / "README.md").read_text()
        for link in re.findall(r"\]\(([\w/]+\.md)\)", readme):
            assert (REPO / link).exists(), link


class TestExperimentsRecord:
    def test_every_artifact_recorded(self):
        record = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("FIG-1", "FIG-3", "TAB-1", "FIG-8", "TAB-2",
                         "TAB-3", "FIG-10", "FIG-11", "TAB-4", "FIG-12",
                         "FIG-13"):
            assert artifact in record, f"{artifact} missing from EXPERIMENTS.md"

    def test_known_deviations_documented(self):
        record = (REPO / "EXPERIMENTS.md").read_text()
        assert "deviation" in record.lower()


class TestServiceFlags:
    def test_help_and_flag_tables_agree(self):
        """Every flag ``python -m repro.service --help`` prints is a row
        (or named in a row) of the flag tables in docs/SERVICE.md and
        docs/OBSERVABILITY.md, and nothing else is."""
        from repro.service.__main__ import build_parser

        flag = re.compile(r"--[a-z][a-z-]*")
        offered = set(flag.findall(build_parser().format_help())) - {"--help"}
        documented = set()
        for doc in ("SERVICE.md", "OBSERVABILITY.md"):
            for line in (REPO / "docs" / doc).read_text().splitlines():
                if line.startswith("| `--"):
                    documented.update(flag.findall(line))
        assert offered == documented
