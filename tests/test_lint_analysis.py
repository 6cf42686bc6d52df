"""Whole-program sim-lint suite: the project loader, await-interleaving
races (DD012), auditor coverage (DD014), witness rendering, and the
catalog entries of both rules."""

import contextlib
import io
import json
import tempfile
import textwrap
import unittest
from collections import Counter
from pathlib import Path

from repro.lint.__main__ import main as lint_main
from repro.lint.analysis import analyze_paths, analyze_project
from repro.lint.engine import (
    Finding,
    WitnessHop,
    format_findings_json,
    format_findings_text,
    iter_python_files,
)
from repro.lint.project import Project
from repro.lint.rules import WHOLE_PROGRAM_RULE_IDS

REPO = Path(__file__).resolve().parent.parent
INTERPROC_FIXTURES = REPO / "tests" / "lint_fixtures" / "interproc"


def make_project(tmp, files):
    """Write ``{relpath: source}`` under ``tmp/repro`` and load it."""
    root = Path(tmp)
    for rel, source in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        init = path.parent / "__init__.py"
        while not init.exists() and init.parent != root:
            init.write_text("")
            init = init.parent.parent / "__init__.py"
    paths = sorted((root / "repro").rglob("*.py"))
    return Project.load(paths, root=root)


def fixture_report(rule_ids=None):
    return analyze_paths([INTERPROC_FIXTURES], root=REPO, rule_ids=rule_ids)


class ProjectLoaderTests(unittest.TestCase):
    """The loader: module naming from the path, collision note."""

    def test_module_names_come_from_the_last_repro_component(self):
        with tempfile.TemporaryDirectory() as tmp:
            project = make_project(tmp, {"core/util.py": "X = 1\n"})
            self.assertEqual(sorted(project.modules),
                             ["repro", "repro.core", "repro.core.util"])

    def test_module_name_collision_noted_first_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for prefix in ("a", "b"):
                path = root / prefix / "repro" / "mod.py"
                path.parent.mkdir(parents=True)
                (path.parent / "__init__.py").write_text("")
                path.write_text("def f():\n    return 1\n")
            paths = sorted(root.rglob("*.py"))
            project = Project.load(paths, root=root)
            self.assertEqual(len(project.modules), 2)  # repro + repro.mod
            self.assertTrue(
                any("collision" in note for note in project.notes))


class AsyncSafeTests(unittest.TestCase):
    """DD012: read-modify-write across awaits in realtime modules."""

    @classmethod
    def setUpClass(cls):
        cls.findings = [f for f in fixture_report(["DD012"]).findings
                        if f.rule_id == "DD012"]

    def test_fixture_corpus_fires_exactly_three(self):
        self.assertEqual(len(self.findings), 3,
                         [f.message for f in self.findings])
        lines = sorted(f.line for f in self.findings)
        self.assertEqual(lines, [19, 22, 25])

    def test_cross_segment_witness_has_load_await_store(self):
        stale = [f for f in self.findings if f.line == 19]
        self.assertEqual(len(stale), 1)
        notes = [hop.note for hop in stale[0].witness]
        self.assertEqual(len(notes), 3, notes)
        self.assertTrue(any("read" in n or "load" in n for n in notes))
        self.assertTrue(any("await" in n for n in notes))
        self.assertTrue(any("store" in n or "writ" in n for n in notes))

    def test_lock_guarded_section_is_clean(self):
        # bump_locked spans lines 27-31; no finding may anchor there.
        self.assertFalse([f for f in self.findings if 27 <= f.line <= 31])

    def test_non_realtime_async_code_is_out_of_scope(self):
        with tempfile.TemporaryDirectory() as tmp:
            project = make_project(tmp, {"core/racer.py": """
                import asyncio

                class C:
                    def __init__(self):
                        self.n = 0

                    async def bump(self):
                        n = self.n
                        await asyncio.sleep(0)
                        self.n = n + 1
            """})
            report = analyze_project(project, rule_ids=["DD012"])
            self.assertEqual(report.findings, [])


class AuditCoverageTests(unittest.TestCase):
    """DD014: every monotone ledger counter needs an auditor invariant."""

    def test_fixture_ghost_counter_fires_exactly_once(self):
        findings = [f for f in fixture_report(["DD014"]).findings
                    if f.rule_id == "DD014"]
        self.assertEqual(len(findings), 1, [f.message for f in findings])
        self.assertIn("ghost_counter", findings[0].message)

    def test_gauges_are_exempt(self):
        findings = fixture_report(["DD014"]).findings
        self.assertFalse(
            [f for f in findings if "used_blocks" in f.message])

    def test_partial_project_skips_with_note(self):
        with tempfile.TemporaryDirectory() as tmp:
            project = make_project(tmp, {"core/other.py": """
                def f():
                    return 1
            """})
            report = analyze_project(project, rule_ids=["DD014"])
            self.assertEqual(report.findings, [])
            self.assertTrue(
                any("DD014 skipped" in note for note in report.notes),
                report.notes)


class FixtureCorpusTests(unittest.TestCase):
    def test_full_corpus_counts_pin_every_rule(self):
        report = fixture_report()
        counts = Counter(f.rule_id for f in report.findings)
        self.assertEqual(dict(counts), {"DD012": 3, "DD014": 1})

    def test_fixture_walk_is_pruned_from_default_lint(self):
        files = list(iter_python_files([REPO / "tests"]))
        self.assertFalse([p for p in files if "interproc" in str(p)])


class WitnessFormatTests(unittest.TestCase):
    def _finding(self):
        return Finding(
            rule_id="DD012", path="repro/service/a.py",
            line=10, col=4, message="stale store",
            witness=(WitnessHop("repro/service/a.py", 8, "load here"),
                     WitnessHop("repro/service/a.py", 10, "store here")))

    def test_text_rendering_shows_every_hop(self):
        text = format_findings_text([self._finding()])
        self.assertIn("witness: repro/service/a.py:8: load here", text)
        self.assertIn("-> repro/service/a.py:10: store here", text)

    def test_json_round_trip_preserves_witness(self):
        finding = self._finding()
        payload = json.loads(format_findings_json([finding]))
        rebuilt = Finding.from_dict(payload["findings"][0])
        self.assertEqual(rebuilt, finding)

    def test_witness_key_absent_for_per_file_findings(self):
        bare = Finding(rule_id="DD001", path="x.py", line=1, col=0,
                       message="m")
        self.assertNotIn("witness", bare.as_dict())


class CliTests(unittest.TestCase):
    def test_list_rules_json_includes_whole_program_rules(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lint_main(["--list-rules", "--format", "json"])
        self.assertEqual(status, 0)
        by_id = {entry["id"]: entry
                 for entry in json.loads(out.getvalue())["rules"]}
        for rule_id in WHOLE_PROGRAM_RULE_IDS:
            self.assertEqual(by_id[rule_id]["scope"], "whole-program")
        self.assertTrue(by_id["DD012"]["witness"],
                        "DD012 must document its witness format")


if __name__ == "__main__":
    unittest.main()
