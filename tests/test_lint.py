"""sim-lint suite: the fixture corpus fires exactly the catalog,
suppressions and formats round-trip, the shipped tree is clean, and the
runtime sanitizer guards/hashseed discipline behave."""

import contextlib
import io
import json
import tempfile
import unittest
from collections import Counter
from pathlib import Path

from repro.core import victim
from repro.lint import ALL_RULES, Finding, lint_file, lint_paths, rule_catalog
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import format_findings_json, iter_python_files
from repro.lint import sanitize

REPO = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO / "tests" / "lint_fixtures"
FIXTURES = FIXTURE_ROOT / "repro"


def lint_fixture(name):
    return lint_paths([FIXTURES / name], ALL_RULES, root=REPO)


def run_cli(argv):
    """``(exit status, parsed JSON report)`` of one ``--format json`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = lint_main([*argv, "--format", "json"])
    return status, json.loads(out.getvalue())


class RuleFiringTests(unittest.TestCase):
    def test_every_rule_fires_on_its_fixture(self):
        # Exact counts, so a rule that silently widens or narrows breaks
        # the suite.
        status, report = run_cli([str(FIXTURE_ROOT)])
        self.assertEqual(status, 1)
        fired = Counter((f["rule"], Path(f["path"]).name)
                        for f in report["findings"])
        self.assertEqual(dict(fired), {
            ("DD000", "suppressed_no_reason.py"): 1,
            ("DD001", "dd001_wall_clock.py"): 4,
            ("DD002", "dd002_unseeded_random.py"): 3,
            ("DD012", "racy.py"): 3,
            ("DD014", "stats.py"): 1,
        })

    def test_every_catalogued_rule_has_a_firing_case(self):
        _, report = run_cli([str(FIXTURE_ROOT)])
        fired = sorted({f["rule"] for f in report["findings"]})
        self.assertEqual(fired, ["DD000", "DD001", "DD002", "DD012", "DD014"])
        self.assertEqual(fired, [entry["id"] for entry in rule_catalog()])

    def test_realtime_service_modules_are_allowlisted(self):
        # Wall-clock reads that fire DD001 anywhere else in repro/ are
        # clean under service/.
        findings = lint_fixture("service/realtime_clean.py")
        self.assertEqual(findings, [], [f.message for f in findings])

    def test_realtime_allowlist_is_service_scoped(self):
        # The same constructs still fire outside service/ — the
        # allowlist must not leak into simulated code.
        findings = lint_fixture("dd001_wall_clock.py")
        self.assertEqual(
            sum(1 for f in findings if f.rule_id == "DD001"), 4)


class SuppressionTests(unittest.TestCase):
    def test_justified_suppressions_silence_findings(self):
        findings = lint_fixture("suppressed_clean.py")
        self.assertEqual(findings, [],
                         [f.message for f in findings])

    def test_unjustified_suppression_is_dd000_and_fails(self):
        findings = lint_fixture("suppressed_no_reason.py")
        self.assertEqual([f.rule_id for f in findings], ["DD000"])
        # The DD001 finding itself stayed suppressed.
        self.assertNotIn("DD001", {f.rule_id for f in findings})
        status, _ = run_cli([str(FIXTURES / "suppressed_no_reason.py")])
        self.assertEqual(status, 1)

    def test_unknown_rule_in_pragma_is_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snippet.py"
            path.write_text(
                "X = 1  # dd-lint: disable=DD999 (no such rule)\n")
            findings = lint_file(path, ALL_RULES)
        self.assertEqual(len(findings), 1)
        self.assertIn("unknown rule", findings[0].message)

    def test_docstrings_mentioning_pragmas_are_ignored(self):
        # engine.py documents the syntax in its docstring; only real
        # comment tokens may parse as pragmas.
        findings = lint_paths(
            [REPO / "src" / "repro" / "lint"], ALL_RULES, root=REPO)
        self.assertEqual([f for f in findings if f.rule_id == "DD000"], [])


class FormatAndCliTests(unittest.TestCase):
    def test_json_round_trip(self):
        findings = lint_fixture("dd001_wall_clock.py")
        payload = json.loads(format_findings_json(findings))
        self.assertEqual(payload["version"], 2)
        self.assertEqual(payload["count"], len(findings))
        rebuilt = [Finding.from_dict(item) for item in payload["findings"]]
        self.assertEqual(rebuilt, list(findings))

    def test_cli_json_output_parses(self):
        status, payload = run_cli([str(FIXTURES / "dd001_wall_clock.py")])
        self.assertEqual(status, 1)
        self.assertEqual(payload["count"], 4)
        self.assertTrue(all(f["rule"] == "DD001"
                            for f in payload["findings"]))

    def test_cli_rule_filter(self):
        for rule_id in ("DD002", "DD012"):
            with self.subTest(rule=rule_id):
                status, payload = run_cli(
                    [str(FIXTURE_ROOT), "--rule", rule_id])
                self.assertEqual(status, 1)
                self.assertEqual({f["rule"] for f in payload["findings"]},
                                 {rule_id})

    def test_cli_unknown_rule_exits_2(self):
        with self.assertRaises(SystemExit) as caught:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                lint_main([str(FIXTURES), "--rule", "DD999"])
        self.assertEqual(caught.exception.code, 2)

    def test_cli_list_rules(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = lint_main(["--list-rules"])
        self.assertEqual(status, 0)
        listed = [line.split()[0] for line in buffer.getvalue().splitlines()
                  if line.startswith("DD")]
        self.assertEqual(listed, ["DD000", "DD001", "DD002", "DD012", "DD014"])

    def test_shipped_tree_is_clean(self):
        # The acceptance gate: the repository's own src/ and tests/ lint
        # clean under every rule (fixtures are pruned from the walk).
        status, report = run_cli([str(REPO / "src"), str(REPO / "tests")])
        self.assertEqual(report["findings"], [])
        self.assertEqual(status, 0)

    def test_walk_prunes_fixtures_and_caches(self):
        files = list(iter_python_files([REPO / "tests"]))
        self.assertTrue(files)
        self.assertFalse([p for p in files if "lint_fixtures" in str(p)])
        self.assertFalse([p for p in files if "__pycache__" in str(p)])
        # Deterministic walk order.
        self.assertEqual(files, sorted(files))


class SanitizerTests(unittest.TestCase):
    def _entities(self):
        return [(None, 0, 8, 1.0)]  # (ref, entitlement, used, weightage)

    def test_hashseed_problem_cases(self):
        import os

        saved = os.environ.get("PYTHONHASHSEED")
        try:
            os.environ.pop("PYTHONHASHSEED", None)
            self.assertIn("not set", sanitize.hashseed_problem())
            os.environ["PYTHONHASHSEED"] = "random"
            self.assertIn("random", sanitize.hashseed_problem())
            os.environ["PYTHONHASHSEED"] = "0"
            self.assertIsNone(sanitize.hashseed_problem())
        finally:
            if saved is None:
                os.environ.pop("PYTHONHASHSEED", None)
            else:
                os.environ["PYTHONHASHSEED"] = saved

    def test_assert_ordered(self):
        sanitize.assert_ordered([1, 2], "here")
        sanitize.assert_ordered((1, 2), "here")
        for bad in ({1, 2}, frozenset((1, 2)), {1: 2}.keys(),
                    {1: 2}.values(), {1: 2}.items()):
            with self.assertRaises(sanitize.NondeterminismError):
                sanitize.assert_ordered(bad, "here")

    def test_decision_guards_reject_sets_and_restore(self):
        from repro.core import engine

        original = victim.select_victim
        with sanitize.decision_guards() as guards:
            self.assertIsNot(victim.select_victim, original)
            self.assertIs(victim.select_victim, engine.select_victim)
            chosen, _, _ = victim.select_victim(self._entities(), 1)
            self.assertIsNotNone(chosen)
            self.assertEqual(guards.calls, 1)
            with self.assertRaises(sanitize.NondeterminismError):
                engine.select_victim(set(), 1)
        self.assertIs(victim.select_victim, original)
        self.assertIs(engine.select_victim, original)

    def _smoke(self, run):
        """``run_smoke`` over a stand-in experiment whose ``run`` is ``run``."""
        from repro import experiments

        class Experiment:
            def __init__(self, scale, seed):
                pass

            def run(self, jobs=None):
                return run()

        lines = []
        saved = dict(experiments.ALL_EXPERIMENTS)
        experiments.ALL_EXPERIMENTS["_fake"] = Experiment
        try:
            status = sanitize.run_smoke(
                experiment="_fake", require_hashseed=False,
                out=lines.append)
        finally:
            experiments.ALL_EXPERIMENTS.clear()
            experiments.ALL_EXPERIMENTS.update(saved)
        return status, lines

    def test_run_smoke_detects_guard_violation(self):
        status, lines = self._smoke(lambda: victim.select_victim(set(), 1))
        self.assertEqual(status, 1)
        self.assertIn("guard fired", lines[0])

    def test_run_smoke_detects_double_run_divergence(self):
        entities = self._entities()
        counter = {"round": 0}

        class FlakyResult:
            def summary(self, plots=True):
                counter["round"] += 1
                return f"round {counter['round']}"

        def run():
            victim.select_victim(list(entities), 1)
            return FlakyResult()

        status, lines = self._smoke(run)
        self.assertEqual(status, 1)
        self.assertIn("diverged", lines[0])

    def test_run_smoke_fails_without_guarded_selections(self):
        class Result:
            def summary(self, plots=True):
                return "same"

        status, lines = self._smoke(Result)
        self.assertEqual(status, 1)
        self.assertIn("never executed", lines[0])

    def test_run_smoke_requires_hashseed(self):
        import os

        saved = os.environ.get("PYTHONHASHSEED")
        lines = []
        try:
            os.environ.pop("PYTHONHASHSEED", None)
            status = sanitize.run_smoke(out=lines.append)
        finally:
            if saved is not None:
                os.environ["PYTHONHASHSEED"] = saved
        self.assertEqual(status, 1)
        self.assertIn("PYTHONHASHSEED", lines[0])

    def test_run_smoke_unknown_experiment(self):
        lines = []
        status = sanitize.run_smoke(experiment="_nope",
                                    require_hashseed=False,
                                    out=lines.append)
        self.assertEqual(status, 1)
        self.assertIn("unknown experiment", lines[0])


if __name__ == "__main__":
    unittest.main()
