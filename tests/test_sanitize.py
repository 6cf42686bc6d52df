"""The runtime nondeterminism sanitizer: hashseed discipline, the
decision-path guards and the double-run smoke."""

import unittest

from repro.core import victim
from repro.lint import sanitize


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
