"""Each entry point imports only its own layers, and the package
re-exports that used to drag the other side in still resolve.

``python -m repro.service`` executes ``repro/__init__.py`` and
``repro/core/__init__.py``; a simulation executes ``repro/obs/__init__.py``
and ``repro/experiments/__init__.py``.  All four resolve their public
names on first use (``repro._lazy``).  Checked in a fresh interpreter:
this process has long since imported everything.
"""

import hashlib
import os
import subprocess
import sys
import unittest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SIMULATOR_ONLY = (
    "guest", "hypervisor", "simkernel", "storage", "mem", "cgroups",
    "cleancache", "workloads", "experiments", "context",
    "analysis", "core.cache_manager", "core.baselines", "core.audit",
    "obs.export")

#: What neither simulator workload of the repo benchmark uses: the
#: server, its telemetry, the tooling, and the five experiment modules
#: holding the six experiments that did not run.
SERVER_AND_TOOLING = (
    "asyncio", "ssl", "repro.service", "repro.obs.live", "repro.obs.export",
    "repro.lint",
    "repro.experiments.app_behavior", "repro.experiments.dynamic",
    "repro.experiments.endurance", "repro.experiments.flexible",
    "repro.experiments.motivation")

#: ``python -m repro.experiments --list``: the eight experiments, as
#: listed before the registry went lazy.
LIST_SHA256 = "cec6d31510804c706100d4ceff45396efe3883daaaad38a310dafddfd7444be2"


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=REPO_SRC),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def imported(names):
    """Code printing the imported modules that are, or sit under, one of
    ``names``."""
    return (f"names = {tuple(names)!r}\n"
            "print(sorted(m for m in sys.modules for n in names\n"
            "             if m == n or m.startswith(n + '.')))")


class LazyImportTests(unittest.TestCase):
    def test_the_server_leaves_the_simulator_unimported(self):
        done = run("-c", "import sys, repro.service.__main__\n" + imported(
            f"repro.{name}" for name in SIMULATOR_ONLY))
        self.assertEqual(done.stdout.strip(), "[]", done.stdout)

    def test_the_simulator_leaves_the_server_unimported(self):
        # Both simulator workloads of the repo benchmark, built as it
        # builds them, each simulating one short cell in this process.
        done = run("-c", (
            "import sys\n"
            "from repro.experiments.caching_modes import CachingModesExperiment\n"
            "from repro.experiments.cooperative import CooperativeExperiment\n"
            "for experiment in (\n"
            "        CachingModesExperiment(scale=0.05, seed=42, warmup_s=1.0,\n"
            "                               duration_s=2.0),\n"
            "        CooperativeExperiment(scale=0.02, seed=42, warmup_s=1.0,\n"
            "                              duration_s=2.0,\n"
            "                              candidates=[(25.0, 25.0, 25.0, 25.0)])):\n"
            "    experiment.simulate(*experiment.cells()[-1])\n"
            + imported(SERVER_AND_TOOLING)))
        self.assertEqual(done.stdout.strip(), "[]", done.stdout)

    def test_every_public_name_still_resolves(self):
        done = run("-c", (
            "import repro, repro.core, repro.obs, repro.experiments\n"
            "packages = (repro, repro.core, repro.obs, repro.experiments)\n"
            "for package in packages:\n"
            "    for name in package.__all__:\n"
            "        assert getattr(package, name) is not None, name\n"
            "        assert name in dir(package), name\n"
            "    try:\n"
            "        package.no_such_name\n"
            "    except AttributeError as error:\n"
            "        assert 'no_such_name' in str(error), error\n"
            "    else:\n"
            "        raise SystemExit('a missing name did not raise')\n"
            "from repro import SimContext, analysis\n"
            "from repro.core import DoubleDeckerCache, victim, check_cache\n"
            "from repro.obs import to_jsonl, TelemetrySidecar\n"
            "from repro.experiments import ALL_EXPERIMENTS, Scenario\n"
            "assert repro.core.DoubleDeckerCache is DoubleDeckerCache\n"
            "assert 'DoubleDeckerCache' in vars(repro.core)   # cached\n"
            "assert analysis is repro.analysis\n"
            "assert repro.obs.export.to_jsonl is to_jsonl\n"
            "assert repro.experiments.ALL_EXPERIMENTS is ALL_EXPERIMENTS\n"
            "assert type(ALL_EXPERIMENTS) is dict\n"
            "assert ALL_EXPERIMENTS['caching_modes'] is "
            "repro.experiments.CachingModesExperiment\n"
            "print(list(ALL_EXPERIMENTS))\n"
            "print(*(len(package.__all__) for package in packages))"))
        self.assertEqual(done.stdout.strip().splitlines(), [
            "['motivation', 'app_behavior', 'caching_modes', "
            "'flexible_policy', 'cooperative', 'dynamic_containers', "
            "'dynamic_vms', 'endurance']",
            "16 34 12 14"], done.stdout)

    def test_the_experiment_list_is_unchanged(self):
        done = run("-m", "repro.experiments", "--list")
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertEqual(
            hashlib.sha256(done.stdout.encode("utf-8")).hexdigest(),
            LIST_SHA256, done.stdout)


if __name__ == "__main__":
    unittest.main()
