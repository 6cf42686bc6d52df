"""The cache server does not import the simulator, and the package
re-exports that used to drag it in still resolve.

``python -m repro.service`` executes ``repro/__init__.py`` and
``repro/core/__init__.py``; both resolve their public names on first use
(``repro._lazy``).  Checked in a fresh interpreter: this process has long
since imported everything.
"""

import os
import subprocess
import sys
import unittest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SIMULATOR_ONLY = (
    "guest", "hypervisor", "simkernel", "storage", "mem", "cgroups",
    "cleancache", "fleet", "workloads", "experiments", "policies", "context",
    "analysis", "core.cache_manager", "core.baselines", "core.audit")


def run(code):
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=REPO_SRC),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


class LazyImportTests(unittest.TestCase):
    def test_the_server_leaves_the_simulator_unimported(self):
        done = run(
            "import sys, repro.service.__main__\n"
            f"names = {SIMULATOR_ONLY!r}\n"
            "print(sorted(m for m in sys.modules for n in names\n"
            "             if m == 'repro.' + n or m.startswith(f'repro.{n}.')))")
        self.assertEqual(done.stdout.strip(), "[]", done.stdout)

    def test_every_public_name_still_resolves(self):
        done = run(
            "import repro, repro.core\n"
            "for package in (repro, repro.core):\n"
            "    for name in package.__all__:\n"
            "        assert getattr(package, name) is not None, name\n"
            "        assert name in dir(package), name\n"
            "from repro import SimContext, analysis\n"
            "from repro.core import DoubleDeckerCache, victim, check_cache\n"
            "assert repro.core.DoubleDeckerCache is DoubleDeckerCache\n"
            "assert 'DoubleDeckerCache' in vars(repro.core)   # cached\n"
            "assert analysis is repro.analysis\n"
            "try:\n"
            "    repro.core.no_such_name\n"
            "except AttributeError as error:\n"
            "    assert 'no_such_name' in str(error)\n"
            "else:\n"
            "    raise SystemExit('a missing name did not raise')\n"
            "print(len(repro.__all__), len(repro.core.__all__))")
        self.assertEqual(done.stdout.strip(), "19 37", done.stdout)


if __name__ == "__main__":
    unittest.main()
