"""The four static hazard checks, run over the shipped tree.

Fixed-seed fingerprints and exact per-container accounting are what the
results stand on.  These are the hazards that break them silently, on
paths no fixed-seed run happens to exercise:

* a host wall-clock read in simulated code (``src/repro`` except the
  real-time modules);
* a call into the module-global ``random`` generator (``src/`` and
  ``tests/``);
* a read-modify-write of shared ``self`` state split across an
  ``await`` (the real-time modules);
* a ledger counter in ``core/stats.py`` that no invariant in
  ``core/audit.py`` reads (there or in a ``core/stats.py`` function
  it imports).

Each check is a plain function from ``{path: module AST}`` to findings.
A finding that is fine gets an :data:`ALLOWED` entry with its reason;
a scope is never widened to make one go away.  See docs/LINTING.md.
"""

import ast
import re
import textwrap
import unittest
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: The wall-clock-native modules (paths under src/repro): the cache
#: service and the live telemetry plane run on real time and real
#: sockets.  The wall-clock check skips them; the await-race check reads
#: only them, since they are the ones that host an event loop.
REALTIME = ("service/", "obs/live.py")

#: ``(path, enclosing function) -> reason`` for each finding that is
#: fine.  Paths are under src/repro, or ``tests/…`` for the test suite.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("experiments/__main__.py", "main"):
        "host-side wall clock for the CLI's elapsed-time report, never "
        "feeds simulated state",
}

Modules = Dict[str, ast.Module]


class Finding(NamedTuple):
    path: str
    line: int
    symbol: str  # enclosing function; the class for a ledger field
    what: str


def _parse_all(root: Path, relative_to: Path) -> Modules:
    return {path.relative_to(relative_to).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(root.rglob("*.py"))}


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a pure Name/Attribute chain, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _imported_calls(tree: ast.Module) -> List[Tuple[int, str, str]]:
    """``(line, callee, enclosing function)`` for each call in ``tree``
    whose callee starts with an imported name, spelled from the module it
    came from: after ``from time import perf_counter``, ``perf_counter()``
    is ``time.perf_counter``."""
    imported: Dict[str, str] = {}
    calls = []
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name, alias.name)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                            for alias in node.names)
        elif isinstance(node, ast.Call):
            calls.append((node.lineno, _dotted(node.func), func))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    resolved = []
    for line, callee, func in calls:
        first, dot, rest = callee.partition(".")
        if first in imported:
            resolved.append((line, imported[first] + dot + rest, func))
    return resolved


# -- wall clock ----------------------------------------------------------------

_TIME_READS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime",
}
_DATETIME_READS = {"now", "utcnow", "today", "utcfromtimestamp"}


def wall_clock_reads(modules: Modules) -> List[Finding]:
    """Host clock reads outside the real-time modules: simulated code
    reads ``Environment.now`` only, or fingerprints stop being fixed."""
    found = []
    for path, tree in modules.items():
        if path.startswith(REALTIME):
            continue
        for line, callee, func in _imported_calls(tree):
            module, _, name = callee.rpartition(".")
            if ((module == "time" and name in _TIME_READS)
                    or (module in ("datetime.datetime", "datetime.date")
                        and name in _DATETIME_READS)):
                found.append(Finding(path, line, func,
                                     f"{callee}() reads the host clock"))
    return found


# -- module-global random --------------------------------------------------------

def global_random(modules: Modules) -> List[Finding]:
    """Calls into the shared, unseeded module-global generator; every
    stream must come from a seeded ``random.Random`` (or
    ``repro.simkernel.rng``)."""
    found = []
    for path, tree in modules.items():
        for line, callee, func in _imported_calls(tree):
            module, _, name = callee.partition(".")
            if module == "random" and name and name.split(".")[0] != "Random":
                found.append(Finding(
                    path, line, func,
                    f"{callee}() draws from the module-global generator; "
                    f"construct random.Random(seed)"))
    return found


# -- await races -----------------------------------------------------------------

_LOCK = re.compile(r"lock|mutex|sem|guard", re.IGNORECASE)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def await_races(modules: Modules) -> List[Finding]:
    """Read-modify-writes of ``self`` state split across an ``await`` in
    the real-time modules.  Every ``await`` lets another handler run, so
    a value read before it and stored after it commits a stale read."""
    found = []
    for path, tree in modules.items():
        if not path.startswith(REALTIME):
            continue
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for coro in members:
                if isinstance(coro, ast.AsyncFunctionDef):
                    found.extend(Finding(path, line, coro.name, what)
                                 for line, what in _races(coro))
    return found


def _stored(target: ast.AST) -> Set[str]:
    """The ``self.…`` paths an assignment target writes."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return {path for elt in target.elts for path in _stored(elt)}
    if isinstance(target, (ast.Starred, ast.Subscript)):
        return _stored(target.value)
    path = _dotted(target)
    return {path} if path.startswith("self.") else set()


def _races(coro: ast.AsyncFunctionDef) -> List[Tuple[int, str]]:
    """``(line, what)`` for each race in one coroutine: a statement that
    awaits while it augments, or re-reads, a path it stores; or a path
    loaded, awaited over, then stored.  Loads and stores under ``async
    with <lock>`` do not count."""
    loads: Dict[str, List[int]] = {}
    stores: Dict[str, List[int]] = {}
    awaits: List[int] = []
    races: List[Tuple[int, str]] = []
    inline: Set[str] = set()

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.Await, ast.AsyncWith)):  # __aenter__ awaits
            awaits.append(node.lineno)
        if (not locked and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _dotted(node).startswith("self.")):
            loads.setdefault(_dotted(node), []).append(node.lineno)
        if (not locked and isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and node.value is not None):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            written = set().union(*map(_stored, targets))
            for path in written:
                stores.setdefault(path, []).append(node.lineno)
            if any(isinstance(sub, ast.Await) for sub in ast.walk(node.value)):
                read = {_dotted(sub) for sub in ast.walk(node.value)}
                augmented = isinstance(node, ast.AugAssign)
                for path in sorted(written):
                    if augmented or path in read:
                        inline.add(path)
                        races.append((node.lineno, (
                            f"{'augments' if augmented else 're-reads'} {path} "
                            f"in a statement that awaits")))
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.AsyncWith):
            for item in node.items:
                visit(item, locked)
            locked = locked or any(_LOCK.search(_dotted(
                item.context_expr.func if isinstance(item.context_expr, ast.Call)
                else item.context_expr)) for item in node.items)
            children = iter(node.body)
        for child in children:
            if not isinstance(child, _SCOPES):
                visit(child, locked)

    visit(coro, False)
    for path, lines in sorted(stores.items()):
        if path in inline:
            continue
        stale = next(((load, wait, store)
                      for load in sorted(loads.get(path, ()))
                      for store in sorted(lines) if store > load
                      for wait in sorted(awaits) if load < wait < store), None)
        if stale is not None:
            load, wait, store = stale
            races.append((store, (
                f"loads {path} (line {load}), awaits (line {wait}), then "
                f"stores it (line {store}); capture-and-swap before the "
                f"await or hold an async lock")))
    return races


# -- ledger coverage ---------------------------------------------------------------

#: Stats fields that are point-in-time gauges, re-derived on every
#: snapshot, not monotone ledger counters.
_GAUGE = re.compile(r"used_blocks|capacity_blocks|entitlement", re.IGNORECASE)


def unaudited_counters(modules: Modules) -> List[Finding]:
    """Monotone ledger counters of ``core/stats.py`` (``int`` fields
    defaulting to 0, gauges exempt) whose name no invariant in
    ``core/audit.py`` reads, as an attribute or a string, there or in a
    ``core/stats.py`` function it imports."""
    audit = modules["core/audit.py"]
    helpers = {alias.name for node in ast.walk(audit)
               if isinstance(node, ast.ImportFrom) and node.module == "stats"
               for alias in node.names}
    checks = [audit] + [node for node in modules["core/stats.py"].body
                        if isinstance(node, ast.FunctionDef)
                        and node.name in helpers]
    read = {node.attr if isinstance(node, ast.Attribute) else node.value
            for tree in checks for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str))}
    found = []
    for cls in ast.walk(modules["core/stats.py"]):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and _dotted(stmt.annotation) == "int"
                    and isinstance(stmt.value, ast.Constant) and stmt.value.value == 0
                    and not _GAUGE.search(stmt.target.id)
                    and stmt.target.id not in read):
                found.append(Finding(
                    "core/stats.py", stmt.lineno, cls.name,
                    f"{cls.name}.{stmt.target.id} is never read by "
                    f"core/audit.py, so drift in it is invisible"))
    return found


Allowed = Dict[Tuple[str, str], str]


def not_allowed(findings: List[Finding], allowed: Allowed = ALLOWED) -> List[Finding]:
    return [f for f in findings if (f.path, f.symbol) not in allowed]


def bad_allowances(findings: List[Finding], allowed: Allowed = ALLOWED) -> List[str]:
    """Entries with no reason, or stale ones: no finding matches them."""
    found = {(f.path, f.symbol) for f in findings}
    return ([f"{key}: no reason" for key, reason in allowed.items()
             if not reason.strip()]
            + [f"{key}: matches no finding, delete it" for key in allowed
               if key not in found])


class ShippedTreeTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Every file is parsed once; the trees are dropped once checked.
        package = _parse_all(PACKAGE, PACKAGE)
        src_and_tests = {**package, **_parse_all(REPO / "tests", REPO)}
        cls.found = {
            wall_clock_reads: wall_clock_reads(package),
            global_random: global_random(src_and_tests),
            await_races: await_races(package),
            unaudited_counters: unaudited_counters(package),
        }

    def test_simulated_code_never_reads_the_wall_clock(self):
        self.assertEqual(not_allowed(self.found[wall_clock_reads]), [])

    def test_no_module_global_random(self):
        self.assertEqual(not_allowed(self.found[global_random]), [])

    def test_no_read_modify_write_across_an_await(self):
        self.assertEqual(not_allowed(self.found[await_races]), [])

    def test_every_ledger_counter_is_audited(self):
        self.assertEqual(not_allowed(self.found[unaudited_counters]), [])

    def test_every_allowance_has_a_reason_and_a_finding(self):
        self.assertEqual(bad_allowances(
            [f for findings in self.found.values() for f in findings]), [])


def parse(path: str, source: str) -> Modules:
    return {path: ast.parse(textwrap.dedent(source))}


WALL_CLOCK = """
    import time
    import datetime
    from time import perf_counter


    def sample_latency() -> float:
        started = time.time()
        _ = perf_counter()
        _ = datetime.datetime.now()
        return time.monotonic() - started
"""

REALTIME_CLOCK = """
    import time


    def measure_latency() -> int:
        started = time.perf_counter_ns()
        _ = time.monotonic()
        return time.perf_counter_ns() - started
"""

RANDOM = """
    import random
    from random import randint


    def jitter() -> float:
        random.seed(0)
        value = random.random()
        value += randint(0, 3)
        rng = random.Random(42)
        return value + rng.random()
"""

RACY = """
    import asyncio


    class RacyCounter:
        def __init__(self) -> None:
            self.ops = 0
            self.total = 0
            self._lock = asyncio.Lock()

        async def bump_stale(self) -> None:
            count = self.ops
            await asyncio.sleep(0)
            self.ops = count + 1

        async def bump_inline(self) -> None:
            self.total = self.total + await self._delay()

        async def bump_aug(self) -> None:
            self.ops += await self._delay()

        async def bump_locked(self) -> None:
            async with self._lock:
                count = self.ops
                await asyncio.sleep(0)
                self.ops = count + 1

        async def _delay(self) -> int:
            await asyncio.sleep(0)
            return 1
"""

STATS = """
    from dataclasses import dataclass


    @dataclass
    class PoolStats:
        name: str
        checked_counter: int = 0
        ghost_counter: int = 0
        used_blocks: int = 0
        mem_entitlement_blocks: int = 0
"""

AUDIT = """
    def check_pool(stats):
        violations = []
        if stats.checked_counter < 0:
            violations.append("checked_counter went negative")
        return violations
"""


class CheckCaseTests(unittest.TestCase):
    """Each check fires on its known-bad shapes and on nothing else."""

    def test_wall_clock_reads_fire_in_simulated_code(self):
        found = wall_clock_reads(parse("core/sample.py", WALL_CLOCK))
        self.assertEqual(sorted(f.line for f in found), [8, 9, 10, 11], found)
        self.assertEqual({f.symbol for f in found}, {"sample_latency"})

    def test_realtime_modules_may_read_the_wall_clock(self):
        for path in ("service/realtime_clean.py", "obs/live.py"):
            with self.subTest(path=path):
                self.assertEqual(wall_clock_reads(parse(path, REALTIME_CLOCK)), [])

    def test_realtime_reads_fire_outside_the_realtime_modules(self):
        # The exemption must not leak into simulated code.
        for path in ("obs/export.py", "core/service.py", "live.py"):
            with self.subTest(path=path):
                self.assertEqual(
                    len(wall_clock_reads(parse(path, REALTIME_CLOCK))), 3)

    def test_an_allowance_silences_only_its_own_finding(self):
        found = wall_clock_reads(parse("core/sample.py", WALL_CLOCK))
        allowed = {("core/sample.py", "sample_latency"): "elapsed-time report"}
        self.assertEqual(not_allowed(found, allowed), [])
        self.assertEqual(bad_allowances(found, allowed), [])
        # The same function name in another file is not covered.
        elsewhere = wall_clock_reads(parse("core/other.py", WALL_CLOCK))
        self.assertEqual(len(not_allowed(elsewhere, allowed)), 4)

    def test_an_allowance_without_a_reason_or_a_finding_fails(self):
        found = wall_clock_reads(parse("core/sample.py", WALL_CLOCK))
        unjustified = {("core/sample.py", "sample_latency"): "  "}
        self.assertEqual(bad_allowances(found, unjustified),
                         ["('core/sample.py', 'sample_latency'): no reason"])
        # The finding itself stays silenced; the entry is what fails.
        self.assertEqual(not_allowed(found, unjustified), [])
        stale = {("core/sample.py", "gone"): "was a clock read"}
        self.assertEqual(len(bad_allowances(found, stale)), 1)

    def test_module_global_random_fires_and_seeded_instances_do_not(self):
        found = global_random(parse("tests/sample.py", RANDOM))
        # seed(), random() and the bare randint(); Random(42) and its
        # random() are clean.
        self.assertEqual(sorted(f.line for f in found), [7, 8, 9], found)

    def test_await_races_fire_on_the_stale_inline_and_augmented_shapes(self):
        found = await_races(parse("service/racy.py", RACY))
        self.assertEqual(sorted(f.symbol for f in found),
                         ["bump_aug", "bump_inline", "bump_stale"], found)

    def test_stale_await_race_names_its_load_await_and_store(self):
        found = await_races(parse("service/racy.py", RACY))
        stale, = [f for f in found if f.symbol == "bump_stale"]
        self.assertEqual(stale.line, 14)
        self.assertIn("loads self.ops (line 12), awaits (line 13), then "
                      "stores it (line 14)", stale.what)

    def test_await_races_skip_lock_guarded_sections(self):
        found = await_races(parse("service/racy.py", RACY))
        # bump_locked spans lines 22-26.
        self.assertEqual([f for f in found if 22 <= f.line <= 26], [])
        self.assertNotIn("bump_locked", {f.symbol for f in found})

    def test_await_races_skip_simulated_code(self):
        self.assertEqual(await_races(parse("core/racy.py", RACY)), [])

    def test_unaudited_counter_fires_once(self):
        found = unaudited_counters({**parse("core/stats.py", STATS),
                                    **parse("core/audit.py", AUDIT)})
        self.assertEqual([(f.symbol, f.line) for f in found],
                         [("PoolStats", 9)], found)
        self.assertIn("ghost_counter", found[0].what)

    def test_a_stats_helper_reads_counters_only_if_the_audit_imports_it(self):
        helper = STATS + """

    def ghost_leak(stats):
        return stats.ghost_counter < 0
"""
        for audit, lines in ((AUDIT, [9]),
                             ("\n    from .stats import ghost_leak" + AUDIT, [])):
            found = unaudited_counters({**parse("core/stats.py", helper),
                                        **parse("core/audit.py", audit)})
            self.assertEqual([f.line for f in found], lines, found)

    def test_gauge_fields_are_exempt_from_ledger_coverage(self):
        # An auditor that reads nothing leaves only the two counters.
        found = unaudited_counters({**parse("core/stats.py", STATS),
                                    **parse("core/audit.py", "")})
        self.assertEqual([f.line for f in found], [8, 9], found)


if __name__ == "__main__":
    unittest.main()
