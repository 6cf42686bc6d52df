"""sim-lint rule catalog.

The per-file rules (see docs/LINTING.md for the catalog with examples,
and for the retired rules and what covers each hazard now):

* DD001 — wall-clock reads in simulated paths;
* DD002 — unseeded module-global ``random`` use.

DD000 (pragma defects) is emitted by the engine; DD012 (await races)
lives in :mod:`repro.lint.asyncsafe` and DD014 (auditor coverage) in
:mod:`repro.lint.analysis` — both need more than one file.  Their
catalog entries are here so ``--list-rules`` and pragma validation share
one registry.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .engine import Finding, LintContext, Rule

__all__ = [
    "ALL_RULES",
    "REALTIME_MODULES",
    "WHOLE_PROGRAM_RULE_IDS",
    "dotted_name",
    "is_realtime",
    "rule_catalog",
]


# -- shared AST helpers ------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _import_aliases(tree: ast.AST, module: str) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to ``module`` itself, and ``local -> original`` for
    names imported *from* it."""
    module_aliases: Set[str] = set()
    member_aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                member_aliases[alias.asname or alias.name] = alias.name
    return module_aliases, member_aliases


# -- DD001 -------------------------------------------------------------------

_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime",
}
_WALL_CLOCK_DATETIME_FNS = {"now", "utcnow", "today", "utcfromtimestamp"}

#: Wall-clock-native module prefixes: the cache *service* and the live
#: telemetry plane live on real time and real sockets by design, so the
#: rule that protects simulated fingerprints (DD001) does not apply
#: there.  These are also the modules that host an event loop, so they
#: are DD012's scope.
REALTIME_MODULES = ("service/", "obs/live.py")


def is_realtime(ctx: LintContext) -> bool:
    """Is this file one of the wall-clock-native modules?"""
    return ctx.module_tail().startswith(REALTIME_MODULES)


class WallClockRule(Rule):
    rule_id = "DD001"
    title = "wall-clock read in simulated code"
    rationale = (
        "Simulated paths must read time from Environment.now only; a "
        "host wall-clock read perturbs fixed-seed fingerprints and "
        "breaks byte-identical --jobs fan-out."
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if not ctx.in_sim_code or is_realtime(ctx):
            return
        time_mods, time_members = _import_aliases(ctx.tree, "time")
        dt_mods, dt_members = _import_aliases(ctx.tree, "datetime")
        dt_classes = {local for local, orig in dt_members.items()
                      if orig in ("datetime", "date")}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                origin = time_members.get(func.id)
                if origin in _WALL_CLOCK_TIME_FNS:
                    yield self.finding(
                        ctx, node,
                        f"call to time.{origin}() — simulated code must use "
                        f"Environment.now, never the host wall clock")
                continue
            if not isinstance(func, ast.Attribute):
                continue
            recv = dotted_name(func.value)
            if recv in time_mods and func.attr in _WALL_CLOCK_TIME_FNS:
                yield self.finding(
                    ctx, node,
                    f"call to {recv}.{func.attr}() — simulated code must use "
                    f"Environment.now, never the host wall clock")
            elif func.attr in _WALL_CLOCK_DATETIME_FNS:
                base = recv.split(".", 1)[0] if recv else None
                if recv in dt_classes or (base in dt_mods) or (
                        recv is not None and "." in recv
                        and recv.split(".")[-1] in ("datetime", "date")
                        and base in dt_mods | dt_classes):
                    yield self.finding(
                        ctx, node,
                        f"call to {recv}.{func.attr}() — wall-clock datetime "
                        f"reads are nondeterministic in simulated paths")


# -- DD002 -------------------------------------------------------------------

class UnseededRandomRule(Rule):
    rule_id = "DD002"
    title = "module-global random use"
    rationale = (
        "The module-global random generator is shared, unseeded process "
        "state; use an explicitly seeded random.Random(seed) (or "
        "repro.simkernel.rng) so every stream is reproducible."
    )

    #: The only member of the random module that is fine to name: an
    #: explicitly seeded generator instance.
    _ALLOWED = {"Random"}

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        mods, members = _import_aliases(ctx.tree, "random")
        if not mods and not members:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                recv = dotted_name(func.value)
                if recv in mods and func.attr not in self._ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to {recv}.{func.attr}() uses the module-global "
                        f"generator — construct random.Random(seed) instead")
            elif isinstance(func, ast.Name):
                origin = members.get(func.id)
                if origin is not None and origin not in self._ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to random.{origin}() (imported bare) uses the "
                        f"module-global generator — construct "
                        f"random.Random(seed) instead")


# -- registry ----------------------------------------------------------------

ALL_RULES: List[Rule] = [WallClockRule(), UnseededRandomRule()]

#: Catalog rows for the checks that are not per-file :class:`Rule`
#: objects.  ``witness`` documents how a finding's witness path reads.
_OTHER_ENTRIES: Tuple[Dict[str, str], ...] = (
    {
        "id": "DD000",
        "scope": "per-file",
        "title": "pragma defect, syntax error or unreadable file",
        "rationale": (
            "A suppression must name a rule that exists and carry a "
            "parenthesised reason, or it hides a finding nobody justified; "
            "a file that cannot be parsed cannot be checked at all"),
        "witness": "",
    },
    {
        "id": "DD012",
        "scope": "whole-program",
        "title": "read-modify-write of shared service state split across an await",
        "rationale": (
            "The asyncio service interleaves handlers at every await: loading a "
            "shared cache/store/registry attribute, awaiting, then storing a "
            "value derived from the stale read silently corrupts accounting "
            "under concurrency; hold no shared state across awaits, or guard "
            "the section with an async lock"),
        "witness": (
            "three hops: the shared-attribute load, the await that yields the "
            "event loop, and the store that commits the stale value"),
    },
    {
        "id": "DD014",
        "scope": "whole-program",
        "title": "ledger counter without an auditor cross-check",
        "rationale": (
            "Every monotone put-outcome/ledger counter in repro.core.stats must "
            "be reconciled by at least one invariant in repro.core.audit — an "
            "unchecked counter is exactly where bookkeeping drift hides (the "
            "shadow auditor is the reproduction's ground truth)"),
        "witness": "",
    },
)

WHOLE_PROGRAM_RULE_IDS: Tuple[str, ...] = tuple(
    entry["id"] for entry in _OTHER_ENTRIES if entry["scope"] == "whole-program")


def rule_catalog() -> List[Dict[str, str]]:
    """Machine-readable rule listing for ``--list-rules``, sorted by id."""
    entries = [dict(entry) for entry in _OTHER_ENTRIES]
    for rule in ALL_RULES:
        entries.append({
            "id": rule.rule_id,
            "scope": "per-file",
            "title": rule.title,
            "rationale": rule.rationale,
            "witness": "",
        })
    return sorted(entries, key=lambda entry: entry["id"])
