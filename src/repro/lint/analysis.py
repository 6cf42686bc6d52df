"""Whole-program checks (DD012, DD014): orchestration, and DD014 itself.

:func:`analyze_paths` loads every ``repro``-tree file reachable from the
given paths into one :class:`~repro.lint.project.Project`, runs the two
analyzers, and filters the results through the same ``dd-lint``
suppression tables the per-file engine parsed (one pragma parser, one
semantics).

* **DD012** — await-interleaving races (:mod:`repro.lint.asyncsafe`);
* **DD014** — auditor coverage: every monotone ledger counter declared in
  ``repro.core.stats`` (``int`` dataclass fields defaulting to ``0``,
  excluding point-in-time gauges) must be referenced by at least one
  invariant in ``repro.core.audit``.  The check is name-based on the
  auditor's attribute reads and string constants — object-insensitive by
  design, cheap, and exactly strong enough to catch a counter nobody
  reconciles.

Each check runs whenever the files it needs are in scope: linting a
subtree that lacks ``repro.core.stats``/``repro.core.audit`` skips DD014
with a note rather than failing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from .asyncsafe import analyze_asyncsafe
from .engine import Finding, iter_python_files
from .project import Project
from .rules import WHOLE_PROGRAM_RULE_IDS

__all__ = [
    "AnalysisReport",
    "analyze_paths",
    "analyze_project",
]

#: Stats fields that are point-in-time gauges, not monotone ledger
#: counters — re-derived on every snapshot, so "no auditor cross-check"
#: is the wrong question for them.
GAUGE_FIELD_RE = re.compile(
    r"used_blocks|capacity_blocks|entitlement", re.IGNORECASE)

_STATS_MODULE_SUFFIX = "core.stats"
_AUDIT_MODULE_SUFFIX = "core.audit"


@dataclass
class AnalysisReport:
    """Findings plus human-readable notes about analysis scope."""

    findings: List[Finding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


# -- DD014: auditor coverage of ledger counters ------------------------------

def _counter_fields(stats_tree: ast.AST) -> List[Tuple[str, str, int]]:
    """``(class, field, line)`` for every monotone counter field."""
    fields: List[Tuple[str, str, int]] = []
    for node in ast.walk(stats_tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            annotation = stmt.annotation
            is_int = (isinstance(annotation, ast.Name)
                      and annotation.id == "int")
            has_zero_default = (isinstance(stmt.value, ast.Constant)
                                and stmt.value.value == 0)
            if not (is_int and has_zero_default):
                continue
            if GAUGE_FIELD_RE.search(stmt.target.id):
                continue
            fields.append((node.name, stmt.target.id, stmt.lineno))
    return fields


def _referenced_names(audit_tree: ast.AST) -> Set[str]:
    """Attribute names and identifier-shaped string constants the
    auditor touches — the (object-insensitive) evidence that a counter
    participates in at least one invariant."""
    names: Set[str] = set()
    for node in ast.walk(audit_tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _check_audit_coverage(project: Project, notes: List[str]) -> List[Finding]:
    stats_mod = None
    audit_mod = None
    for name, ctx in project.modules.items():
        if name.endswith(_STATS_MODULE_SUFFIX):
            stats_mod = ctx
        elif name.endswith(_AUDIT_MODULE_SUFFIX):
            audit_mod = ctx
    if stats_mod is None or audit_mod is None:
        notes.append(
            "DD014 skipped: core/stats.py and core/audit.py are not both "
            "in the analyzed set")
        return []
    referenced = _referenced_names(audit_mod.tree)
    findings: List[Finding] = []
    for cls_name, field_name, line in _counter_fields(stats_mod.tree):
        if field_name in referenced:
            continue
        findings.append(Finding(
            rule_id="DD014", path=stats_mod.rel, line=line, col=0,
            message=(
                f"ledger counter '{cls_name}.{field_name}' has no auditor "
                f"cross-check — no invariant in {audit_mod.rel} "
                f"references it, so drift in it is invisible to shadow "
                f"accounting"),
        ))
    return findings


# -- orchestration -----------------------------------------------------------

def analyze_project(
    project: Project,
    rule_ids: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the whole-program analyzers over a loaded project."""
    wanted = set(rule_ids) if rule_ids is not None else set(WHOLE_PROGRAM_RULE_IDS)
    report = AnalysisReport(notes=list(project.notes))
    findings: List[Finding] = []
    if "DD012" in wanted:
        findings.extend(analyze_asyncsafe(project))
    if "DD014" in wanted:
        findings.extend(_check_audit_coverage(project, report.notes))
    # Filter through the same per-file tables the engine parsed.
    tables = {ctx.rel: ctx.suppressions for ctx in project.modules.values()}
    report.findings = sorted(
        (f for f in findings if not tables[f.path].suppresses(f)),
        key=Finding.sort_key)
    return report


def analyze_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Load every ``repro``-tree file under ``paths`` and analyze it."""
    files = list(iter_python_files(paths))
    project = Project.load(files, root=root)
    return analyze_project(project, rule_ids=rule_ids)
