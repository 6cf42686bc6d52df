"""Await-interleaving analysis for the live service (rule DD012).

The asyncio service is single-threaded, so *synchronous* spans are
atomic — but every ``await`` yields the event loop, and any other
connection handler, the telemetry sidecar, or the snapshot task may run
in the gap.  The classic corruption is check-then-act / read-modify-
write on shared state split across that gap:

    counter = self.ops          # load
    await something()           # another handler mutates self.ops
    self.ops = counter + 1      # store commits the stale read

The await-segmentation model: each ``async def`` in a real-time module
(``service/``, ``obs/live.py``) is cut into segments at its ``await``
expressions.  For every ``self``-rooted attribute path the analyzer
records loads, stores, and awaits (with their lines) and reports:

* **statement-level RMW** — an assignment whose right-hand side both
  awaits and reads the path being stored (``self.x = await f(self.x)``),
  and any ``self.x += await …`` / ``self.x op= …`` containing an await;
* **cross-segment RMW** — a load of the path in one segment and a store
  in a later one (load line < await line < store line, all strict), i.e.
  a value read before the suspension point commits after it.

Accesses inside an ``async with`` whose context expression names a lock
(``…lock…``/``…mutex…``/``…sem…``/``…guard…``) are exempt — the lock
serializes the critical section.  Everything else needs either a
restructure (capture-then-swap before the await; the pattern
``obj, self.attr = self.attr, None`` is atomic) or a justified
``dd-lint: disable=DD012`` single-writer argument.

Known limits (documented in docs/LINTING.md): aliased shared state
(``cache = self.cache`` then mutating ``cache.x``) is tracked one level
deep only via the ``self``-rooted path; cross-coroutine invariants
(two different methods racing on the same field) are approximated by
analyzing each coroutine alone.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, LintContext, WitnessHop
from .project import Project
from .rules import dotted_name, is_realtime

__all__ = ["analyze_asyncsafe"]

_RULE_ID = "DD012"

_LOCK_NAME_RE = re.compile(r"lock|mutex|sem|guard", re.IGNORECASE)


def _coroutines(
    name: str, ctx: LintContext
) -> Iterator[Tuple[str, ast.AsyncFunctionDef]]:
    """``(qualified name, node)`` of each top-level ``async def`` and
    each ``async def`` method of a top-level class of module ``name``."""
    for stmt in ctx.tree.body:  # type: ignore[attr-defined]
        if isinstance(stmt, ast.AsyncFunctionDef):
            yield f"{name}:{stmt.name}", stmt
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.AsyncFunctionDef):
                    yield f"{name}:{stmt.name}.{member.name}", member


@dataclass
class _Access:
    line: int
    locked: bool


class _CoroutineScan:
    """Loads / stores / awaits of one ``async def``, segmented."""

    def __init__(self, func_node: ast.AST) -> None:
        self.loads: Dict[str, List[_Access]] = {}
        self.stores: Dict[str, List[_Access]] = {}
        self.awaits: List[_Access] = []
        #: statement-level findings: (line, col, path, has_aug)
        self.stmt_rmw: List[Tuple[int, int, str, bool]] = []
        self._walk(func_node, locked=False)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _self_path(node: ast.AST) -> Optional[str]:
        """``self.a`` / ``self.a.b`` for an attribute rooted at self."""
        dotted = dotted_name(node)
        if dotted is not None and dotted.startswith("self."):
            return dotted
        return None

    def _record_expr(self, node: ast.AST, locked: bool) -> None:
        """Record loads and awaits inside one expression subtree."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Await):
                self.awaits.append(_Access(sub.lineno, locked))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                path = self._self_path(sub)
                if path is not None:
                    self.loads.setdefault(path, []).append(
                        _Access(sub.lineno, locked))

    def _paths_read(self, node: ast.AST) -> Set[str]:
        found: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                path = self._self_path(sub)
                if path is not None:
                    found.add(path)
        return found

    @staticmethod
    def _has_await(node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Await) for sub in ast.walk(node))

    def _record_store_target(self, target: ast.AST, line: int, locked: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store_target(elt, line, locked)
            return
        if isinstance(target, ast.Starred):
            self._record_store_target(target.value, line, locked)
            return
        path = None
        if isinstance(target, ast.Attribute):
            path = self._self_path(target)
        elif isinstance(target, ast.Subscript):
            path = self._self_path(target.value)
        if path is not None:
            self.stores.setdefault(path, []).append(_Access(line, locked))

    # -- traversal -------------------------------------------------------

    def _walk(self, node: ast.AST, locked: bool) -> None:
        for stmt in ast.iter_child_nodes(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.AsyncWith):
                item_locked = locked or any(
                    _LOCK_NAME_RE.search(dotted_name(item.context_expr) or "")
                    is not None
                    or (isinstance(item.context_expr, ast.Call)
                        and _LOCK_NAME_RE.search(
                            dotted_name(item.context_expr.func) or "")
                        is not None)
                    for item in stmt.items
                )
                for item in stmt.items:
                    self._record_expr(item.context_expr, locked)
                # Entering an async with awaits __aenter__.
                self.awaits.append(_Access(stmt.lineno, locked))
                self._walk(stmt, item_locked)
                continue
            if isinstance(stmt, ast.Assign):
                self._scan_assign(stmt.targets, stmt.value, stmt, locked,
                                  aug=False)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._scan_assign([stmt.target], stmt.value, stmt, locked,
                                  aug=False)
            elif isinstance(stmt, ast.AugAssign):
                self._scan_assign([stmt.target], stmt.value, stmt, locked,
                                  aug=True)
            else:
                self._record_expr_parts(stmt, locked)
            self._walk(stmt, locked)

    def _record_expr_parts(self, stmt: ast.AST, locked: bool) -> None:
        """Record loads/awaits of a non-assignment statement's own
        expressions (children that are statements are walked separately)."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt) or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            self._record_expr(child, locked)

    def _scan_assign(
        self,
        targets: List[ast.AST],
        value: ast.AST,
        stmt: ast.AST,
        locked: bool,
        aug: bool,
    ) -> None:
        self._record_expr(value, locked)
        target_paths: Set[str] = set()
        for target in targets:
            self._record_store_target(target, stmt.lineno, locked)
            if isinstance(target, ast.Attribute):
                path = self._self_path(target)
                if path is not None:
                    target_paths.add(path)
            elif isinstance(target, ast.Subscript):
                path = self._self_path(target.value)
                if path is not None:
                    target_paths.add(path)
        if locked or not self._has_await(value):
            return
        read_paths = self._paths_read(value)
        for path in sorted(target_paths):
            if aug or path in read_paths:
                self.stmt_rmw.append(
                    (stmt.lineno, getattr(stmt, "col_offset", 0), path, aug))


def _cross_segment_rmw(
    loads: List[_Access], awaits: List[_Access], stores: List[_Access]
) -> Optional[Tuple[_Access, _Access, _Access]]:
    """First unlocked ``load < await < store`` triple by line, if any."""
    for load in loads:
        if load.locked:
            continue
        for store in stores:
            if store.locked or store.line <= load.line:
                continue
            for awaited in awaits:
                if load.line < awaited.line < store.line:
                    return load, awaited, store
    return None


def analyze_asyncsafe(project: Project) -> List[Finding]:
    """Run DD012 over the real-time modules of ``project``."""
    findings: List[Finding] = []
    for name, ctx in project.modules.items():
        if not is_realtime(ctx):
            continue
        rel = ctx.rel
        for qual, node in _coroutines(name, ctx):
            scan = _CoroutineScan(node)
            flagged: Set[str] = set()
            for line, col, path, aug in scan.stmt_rmw:
                flagged.add(path)
                verb = "augments" if aug else "re-reads"
                findings.append(Finding(
                    rule_id=_RULE_ID, path=rel, line=line, col=col,
                    message=(
                        f"'{qual}' {verb} shared '{path}' in a statement "
                        f"that awaits — the loop may interleave another "
                        f"handler between the read and the write"),
                    witness=(
                        WitnessHop(rel, line,
                                   f"read of {path} and await in one statement"),
                        WitnessHop(rel, line,
                                   f"store to {path} commits the stale value"),
                    ),
                ))
            for path, stores in sorted(scan.stores.items()):
                if path in flagged:
                    continue
                hit = _cross_segment_rmw(scan.loads.get(path, []), scan.awaits, stores)
                if hit is None:
                    continue
                load, awaited, store = hit
                findings.append(Finding(
                    rule_id=_RULE_ID, path=rel, line=store.line, col=0,
                    message=(
                        f"'{qual}' loads shared '{path}' (line "
                        f"{load.line}), awaits (line {awaited.line}), then "
                        f"stores it (line {store.line}) — check-then-act "
                        f"across an await; capture-and-swap before awaiting "
                        f"or guard with an async lock"),
                    witness=(
                        WitnessHop(rel, load.line, f"load of {path}"),
                        WitnessHop(rel, awaited.line,
                                   "await yields the event loop here"),
                        WitnessHop(rel, store.line,
                                   f"store to {path} commits the stale value"),
                    ),
                ))
    findings.sort(key=Finding.sort_key)
    return findings
