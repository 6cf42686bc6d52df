"""Loader for the checks that need more than one file (DD012, DD014).

:class:`Project` parses every file whose path contains a ``repro/``
component and derives its dotted module name from the path, so the same
loader serves ``src/repro`` and the fixture mini-project under
``tests/lint_fixtures/interproc``.  Files outside any ``repro`` tree
(tests, benchmarks) are linted per file but take no part here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .engine import LintContext, load_context

__all__ = ["Project"]


def _module_name_for(rel: str) -> Optional[str]:
    """Dotted module name derived from the last ``repro/`` path marker,
    or ``None`` for files outside any ``repro`` tree."""
    parts = rel.split("/")
    try:
        idx = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    tail = parts[idx:]
    tail[-1] = tail[-1][:-3] if tail[-1].endswith(".py") else tail[-1]
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


class Project:
    """Parsed modules of one (or several merged) ``repro`` trees."""

    def __init__(self) -> None:
        #: dotted module name (e.g. "repro.core.stats") -> the parse and
        #: suppression table the per-file rules use.
        self.modules: Dict[str, LintContext] = {}
        self.notes: List[str] = []

    @classmethod
    def load(cls, files: Sequence[Path], root: Optional[Path] = None) -> "Project":
        project = cls()
        for path in files:
            ctx = load_context(path, root=root)
            if ctx is None:       # syntax error: per-file lint reports it
                continue
            name = _module_name_for(ctx.rel)
            if name is None:
                continue
            if name in project.modules:
                project.notes.append(
                    f"module name collision: {ctx.rel} shadows "
                    f"{project.modules[name].rel} as {name!r}; first wins"
                )
                continue
            project.modules[name] = ctx
        return project
