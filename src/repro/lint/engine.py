"""sim-lint engine: file walking, suppression parsing, finding reports.

The engine is rule-agnostic: it parses each file once, builds a
:class:`LintContext` (AST + source lines + suppression table + path
classification), hands it to every registered :class:`Rule`, and filters
the resulting :class:`Finding` list through the suppressions.

Suppression syntax (all forms require a parenthesised justification; an
unjustified suppression is itself reported as ``DD000``):

* ``# dd-lint: disable=DD001,DD002 (reason)`` — this line only;
* ``# dd-lint: disable-next-line=DD012 (reason)`` — the following line;
* ``# dd-lint: disable-file=DD002 (reason)`` — the whole file;
* ``disable=all`` suppresses every rule for the given scope.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "SuppressionTable",
    "WitnessHop",
    "format_findings_json",
    "format_findings_text",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "load_context",
]

#: Directories never walked implicitly.  ``lint_fixtures`` holds the
#: known-bad snippets the test suite asserts each rule fires on; they are
#: linted only when named explicitly on the command line.
SKIP_DIR_NAMES = {"__pycache__", "lint_fixtures", ".git"}
SKIP_DIR_SUFFIXES = (".egg-info",)

_SUPPRESS_RE = re.compile(
    r"#\s*dd-lint:\s*(?P<scope>disable|disable-next-line|disable-file)"
    r"\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*\((?P<reason>[^)]*)\))?\s*(?:#|$)"
)


@dataclass(frozen=True)
class WitnessHop:
    """One hop of a whole-program witness path (load → await → store)."""

    path: str
    line: int
    note: str

    def as_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class Finding:
    """One lint finding, machine-readable.

    There is one severity: every finding fails the run.  ``witness`` is
    empty for the per-file rules; DD012 attaches the hop-by-hop evidence
    chain that justifies the finding, rendered in text and JSON output.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    witness: Tuple[WitnessHop, ...] = ()

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.witness:
            payload["witness"] = [hop.as_dict() for hop in self.witness]
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Finding":
        hops = tuple(
            WitnessHop(path=str(h["path"]), line=int(h["line"]),  # type: ignore[arg-type, index, call-overload]
                       note=str(h["note"]))  # type: ignore[index, call-overload]
            for h in payload.get("witness", ())  # type: ignore[attr-defined, union-attr]
        )
        return Finding(
            rule_id=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),      # type: ignore[arg-type]
            col=int(payload["col"]),        # type: ignore[arg-type]
            message=str(payload["message"]),
            witness=hops,
        )


@dataclass
class SuppressionTable:
    """Parsed ``# dd-lint:`` pragmas for one file."""

    #: line number -> set of rule ids suppressed on that line ("all" wildcard).
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file.
    file_wide: Set[str] = field(default_factory=set)
    #: DD000 findings produced while parsing (unjustified suppressions).
    defects: List[Tuple[int, str]] = field(default_factory=list)
    #: (line, rule_id) pairs that actually silenced at least one finding.
    used: Set[Tuple[int, str]] = field(default_factory=set)

    def suppresses(self, finding: Finding) -> bool:
        rules = self.by_line.get(finding.line, set()) | self.file_wide
        if "all" in rules or finding.rule_id in rules:
            self.used.add((finding.line, finding.rule_id))
            return True
        return False


def _comment_tokens(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token.

    Tokenizing (rather than scanning lines) means docstrings and string
    literals may freely *mention* the pragma syntax — only actual
    comments are parsed.  Tokenizer errors (only possible on files that
    already failed to parse) degrade to yielding nothing.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(source: str, known_rules: Set[str]) -> SuppressionTable:
    table = SuppressionTable()
    for lineno, text in _comment_tokens(source):
        if "dd-lint" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            table.defects.append(
                (lineno, "malformed dd-lint pragma (expected "
                         "'# dd-lint: disable=DDnnn (reason)')"))
            continue
        rule_ids = {part.strip() for part in match.group("rules").split(",")
                    if part.strip()}
        unknown = sorted(r for r in rule_ids
                         if r != "all" and r not in known_rules)
        if unknown:
            table.defects.append(
                (lineno, f"suppression names unknown rule(s): {', '.join(unknown)}"))
        reason = (match.group("reason") or "").strip()
        if not reason:
            table.defects.append(
                (lineno, "suppression without justification — add "
                         "'(reason)' after the rule list"))
        scope = match.group("scope")
        if scope == "disable-file":
            table.file_wide |= rule_ids
        elif scope == "disable-next-line":
            table.by_line.setdefault(lineno + 1, set()).update(rule_ids)
        else:
            table.by_line.setdefault(lineno, set()).update(rule_ids)
    return table


@dataclass
class LintContext:
    """Everything a rule needs to check one file."""

    path: Path
    rel: str              # posix-style path as reported in findings
    tree: ast.AST
    lines: Sequence[str]
    suppressions: SuppressionTable

    @property
    def in_sim_code(self) -> bool:
        """True for simulator source (``src/repro/``), false for tests."""
        return "/repro/" in f"/{self.rel}"

    def module_tail(self) -> str:
        """The path relative to the ``repro`` package root, if any."""
        marker = "repro/"
        idx = self.rel.rfind(marker)
        return self.rel[idx + len(marker):] if idx >= 0 else self.rel


class Rule:
    """Base class for sim-lint rules.

    Subclasses set ``rule_id``/``title``/``rationale`` and implement
    :meth:`check`.  Rules are stateless; one instance serves the whole
    run.
    """

    rule_id: str = "DD000"
    title: str = ""
    rationale: str = ""

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    Directories in :data:`SKIP_DIR_NAMES` are pruned during the walk, but
    a path passed explicitly (even inside ``lint_fixtures``) is always
    yielded — that is how the test suite lints the bad-snippet fixtures.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(part in SKIP_DIR_NAMES or part.endswith(SKIP_DIR_SUFFIXES)
                   for part in parts[:-1]):
                continue
            yield candidate


def _rel_path(path: Path, root: Optional[Path]) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _known_rule_ids() -> Set[str]:
    """Ids a pragma may name — every suppressible rule that exists
    (per-file and whole-program), not just the ones selected with
    ``--rule`` (lazy import to avoid an engine <-> rules cycle)."""
    from .rules import ALL_RULES, WHOLE_PROGRAM_RULE_IDS

    return {rule.rule_id for rule in ALL_RULES} | set(WHOLE_PROGRAM_RULE_IDS)


def load_context(path: Path, root: Optional[Path] = None) -> Optional[LintContext]:
    """Parse one file into the shared :class:`LintContext`.

    This is the single place source is parsed and ``dd-lint`` pragmas
    are interpreted — both the per-file rule loop and the whole-program
    analyzers consume the same context, so suppression semantics cannot
    drift between them.  Returns ``None`` on a syntax error (the
    per-file path reports those as DD000).
    """
    source = path.read_text(encoding="utf-8")
    rel = _rel_path(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    return LintContext(
        path=path, rel=rel, tree=tree, lines=source.splitlines(),
        suppressions=parse_suppressions(source, _known_rule_ids()),
    )


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint one file; returns unsuppressed findings plus DD000 defects."""
    rel = _rel_path(path, root)
    try:
        ctx = load_context(path, root=root)
    except OSError as exc:
        return [Finding("DD000", rel, 1, 0, f"unreadable: {exc}")]
    if ctx is None:
        source = path.read_text(encoding="utf-8")
        try:
            ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [Finding("DD000", rel, exc.lineno or 1,
                            exc.offset or 0, f"syntax error: {exc.msg}")]
        return []
    table = ctx.suppressions
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not table.suppresses(finding):
                findings.append(finding)
    for lineno, message in table.defects:
        findings.append(Finding("DD000", rel, lineno, 0, message))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint every python file reachable from ``paths``."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules, root=root))
    findings.sort(key=Finding.sort_key)
    return findings


# -- output formats ----------------------------------------------------------

def format_findings_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "sim-lint: clean (no findings)"
    parts = []
    for f in findings:
        parts.append(
            f"{f.path}:{f.line}:{f.col}: {f.rule_id} {f.message}")
        for index, hop in enumerate(f.witness):
            arrow = "witness:" if index == 0 else "      ->"
            parts.append(f"    {arrow} {hop.path}:{hop.line}: {hop.note}")
    parts.append(f"sim-lint: {len(findings)} finding(s)")
    return "\n".join(parts)


def format_findings_json(findings: Sequence[Finding]) -> str:
    payload = {
        "version": 2,
        "tool": "sim-lint",
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
