"""Command-line driver for sim-lint.

Usage::

    python -m repro.lint                      # lint src/ and tests/
    python -m repro.lint src tests            # the CI gate
    python -m repro.lint --list-rules --format json
    python -m repro.lint src --rule DD001 --rule DD012 --format json

The per-file rules (DD001, DD002) run on every file; DD012 and DD014 run
over whatever part of a ``repro`` tree the given paths contain.

Exit status: 0 clean; 1 findings; 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis import analyze_paths
from .engine import (
    Finding,
    format_findings_json,
    format_findings_text,
    lint_paths,
)
from .rules import ALL_RULES, WHOLE_PROGRAM_RULE_IDS, rule_catalog


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="sim-lint: determinism & invariant static analysis "
                    "for the DoubleDecker reproduction",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src tests)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="DDnnn",
        help="only report the given rule id (repeatable)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit (--format json for the "
             "machine-readable form)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    catalog = rule_catalog()
    if args.list_rules:
        if args.format == "json":
            print(json.dumps({"version": 2, "rules": catalog},
                             indent=2, sort_keys=True))
        else:
            for entry in catalog:
                print(f"{entry['id']}  ({entry['scope']}) {entry['title']}")
                print(f"       {entry['rationale']}")
                if entry["witness"]:
                    print(f"       witness: {entry['witness']}")
        return 0

    wanted = {entry["id"] for entry in catalog}
    if args.rule:
        unknown = sorted(set(args.rule) - wanted)
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(see --list-rules)")
        wanted = set(args.rule)

    paths: List[Path] = []
    for raw in args.paths or ["src", "tests"]:
        path = Path(raw)
        if not path.exists():
            parser.error(f"no such path: {raw}")
        paths.append(path)

    # The per-file pass also emits DD000 (pragma defects, syntax errors),
    # so it runs even when --rule selects no per-file rule.
    findings: List[Finding] = lint_paths(
        paths, [rule for rule in ALL_RULES if rule.rule_id in wanted])
    notes: List[str] = []
    whole_program = sorted(wanted & set(WHOLE_PROGRAM_RULE_IDS))
    if whole_program:
        report = analyze_paths(paths, rule_ids=whole_program)
        notes = report.notes
        findings.extend(report.findings)
    findings = sorted((f for f in findings if f.rule_id in wanted),
                      key=Finding.sort_key)

    # Notes are part of the text report; in json mode stdout must stay
    # machine-parseable, so they go to stderr.
    for note in notes:
        print(f"sim-lint: note: {note}",
              file=sys.stdout if args.format == "text" else sys.stderr)
    if args.format == "json":
        print(format_findings_json(findings))
    else:
        print(format_findings_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
