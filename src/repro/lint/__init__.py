"""``repro.lint`` — the determinism & invariant static-analysis suite.

The guarantees this reproduction makes (byte-identical ``--jobs``
fan-out, fixed-seed fingerprints, exact ledger replay in ``repro.obs``,
the shadow-accounting auditor) depend on code discipline.  Most of it is
enforced dynamically — by the auditor, the fingerprint goldens, the
tier-1 suite, ruff and mypy.  ``sim-lint`` keeps only the checks nothing
else makes, or that have caught a shipped bug: no wall-clock reads in
simulated paths (DD001), no unseeded module-global randomness (DD002),
no read-modify-write of shared service state across an ``await``
(DD012), no ledger counter the auditor never reconciles (DD014).

Two entry points:

* ``python -m repro.lint [paths]`` — the static pass; see
  :mod:`repro.lint.rules` and :mod:`repro.lint.analysis`.
* ``python -m repro.lint.sanitize`` — the *runtime* nondeterminism
  sanitizer: asserts ``PYTHONHASHSEED`` discipline, wraps hot
  decision-path entry points so unordered containers are rejected at the
  call boundary, and double-runs a smoke scenario comparing fingerprints
  byte-for-byte.

Suppressions are inline and must be justified::

    started = time.time()  # dd-lint: disable=DD001 (host-side wall clock, not simulated time)

See ``docs/LINTING.md`` for the rule catalog, the retired rules and what
covers each of their hazards now, and how to add a rule.
"""

from .engine import (
    Finding,
    LintContext,
    Rule,
    SuppressionTable,
    format_findings_json,
    format_findings_text,
    iter_python_files,
    lint_file,
    lint_paths,
)
from .rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "Rule",
    "SuppressionTable",
    "format_findings_json",
    "format_findings_text",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "rule_catalog",
]
