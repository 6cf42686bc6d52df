"""``repro.lint`` — the runtime nondeterminism sanitizer,
``python -m repro.lint.sanitize`` (see :mod:`repro.lint.sanitize`).

The static hazard checks (wall clock, module-global randomness, await
races, ledger coverage) are plain tests in ``tests/test_hazards.py``;
see ``docs/LINTING.md``.
"""
