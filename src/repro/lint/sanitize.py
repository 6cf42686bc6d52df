"""Runtime nondeterminism sanitizer.

The static hazard tests (``tests/test_hazards.py``) catch what the AST
shows; this module catches what only a run shows (it found the one
determinism bug the tree ever shipped, the ``PYTHONHASHSEED``-dependent
``ShardsEstimator._hash`` of the since-deleted ``repro.policies``).
``python -m repro.lint.sanitize`` performs a smoke run that:

1. asserts ``PYTHONHASHSEED`` discipline (set, and not ``random``) so
   hash order is pinned for the process under test;
2. installs a *decision-path guard*: Algorithm 1's one entry point
   (``select_victim``) is wrapped to reject unordered containers
   (``set``/``frozenset``/dict views) at the call boundary, so hash
   order cannot reach victim selection;
3. runs a fixed-seed experiment **twice in the same process** and
   compares the two summaries byte-for-byte, which flushes out leaked
   module-global state as well as hash-order dependence.

Exit status: 0 when the smoke run is deterministic and no guard fired;
1 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "NondeterminismError",
    "assert_ordered",
    "decision_guards",
    "hashseed_problem",
    "run_smoke",
    "main",
]

#: Container types whose iteration order depends on PYTHONHASHSEED.
_UNORDERED_TYPES: Tuple[type, ...] = (
    set,
    frozenset,
    type({}.keys()),
    type({}.values()),
    type({}.items()),
)


class NondeterminismError(AssertionError):
    """A decision-path entry point was handed an unordered container."""


def hashseed_problem() -> Optional[str]:
    """Explain what's wrong with ``PYTHONHASHSEED``, or ``None`` if fine."""
    value = os.environ.get("PYTHONHASHSEED")
    if value is None:
        return ("PYTHONHASHSEED is not set — hash order varies per process; "
                "export PYTHONHASHSEED=0 for the smoke run")
    if value == "random":
        return "PYTHONHASHSEED=random explicitly requests nondeterminism"
    return None


def assert_ordered(value: Any, where: str) -> None:
    """Raise :class:`NondeterminismError` if ``value`` is hash-ordered."""
    if isinstance(value, _UNORDERED_TYPES):
        raise NondeterminismError(
            f"{where} received a {type(value).__name__} — iteration order "
            f"depends on PYTHONHASHSEED; pass an explicitly ordered "
            f"sequence (list/tuple, ideally sorted)")


class decision_guards:
    """Context manager wrapping hot decision-path entry points.

    Patches :mod:`repro.core.victim` plus the name
    :mod:`repro.core.engine` bound at import time, so the guarded
    wrapper is hit regardless of which module the caller resolved the
    function through.
    """

    _GUARDED = ("select_victim",)

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Callable[..., Any]]] = []
        #: Number of calls that passed through the guards (smoke-run
        #: evidence that the guarded paths actually executed).
        self.calls = 0

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def guarded(entities: Any, *args: Any, **kwargs: Any) -> Any:
            assert_ordered(entities, f"{name}(entities=...)")
            self.calls += 1
            return fn(entities, *args, **kwargs)

        return guarded

    def __enter__(self) -> "decision_guards":
        from ..core import engine, victim

        wrappers = {name: self._wrap(name, getattr(victim, name))
                    for name in self._GUARDED}
        for module in (victim, engine):
            for name, wrapper in wrappers.items():
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def run_smoke(
    experiment: str = "caching_modes",
    scale: float = 0.02,
    seed: int = 42,
    require_hashseed: bool = True,
    out: Callable[[str], None] = print,
) -> int:
    """Guarded, double-run determinism smoke; returns a process exit code."""
    problem = hashseed_problem() if require_hashseed else None
    if problem is not None:
        out(f"sanitize: FAIL — {problem}")
        return 1

    from ..experiments import ALL_EXPERIMENTS

    if experiment not in ALL_EXPERIMENTS:
        out(f"sanitize: unknown experiment {experiment!r} "
            f"(choose from {', '.join(sorted(ALL_EXPERIMENTS))})")
        return 1
    cls = ALL_EXPERIMENTS[experiment]

    summaries: List[str] = []
    with decision_guards() as guards:
        for round_no in (1, 2):
            try:
                # jobs=1: the guards count calls in this process.
                result = cls(scale=scale, seed=seed).run(jobs=1)
            except NondeterminismError as exc:
                out(f"sanitize: FAIL — decision-path guard fired on round "
                    f"{round_no}: {exc}")
                return 1
            summaries.append(result.summary(plots=False))

    if guards.calls == 0:
        out("sanitize: FAIL — the guarded decision paths never executed; "
            "the smoke scenario is too small to exercise eviction")
        return 1
    if summaries[0] != summaries[1]:
        first, second = summaries[0].splitlines(), summaries[1].splitlines()
        diverging = next(
            (i for i, (a, b) in enumerate(zip(first, second)) if a != b),
            min(len(first), len(second)))
        out(f"sanitize: FAIL — fixed-seed double run diverged at output "
            f"line {diverging + 1}; module-global state is leaking between "
            f"runs or hash order reached a decision")
        return 1
    out(f"sanitize: OK — {experiment} at scale {scale} seed {seed}: "
        f"{guards.calls} guarded victim selections, double-run output "
        f"byte-identical ({len(summaries[0])} bytes)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.sanitize",
        description="runtime nondeterminism sanitizer (a guarded double-run "
                    "smoke with PYTHONHASHSEED discipline)",
    )
    parser.add_argument("--experiment", default="caching_modes",
                        help="experiment to smoke-run (default: caching_modes)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="experiment scale (default: 0.02)")
    parser.add_argument("--seed", type=int, default=42,
                        help="fixed seed for both rounds (default: 42)")
    parser.add_argument("--no-hashseed-check", action="store_true",
                        help="skip the PYTHONHASHSEED discipline assertion")
    args = parser.parse_args(argv)
    return run_smoke(
        experiment=args.experiment,
        scale=args.scale,
        seed=args.seed,
        require_hashseed=not args.no_hashseed_check,
    )


if __name__ == "__main__":
    sys.exit(main())
