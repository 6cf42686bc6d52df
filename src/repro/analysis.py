"""Post-run analysis helpers.

:func:`result_to_json` exports an
:class:`~repro.experiments.runner.ExperimentResult` (tables, scalars,
notes, series) for ``python -m repro.experiments --out DIR --json``.
:class:`ShapeExpectation` states a qualitative expectation over a
result's scalars as data (the same language the benchmark suite asserts
in code).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

__all__ = ["result_to_json", "ShapeExpectation"]


def result_to_json(result) -> str:
    """Serialize an ExperimentResult (tables, scalars, notes) to JSON."""
    payload: Dict[str, Any] = {
        "name": result.name,
        "description": result.description,
        "scalars": dict(result.scalars),
        "notes": list(result.notes),
        "tables": {
            key: {"headers": list(headers), "rows": [list(r) for r in rows]}
            for key, (headers, rows) in result.rows.items()
        },
        "series": {
            label: {"times": list(ts.times), "values": list(ts.values)}
            for label, ts in result.series.items()
        },
    }
    return json.dumps(payload, sort_keys=True)


class ShapeExpectation:
    """A declarative qualitative expectation over result scalars.

    The same language the benchmark suite uses in code, as data::

        exp = ShapeExpectation()
        exp.greater("web_ddmem_speedup", 3.0)
        exp.ratio_above("redis_dd", "redis_morai", 5.0)
        failures = exp.check(result.scalars)
    """

    def __init__(self) -> None:
        self._checks: List[tuple] = []

    def greater(self, key: str, threshold: float) -> "ShapeExpectation":
        self._checks.append(("greater", key, threshold))
        return self

    def less(self, key: str, threshold: float) -> "ShapeExpectation":
        self._checks.append(("less", key, threshold))
        return self

    def equals(self, key: str, value: float, tol: float = 1e-9) -> "ShapeExpectation":
        self._checks.append(("equals", key, (value, tol)))
        return self

    def ratio_above(self, num_key: str, den_key: str,
                    threshold: float) -> "ShapeExpectation":
        self._checks.append(("ratio", (num_key, den_key), threshold))
        return self

    def check(self, scalars: Mapping[str, float]) -> List[str]:
        """Evaluate all expectations; returns human-readable failures."""
        failures: List[str] = []
        for kind, key, arg in self._checks:
            if kind == "ratio":
                num_key, den_key = key
                num = scalars.get(num_key)
                den = scalars.get(den_key)
                if num is None or den is None or den == 0:
                    failures.append(f"ratio {num_key}/{den_key}: missing data")
                elif num / den <= arg:
                    failures.append(
                        f"ratio {num_key}/{den_key} = {num / den:.3g} <= {arg}"
                    )
                continue
            value = scalars.get(key)
            if value is None:
                failures.append(f"{key}: missing")
            elif kind == "greater" and not value > arg:
                failures.append(f"{key} = {value:.3g} not > {arg}")
            elif kind == "less" and not value < arg:
                failures.append(f"{key} = {value:.3g} not < {arg}")
            elif kind == "equals":
                target, tol = arg
                if abs(value - target) > tol:
                    failures.append(f"{key} = {value:.3g} != {target}")
        return failures

