"""Tests for the post-run analysis helpers."""

import json

from repro.analysis import ShapeExpectation, result_to_json
from repro.experiments.runner import ExperimentResult
from repro.metrics import TimeSeries


class TestJsonExport:
    def test_result_roundtrip(self):
        result = ExperimentResult("exp", "desc")
        result.add_table("t", ["h1"], [[1.5]])
        result.scalars["s"] = 3.0
        result.note("a note")
        ts = TimeSeries()
        ts.record(0, 9.0)
        result.add_series("g/x", ts)
        payload = json.loads(result_to_json(result))
        assert payload["name"] == "exp"
        assert payload["scalars"] == {"s": 3.0}
        assert payload["tables"]["t"]["rows"] == [[1.5]]
        assert payload["series"]["g/x"]["values"] == [9.0]
        assert payload["notes"] == ["a note"]


class TestShapeExpectation:
    def test_all_pass(self):
        exp = (ShapeExpectation()
               .greater("speedup", 3.0)
               .less("loss", 1.0)
               .equals("evictions", 0.0)
               .ratio_above("dd", "morai", 5.0))
        scalars = {"speedup": 6.0, "loss": 0.5, "evictions": 0.0,
                   "dd": 100.0, "morai": 10.0}
        assert exp.check(scalars) == []

    def test_failures_reported(self):
        exp = ShapeExpectation().greater("x", 10.0).less("y", 1.0)
        failures = exp.check({"x": 5.0, "y": 2.0})
        assert len(failures) == 2
        assert any("x" in f for f in failures)

    def test_missing_key_reported(self):
        failures = ShapeExpectation().greater("ghost", 1.0).check({})
        assert failures == ["ghost: missing"]

    def test_ratio_with_zero_denominator(self):
        failures = (ShapeExpectation()
                    .ratio_above("a", "b", 2.0)
                    .check({"a": 1.0, "b": 0.0}))
        assert len(failures) == 1

