"""Prometheus exposition: rendering, escaping, and the format checker.

The renderer and :func:`check_exposition` are two halves of one
contract — everything the renderer emits must pass the checker, and the
checker must reject the classic corruption shapes (missing ``+Inf``,
non-cumulative buckets, duplicate samples) that a half-scraped or
hand-edited body shows.
"""

import contextlib
import io
import math
import unittest

from repro.metrics import (
    Histogram,
    MetricFamily,
    MetricsRegistry,
    check_exposition,
    registry_families,
    render_families,
)
from repro.metrics.exposition import (
    escape_label_value,
    format_value,
    histogram_family,
    main as exposition_main,
    sanitize_label_name,
    sanitize_metric_name,
)


class NameAndValueTests(unittest.TestCase):
    def test_dotted_names_sanitize(self):
        self.assertEqual(sanitize_metric_name("service.lat.get"),
                         "service_lat_get")
        self.assertEqual(sanitize_metric_name("a:b"), "a:b")  # colons ok
        self.assertEqual(sanitize_metric_name("9lives"), "_9lives")
        self.assertEqual(sanitize_metric_name(""), "_")

    def test_label_names_reject_colons(self):
        self.assertEqual(sanitize_label_name("host:0"), "host_0")
        self.assertEqual(sanitize_label_name("7th"), "_7th")

    def test_label_value_escaping(self):
        self.assertEqual(escape_label_value('say "hi"'), 'say \\"hi\\"')
        self.assertEqual(escape_label_value("a\\b"), "a\\\\b")
        self.assertEqual(escape_label_value("two\nlines"), "two\\nlines")
        # Backslash first: escaping a quote must not re-escape its own
        # backslash.
        self.assertEqual(escape_label_value('\\"'), '\\\\\\"')

    def test_format_value(self):
        self.assertEqual(format_value(math.inf), "+Inf")
        self.assertEqual(format_value(-math.inf), "-Inf")
        self.assertEqual(format_value(float("nan")), "NaN")
        self.assertEqual(format_value(3.0), "3")
        self.assertEqual(format_value(0.5), "0.5")
        self.assertEqual(format_value(1e18), "1e+18")

    def test_escaped_labels_round_trip_through_checker(self):
        family = MetricFamily("dd_thing", "gauge")
        family.add(1.0, labels={"tenant": 'we"ird\\name\n'})
        text = render_families([family])
        self.assertEqual(check_exposition(text), [])


class HistogramFamilyTests(unittest.TestCase):
    def test_buckets_are_cumulative_and_inf_closed(self):
        hist = Histogram.wallclock_ns("lat")
        for value in (10, 100, 1000, 10_000, 10_000):
            hist.add(value)
        family = histogram_family("dd_lat", hist)
        buckets = [(labels["le"], value)
                   for suffix, labels, value in family.samples
                   if suffix == "_bucket"]
        self.assertEqual(buckets[-1][0], "+Inf")
        self.assertEqual(buckets[-1][1], float(hist.count))
        cumulative = [value for _, value in buckets]
        self.assertEqual(cumulative, sorted(cumulative))
        sums = [(suffix, value) for suffix, _, value in family.samples
                if suffix in ("_sum", "_count")]
        self.assertIn(("_sum", hist.total), sums)
        self.assertIn(("_count", 5.0), sums)
        self.assertEqual(check_exposition(render_families([family])), [])

    def test_wallclock_ns_bucket_boundaries(self):
        # A 1 ns sample sits exactly at lo: it must land in the underflow
        # bucket whose upper bound IS lo, not above it.
        hist = Histogram.wallclock_ns("edge")
        hist.add(1)
        bounds = hist.cumulative_buckets()
        self.assertEqual(bounds[0], (Histogram.WALLCLOCK_NS_LO, 1))
        self.assertEqual(bounds[-1], (math.inf, 1))
        # Just above lo: a finite bucket strictly above lo appears, and
        # the cumulative count at +Inf still equals the total count.
        hist.add(2)
        bounds = hist.cumulative_buckets()
        self.assertGreater(bounds[1][0], Histogram.WALLCLOCK_NS_LO)
        self.assertEqual(bounds[-1], (math.inf, 2))
        self.assertEqual(
            check_exposition(render_families(
                [histogram_family("dd_edge", hist)])), [])

    def test_empty_histogram_still_renders_validly(self):
        family = histogram_family("dd_empty", Histogram.wallclock_ns("e"))
        text = render_families([family])
        self.assertIn('dd_empty_bucket{le="+Inf"} 0', text)
        self.assertEqual(check_exposition(text), [])


class RegistryFamiliesTests(unittest.TestCase):
    """A registry's histograms render with their full bucket sets."""

    def test_histograms_render(self):
        registry = MetricsRegistry()
        registry.wallclock_histogram("service.lat.get").add(500)
        text = render_families(registry_families(registry))
        self.assertEqual(check_exposition(text), [])
        self.assertIn("# TYPE dd_service_lat_get histogram", text)
        self.assertIn('dd_service_lat_get_bucket{le="+Inf"} 1', text)
        self.assertIn("dd_service_lat_get_count 1", text)

    def test_empty_registry_renders_nothing(self):
        self.assertEqual(registry_families(MetricsRegistry()), [])

    def test_same_name_families_merge_under_one_type(self):
        families = []
        for index in range(2):
            gauge = MetricFamily("dd_pool_used_mb", "gauge")
            gauge.add(1.0 + index, labels={"tenant": f"t{index}"})
            hist = Histogram("obs.lat.get")
            hist.add(0.001 * (1 + index))
            families += [gauge, histogram_family(
                "dd_obs_lat_get", hist, labels={"tenant": f"t{index}"})]
        text = render_families(families)
        self.assertEqual(check_exposition(text), [])
        self.assertEqual(text.count("# TYPE dd_pool_used_mb"), 1)
        self.assertIn('dd_pool_used_mb{tenant="t0"} 1', text)
        self.assertIn('dd_pool_used_mb{tenant="t1"} 2', text)
        self.assertEqual(text.count("# TYPE dd_obs_lat_get histogram"), 1)
        self.assertIn('dd_obs_lat_get_count{tenant="t1"} 1', text)

    def test_kind_mismatch_raises(self):
        with self.assertRaises(ValueError):
            render_families([MetricFamily("dd_x", "counter"),
                             MetricFamily("dd_x", "gauge")])


class CheckerTests(unittest.TestCase):
    def test_rejects_malformed_type_line(self):
        problems = check_exposition("# TYPE dd_x sideways\ndd_x 1\n")
        self.assertTrue(any("TYPE" in p for p in problems))

    def test_rejects_duplicate_samples(self):
        text = 'dd_x{t="a"} 1\ndd_x{t="a"} 2\n'
        problems = check_exposition(text)
        self.assertTrue(any("duplicate sample" in p for p in problems))

    def test_rejects_unparseable_line(self):
        problems = check_exposition("!!! not a sample\n")
        self.assertTrue(any("unparseable" in p for p in problems))

    def test_rejects_histogram_missing_inf(self):
        text = ("# TYPE dd_h histogram\n"
                'dd_h_bucket{le="10"} 1\n'
                "dd_h_sum 5\ndd_h_count 1\n")
        problems = check_exposition(text)
        self.assertTrue(any("+Inf" in p for p in problems))

    def test_rejects_non_cumulative_buckets(self):
        text = ("# TYPE dd_h histogram\n"
                'dd_h_bucket{le="10"} 5\n'
                'dd_h_bucket{le="20"} 3\n'
                'dd_h_bucket{le="+Inf"} 5\n'
                "dd_h_sum 5\ndd_h_count 5\n")
        problems = check_exposition(text)
        self.assertTrue(any("not cumulative" in p for p in problems))

    def test_rejects_inf_count_mismatch(self):
        text = ("# TYPE dd_h histogram\n"
                'dd_h_bucket{le="+Inf"} 5\n'
                "dd_h_sum 5\ndd_h_count 4\n")
        problems = check_exposition(text)
        self.assertTrue(any("_count" in p for p in problems))

    def test_accepts_multi_labelset_histograms(self):
        families = []
        for tenant in ("a", "b"):
            hist = Histogram.wallclock_ns(tenant)
            hist.add(100 if tenant == "a" else 100_000)
            families.append(histogram_family(
                "dd_lat", hist, labels={"tenant": tenant}))
        self.assertEqual(check_exposition(render_families(families)), [])


class CliTests(unittest.TestCase):
    def _run(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(buffer):
            status = exposition_main(argv)
        return status, buffer.getvalue()

    def test_valid_file_reports_ok(self):
        import tempfile
        from pathlib import Path

        gauge = MetricFamily("dd_gets", "gauge")
        gauge.add(3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.prom"
            path.write_text(render_families([gauge]))
            status, output = self._run([str(path)])
        self.assertEqual(status, 0)
        self.assertIn("OK (1 samples)", output)

    def test_invalid_file_reports_problems(self):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.prom"
            path.write_text("!!! nope\n")
            status, output = self._run([str(path)])
        self.assertEqual(status, 1)
        self.assertIn("INVALID", output)

    def test_usage_error_exits_2(self):
        status, _ = self._run([])
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
