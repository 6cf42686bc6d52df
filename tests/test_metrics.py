"""Tests for metrics containers and reporting."""

import pytest

from repro.metrics import (
    Histogram,
    MetricsRegistry,
    TimeSeries,
    ascii_plot,
    format_table,
)


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("x")
        ts.record(0, 1.0)
        ts.record(10, 2.0)
        assert list(ts) == [(0, 1.0), (10, 2.0)]
        assert len(ts) == 2
        assert ts.last == 2.0

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(10, 1.0)
        with pytest.raises(ValueError):
            ts.record(5, 2.0)

    def test_mean_window(self):
        ts = TimeSeries()
        for t, v in [(0, 10), (10, 20), (20, 30)]:
            ts.record(t, v)
        assert ts.mean() == pytest.approx(20)
        assert ts.mean(start=5) == pytest.approx(25)
        assert ts.mean(start=5, end=15) == pytest.approx(20)
        assert ts.mean(start=100) == 0.0

    def test_max_window(self):
        ts = TimeSeries()
        for t, v in [(0, 10), (10, 50), (20, 30)]:
            ts.record(t, v)
        assert ts.max() == 50
        assert ts.max(start=15) == 30


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1.5], ["long-name", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") for line in lines)
        assert "long-name" in text
        assert "2.25" in text

    def test_format_table_title(self):
        text = format_table(["h"], [["x"]], title="T")
        assert text.startswith("T\n")

    def test_ascii_plot_renders(self):
        ts = TimeSeries("s")
        for t in range(10):
            ts.record(t * 10, t * 5.0)
        art = ascii_plot({"s": ts}, width=40, height=8, title="plot")
        assert "plot" in art
        assert "legend" in art

    def test_ascii_plot_empty(self):
        assert "(no data)" in ascii_plot({})


class TestHistogram:
    def test_empty_and_single(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        hist.add(0.003)
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 0.003

    def test_quantiles_bounded_relative_error(self):
        hist = Histogram("h")
        values = [i / 1000.0 for i in range(1, 2001)]  # 1ms .. 2s
        for v in values:
            hist.add(v)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = values[int(q * (len(values) - 1))]
            approx = hist.quantile(q)
            # log buckets at 2^0.25 growth: <= ~19% relative error.
            assert abs(approx - exact) / exact < 0.2

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram("h")
        hist.add(1.0)
        hist.add(1.0)
        hist.add(1.0)
        assert hist.quantile(0.0) >= 1.0
        assert hist.quantile(1.0) <= 1.0

    def test_underflow_bucket(self):
        hist = Histogram("h", lo=1e-3)
        hist.add(0.0)
        hist.add(1e-4)
        assert hist.count == 2
        assert hist.quantile(1.0) <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("h", growth=1.0)
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_dict_round_trip(self):
        hist = Histogram("h")
        for v in (0.001, 0.05, 0.9, 14.0):
            hist.add(v)
        clone = Histogram.from_dict(hist.as_dict())
        assert clone.count == hist.count
        assert clone.total == pytest.approx(hist.total)
        assert clone.min == hist.min
        assert clone.max == hist.max
        for q in (0.1, 0.5, 0.99):
            assert clone.quantile(q) == hist.quantile(q)

    def test_empty_dict_round_trip(self):
        clone = Histogram.from_dict(Histogram("h").as_dict())
        assert clone.count == 0
        assert clone.quantile(0.5) == 0.0

    def test_default_buckets_collapse_ns_scale_samples(self):
        # The simulated-magnitude default (lo=1e-7 s) cannot tell 5 ns
        # from 80 ns when samples arrive as seconds: both underflow.
        hist = Histogram("h")
        for ns in (5, 40, 80):
            hist.add(ns * 1e-9)
        assert hist._counts == {0: 3}

    def test_wallclock_ns_preserves_ns_precision(self):
        hist = Histogram.wallclock_ns("service.lat.get")
        samples = [250, 300, 400, 800, 1_200, 2_000_000]  # 250ns .. 2ms
        for ns in samples:
            hist.add(ns)
        # Every sample lands above the 1 ns floor in a distinct region;
        # quantiles keep the log-bucket relative-error bound at ns scale.
        assert 0 not in hist._counts
        assert hist.min == 250
        assert hist.max == 2_000_000
        p50 = hist.quantile(0.5)
        assert 400 * 0.8 <= p50 <= 800 * 1.2
        assert hist.quantile(1.0) == 2_000_000
        # Large perf_counter_ns() deltas survive exactly (no float s
        # conversion): a 3.6e12 ns (one hour) outlier keeps its bucket.
        hist.add(3_600_000_000_000)
        assert hist.max == 3_600_000_000_000

class TestRegistryHistograms:
    def test_create_on_use_and_observe(self):
        reg = MetricsRegistry()
        reg.wallclock_histogram("lat").add(500)
        reg.wallclock_histogram("lat").add(1500)
        assert reg.wallclock_histogram("lat").count == 2

    def test_histograms_prefix_filter(self):
        reg = MetricsRegistry()
        reg.wallclock_histogram("service.lat.get").add(1)
        reg.wallclock_histogram("service.lat.set").add(2)
        reg.wallclock_histogram("service.disk.get").add(3)
        assert set(reg.histograms("service.lat.")) == {"service.lat.get",
                                                      "service.lat.set"}
        assert set(reg.histograms()) == {"service.lat.get", "service.lat.set",
                                         "service.disk.get"}

    def test_wallclock_histogram_create_on_use(self):
        reg = MetricsRegistry()
        hist = reg.wallclock_histogram("service.lat.get")
        hist.add(750)  # 750 ns
        assert hist._counts != {0: 1}
        # The same name resolves to the same object.
        assert reg.wallclock_histogram("service.lat.get") is hist
        assert reg.histograms() == {"service.lat.get": hist}
