"""Metrics collection and reporting for simulation experiments."""

from .collector import MetricsRegistry
from .exposition import (
    MetricFamily,
    check_exposition,
    registry_families,
    render_families,
)
from .reporting import ascii_plot, format_table
from .timeseries import Histogram, TimeSeries

__all__ = [
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TimeSeries",
    "ascii_plot",
    "check_exposition",
    "format_table",
    "registry_families",
    "render_families",
]
