"""Prometheus text exposition (format 0.0.4) for :class:`MetricsRegistry`.

One renderer serves the live service's ``/metrics`` sidecar.  Dotted
registry names become sanitized Prometheus names under a common prefix
(``service.lat.get`` -> ``dd_service_lat_get``), a series renders as a
gauge holding its last sample, and log-bucketed
:class:`~repro.metrics.timeseries.Histogram`\\ s render as cumulative
``le`` buckets closed by ``+Inf`` (from
:meth:`Histogram.cumulative_buckets`), plus ``_sum``/``_count``.

:func:`check_exposition` is the format validator CI runs against a
scraped ``/metrics`` body — line grammar, label escaping, ``TYPE``
placement, duplicate samples, and the histogram invariants (cumulative
non-decreasing buckets, ``+Inf`` present and equal to ``_count``).  It
is also the module's CLI::

    python -m repro.metrics.exposition metrics.prom
"""

from __future__ import annotations

import math
import re
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from .timeseries import Histogram

__all__ = [
    "MetricFamily",
    "sanitize_metric_name",
    "sanitize_label_name",
    "escape_label_value",
    "format_value",
    "histogram_family",
    "registry_families",
    "render_families",
    "check_exposition",
]

#: Metric kinds the renderer emits and the checker accepts.
METRIC_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")

_NAME_OK_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_NAME_CHAR_RE = re.compile(r"[^a-zA-Z0-9_:]")
_BAD_LABEL_CHAR_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(dotted: str) -> str:
    """A valid Prometheus metric name for a dotted registry name."""
    name = _BAD_NAME_CHAR_RE.sub("_", dotted)
    if not name or not _NAME_OK_RE.match(name):
        name = "_" + name
    return name


def sanitize_label_name(raw: str) -> str:
    """A valid Prometheus label name (colons are not allowed here)."""
    name = _BAD_LABEL_CHAR_RE.sub("_", raw)
    if not name or not _LABEL_OK_RE.match(name):
        name = "_" + name
    return name


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition grammar."""
    return (value.replace("\\", "\\\\")
            .replace("\n", "\\n")
            .replace('"', '\\"'))


def format_value(value: float) -> str:
    """A sample value: integers stay integral, ``inf`` spells ``+Inf``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricFamily:
    """One named metric plus its samples (possibly many label sets)."""

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        if kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        #: ``(suffix, labels, value)`` triples; suffix is appended to the
        #: family name ("_bucket", "_sum", "_count", or "").
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def add(self, value: float, labels: Optional[Dict[str, str]] = None,
            suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), value))


def histogram_family(name: str, hist: Histogram,
                     labels: Optional[Dict[str, str]] = None,
                     help: str = "") -> MetricFamily:
    """Render one log-bucketed histogram as a Prometheus histogram."""
    family = MetricFamily(name, "histogram", help=help)
    base = dict(labels or {})
    for bound, cumulative in hist.cumulative_buckets():
        le = dict(base)
        le["le"] = format_value(bound)
        family.add(float(cumulative), labels=le, suffix="_bucket")
    family.add(hist.total, labels=base, suffix="_sum")
    family.add(float(hist.count), labels=base, suffix="_count")
    return family


def registry_families(registry, prefix: str = "dd") -> List[MetricFamily]:
    """Every histogram of a :class:`MetricsRegistry` as an exposition
    family with its full bucket set."""
    return [histogram_family(f"{prefix}_{sanitize_metric_name(name)}", hist)
            for name, hist in sorted(registry.histograms().items())]


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [f'{sanitize_label_name(k)}="{escape_label_value(str(v))}"'
             for k, v in labels.items()]
    return "{" + ",".join(parts) + "}"


def render_families(families: Iterable[MetricFamily]) -> str:
    """The exposition body: families merged by name, ``TYPE`` once each.

    Same-named families must agree on kind; their samples concatenate
    under a single ``TYPE`` header, as the format requires.  Output is
    deterministic: families sort by name, samples keep insertion order
    within a family.
    """
    merged: Dict[str, MetricFamily] = {}
    for family in families:
        existing = merged.get(family.name)
        if existing is None:
            merged[family.name] = combined = MetricFamily(
                family.name, family.kind, help=family.help)
            combined.samples.extend(family.samples)
            continue
        if existing.kind != family.kind:
            raise ValueError(
                f"family {family.name!r} rendered as both "
                f"{existing.kind} and {family.kind}")
        existing.samples.extend(family.samples)

    lines: List[str] = []
    for name in sorted(merged):
        family = merged[name]
        if not _NAME_OK_RE.match(family.name):
            raise ValueError(f"invalid metric name {family.name!r}")
        if family.help:
            text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {family.name} {text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for suffix, labels, value in family.samples:
            lines.append(
                f"{family.name}{suffix}{_labels_text(labels)} "
                f"{format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Format checker (the CI gate for scraped /metrics bodies)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*(,|$)'
)

#: Suffixes that belong to the base family declared by ``# TYPE``.
_FAMILY_SUFFIXES = ("_bucket", "_sum", "_count", "_total")


def _base_family(name: str, types: Dict[str, str]) -> str:
    """The declared family a sample name belongs to."""
    if name in types:
        return name
    for suffix in _FAMILY_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def _parse_labels(text: str) -> Optional[Dict[str, str]]:
    """Label pairs from the text between braces, or ``None`` if malformed."""
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR_RE.match(text, pos)
        if match is None:
            return None
        labels[match.group(1)] = match.group(2)
        pos = match.end()
    return labels


def _parse_value(raw: str) -> Optional[float]:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        return None


def check_exposition(text: str) -> List[str]:
    """Validate an exposition body; returns problem strings (empty = ok)."""
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
    #: (family, frozen non-le labels) -> [(le_bound, cumulative)]
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                  List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in METRIC_KINDS:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name = parts[2]
            if name in types:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {name}")
            types[name] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and free comments
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample line")
            continue
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        if labels is None:
            problems.append(f"line {lineno}: malformed labels on {name}")
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: bad value {match.group('value')!r}")
            continue
        family = _base_family(name, types)
        if family in types:
            # Typed samples must appear after their TYPE line, which the
            # linear scan guarantees by construction of `types`.
            pass
        key = (name, tuple(sorted(labels.items())))
        if key in seen_samples:
            problems.append(
                f"line {lineno}: duplicate sample {name} "
                f"(first at line {seen_samples[key]})")
        else:
            seen_samples[key] = lineno
        if types.get(family) == "histogram":
            bare = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            if name == family + "_bucket":
                le = _parse_value(labels.get("le", ""))
                if le is None:
                    problems.append(
                        f"line {lineno}: histogram bucket without a "
                        f"parseable le label")
                    continue
                buckets.setdefault((family, bare), []).append((le, value))
            elif name == family + "_count":
                counts[(family, bare)] = value

    for (family, bare), entries in sorted(buckets.items()):
        where = f"histogram {family}{dict(bare) if bare else ''}"
        bounds = [le for le, _ in entries]
        if bounds != sorted(bounds):
            problems.append(f"{where}: le bounds out of order")
        cumulatives = [c for _, c in entries]
        if any(b > a for a, b in zip(cumulatives[1:], cumulatives)):
            problems.append(f"{where}: bucket counts not cumulative")
        if not entries or entries[-1][0] != math.inf:
            problems.append(f"{where}: missing +Inf bucket")
        else:
            count = counts.get((family, bare))
            if count is None:
                problems.append(f"{where}: missing _count sample")
            elif entries[-1][1] != count:
                problems.append(
                    f"{where}: +Inf bucket {entries[-1][1]} != _count "
                    f"{count}")
    return problems


def main(argv=None) -> int:
    """CLI: validate one exposition file (``-`` reads stdin)."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.metrics.exposition <file|->",
              file=sys.stderr)
        return 2
    text = sys.stdin.read() if args[0] == "-" else open(args[0]).read()
    problems = check_exposition(text)
    if problems:
        print(f"{args[0]}: INVALID exposition")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line.strip() and not line.startswith("#"))
    print(f"{args[0]}: OK ({samples} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
