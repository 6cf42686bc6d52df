"""``python3 -m bench compare BASE.json CHANGE.json``.

One row per workload x end-to-end metric: both medians, their ratio
(change / base), the metric's bound and a verdict:

``same``        within the bound
``better``      improved by more than the bound
``worse``       worsened by more than the bound (exit code 1)
``unresolved``  the repetitions of one side spread wider than the bound,
                so the difference cannot be told from noise — unless
                every repetition of the change beats (or loses to) every
                repetition of the base

Below the table, the numbers that must repeat exactly (call counts,
model outputs, fingerprints) are listed when they differ.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .metrics import END_TO_END, Metric, unstable

#: Per-layer metrics that are exact counts on these workloads.
_EXACT_ON = ("svc_direct_churn", "sim_filebench", "sim_datastore")
_EXACT_SUFFIXES = (".calls", "calls_per_op", "opens_per_op", "unlinks_per_op",
                   "fsyncs_per_op", "evicted_blocks_per_set")


def _worsening(metric: Metric, base: float, change: float) -> float:
    """How much worse ``change`` is, in the bound's terms (negative =
    better): a share of ``base``, or an absolute difference."""
    delta = change - base if metric.better == "lower" else base - change
    if metric.absolute:
        return delta
    return delta / abs(base) if base else (0.0 if delta == 0 else
                                           float("inf") * delta)


def judge(metric: Metric, base: dict, change: dict) -> str:
    """Verdict for one metric from two ``summarize`` records."""
    if base.get("value") is None or change.get("value") is None:
        return "n/a"
    worse_by = _worsening(metric, base["value"], change["value"])
    base_reps = [v for v in base.get("reps", []) if v is not None]
    change_reps = [v for v in change.get("reps", []) if v is not None]
    if unstable(metric, base_reps) or unstable(metric, change_reps):
        lower = metric.better == "lower"
        if (max(change_reps) < min(base_reps) if lower
                else min(change_reps) > max(base_reps)):
            return "better"
        all_worse = (min(change_reps) > max(base_reps) if lower
                     else max(change_reps) < min(base_reps))
        if all_worse and worse_by > metric.bound:
            return "worse"
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound and metric.bound > 0:
        return "better"
    return "same"


def _fail_ratio_record(section: dict) -> Optional[dict]:
    run = section.get("untraced")
    if not run:
        return None
    return {"value": run["fail_ratio"], "reps": [run["fail_ratio"]]}


def rows(base: dict, change: dict) -> List[tuple]:
    out = []
    for workload, base_section in base["workloads"].items():
        change_section = change["workloads"].get(workload)
        if change_section is None:
            continue
        for metric in END_TO_END:
            if workload not in metric.on:
                continue
            if metric.name == "fail_ratio":
                one = _fail_ratio_record(base_section)
                two = _fail_ratio_record(change_section)
            else:
                one = base_section.get("end_to_end", {}).get(metric.name)
                two = change_section.get("end_to_end", {}).get(metric.name)
            if one is None or two is None:
                continue
            ratio = (two["value"] / one["value"]
                     if one["value"] and two["value"] is not None else None)
            out.append((workload, metric, one["value"], two["value"], ratio,
                        judge(metric, one, two)))
    return out


def exact_differences(base: dict, change: dict) -> List[str]:
    """Names of the exact numbers that differ between two documents."""
    out = []
    for workload in _EXACT_ON:
        one = base["workloads"].get(workload, {})
        two = change["workloads"].get(workload, {})
        if not one or not two:
            continue
        if one.get("fingerprint_sha256") != two.get("fingerprint_sha256"):
            out.append(f"{workload} fingerprint_sha256")
        for name, entry in one.get("per_layer", {}).items():
            if not (name.endswith(_EXACT_SUFFIXES) or name.startswith("model.")):
                continue
            other = two.get("per_layer", {}).get(name, {})
            if entry.get("value") != other.get("value"):
                out.append(f"{workload} {name}: {entry.get('value')} -> "
                           f"{other.get('value')}")
    return out


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.5g}"


def main(base_path: str, change_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    print(f"base:   {base_path}  {base['provenance'].get('git_sha')}")
    print(f"change: {change_path}  {change['provenance'].get('git_sha')}")
    print(f"{'workload':20s} {'metric':13s} {'base':>10s} {'change':>10s} "
          f"{'chg/base':>8s} {'bound':>7s}  verdict")
    worse = 0
    for workload, metric, one, two, ratio, verdict in rows(base, change):
        bound = f"{metric.bound:g}" + ("abs" if metric.absolute else "")
        print(f"{workload:20s} {metric.name:13s} {_fmt(one):>10s} "
              f"{_fmt(two):>10s} {_fmt(ratio):>8s} {bound:>7s}  {verdict}")
        worse += verdict == "worse"
    different = exact_differences(base, change)
    print(f"exact numbers that differ: {len(different)}")
    for line in different:
        print(f"  {line}")
    return 1 if worse else 0
