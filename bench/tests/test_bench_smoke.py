"""Smoke test of the benchmark itself (not part of tier-1).

    python3 -m pytest bench/tests -q

``run --quick`` is executed once for the whole module (about half a
minute on two shared cores); the other tests are pure functions.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import compare, inputs, metrics  # noqa: E402
from bench.client import Account, KeyModel  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), done.stdout


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert all(w["why"] == metrics.WORKLOADS[w["name"]]
               for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.CONTRACT_E2E]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


def test_quick_run_emits_every_declared_name(document):
    doc, stdout = document
    assert set(doc["workloads"]) == set(metrics.WORKLOADS)
    for workload, section in doc["workloads"].items():
        assert section["untraced"]["failed"] == 0, section["untraced"]
        assert section["traced"]["failed"] == 0, section["traced"]
        for metric in metrics.END_TO_END:
            if workload not in metric.on or metric.name == "fail_ratio":
                continue
            entry = section["end_to_end"][metric.name]
            value = entry["value"]
            if value is None:
                # Explained null: a percentile with too few samples
                # beyond it at --quick op counts.
                assert metric.name.endswith(("_p50_us", "_p99_us")), metric
            else:
                assert math.isfinite(value), (workload, metric.name)
            assert f"{workload} {metric.name} " in stdout
        assert set(section["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        for metric in metrics.PER_LAYER:
            value = section["per_layer"][metric.name]["value"]
            if workload not in metric.on:
                assert value is None  # the layer does not exist here
            elif value is None:
                assert (metric.name.endswith(("_p50_us", "_p99_us"))
                        or metric.name.rsplit(".", 1)[0]
                        in section["missing_probes"]), (workload, metric.name)
            else:
                assert math.isfinite(value), (workload, metric.name)
            assert f"{workload} {metric.name} " in stdout
    provenance = doc["provenance"]
    assert {"git_sha", "nproc", "python", "platform", "seed",
            "flush_policy"} <= set(provenance)


def test_quick_run_regimes(document):
    doc, _ = document
    hot = doc["workloads"]["svc_tcp_hot"]
    assert hot["end_to_end"]["hit_ratio"]["value"] == 1.0
    assert all(d["evicted_blocks"] == 0 for d in hot["untraced"]["details"])
    for name in ("svc_tcp_readthrough", "svc_direct_churn"):
        details = doc["workloads"][name]["untraced"]["details"]
        assert all(d["evicted_blocks"] > 0 for d in details), name
    for name in metrics.SIM:
        assert len(doc["workloads"][name]["fingerprint_sha256"]) == 64
    # Layers plus `other` add up to the profiled time: nothing dropped.
    for name, section in doc["workloads"].items():
        assert sum(section["layer_s"].values()) == pytest.approx(
            section["profiled_s"], rel=1e-6), name


def test_one_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "one", "--workload", "sim_datastore",
         "--seed", "7", "--seconds", "0.3", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in metrics.CONTRACT_E2E}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_op_streams_depend_on_the_seed_only():
    def digests(seed):
        return [
            inputs.stream_digest(inputs.tcp_hot(seed, 200, 300)),
            inputs.stream_digest(inputs.tcp_pipelined(seed, 200, 30)),
            inputs.stream_digest(inputs.tcp_readthrough(seed, 600, 100, 300)),
            inputs.stream_digest(inputs.direct_churn(seed, 100, 500, (300, 100, 50))),
            inputs.stream_digest(inputs.value_buffer(seed)),
        ]
    assert digests(42) == digests(42)
    assert all(a != b for a, b in zip(digests(42), digests(43)))


def test_corrupted_reply_raises_fail_ratio():
    account = Account()
    model = KeyModel(inputs.value_buffer(1), account)
    value = model.next_value("k7", 1024)
    model.on_set_reply("k7", 1024, stored=True)
    assert model.on_get_reply("k7", value) and account.failed == 0
    corrupted = value[:500] + bytes([value[500] ^ 1]) + value[501:]
    assert model.on_get_reply("k7", corrupted)
    assert account.failures == {"wrong_payload": 1}
    # A stale version and a hit on a deleted key are failures too.
    stale = value
    model.on_set_reply("k7", 1024, stored=True)
    model.on_get_reply("k7", stale)
    model.on_delete("k7")
    model.on_get_reply("k7", model.next_value("k7", 1024))
    assert account.failures == {"wrong_payload": 3}
    assert account.failed / account.attempted > 0
    model.on_set_reply("k8", 1024, stored=False)
    assert account.failures["not_stored"] == 1


def test_compare_flags_a_twenty_percent_regression(document, tmp_path, capsys):
    doc, _ = document
    base = copy.deepcopy(doc)
    # Tight repetitions, so that the verdict is not `unresolved`.
    entry = base["workloads"]["svc_tcp_hot"]["end_to_end"]["ops_per_s"]
    entry.update(value=10000.0, reps=[9950.0, 10000.0, 10050.0])
    change = copy.deepcopy(base)
    slower = change["workloads"]["svc_tcp_hot"]["end_to_end"]["ops_per_s"]
    slower.update(value=8000.0, reps=[7960.0, 8000.0, 8040.0])
    for name, payload in (("a.json", base), ("b.json", change)):
        (tmp_path / name).write_text(json.dumps(payload))
    assert compare.main(str(tmp_path / "a.json"), str(tmp_path / "a.json")) == 0
    assert compare.main(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    table = capsys.readouterr().out
    assert re.search(r"svc_tcp_hot\s+ops_per_s\s.*\sworse", table)
    # Wide repetitions on one side: the same medians are unresolved.
    slower.update(reps=[6000.0, 8000.0, 12000.0])
    metric = next(m for m in metrics.END_TO_END if m.name == "ops_per_s")
    assert compare.judge(metric, entry, slower) == "unresolved"
    assert compare.judge(metric, slower, entry) == "unresolved"
