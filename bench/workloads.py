"""The six workloads: sizing, one repetition of each, and one run.

A *repetition* is set-up (untimed) -> timed phase (fixed op counts) ->
verification, against fresh state in a fresh process.  An untraced run
is three repetitions and reports medians; a traced run is one plain
repetition plus one under the profiler (plus, where it applies, one
with telemetry or the auditor on) and reports the layer table.

Op counts scale with ``--seconds`` and nothing else: a repetition's
timed phase lasts about ``seconds / 3`` on the commit the rates below
were calibrated on, and a faster program simply finishes sooner.
"""

from __future__ import annotations

import os
import shutil
import socket
import time
from typing import Callable, Dict, List, Optional

from . import inputs as gen
from .calibrate import factor, sample
from .client import (Account, Conn, KeyModel, cache_counters, preload,
                     reconcile, run_timed, totals)
from .layers import analyze
from .metrics import (CONTRACT_E2E, END_TO_END, PER_LAYER, SIM, SVC_TCP,
                      summarize)
from .procs import (ROOT, Server, disk_usage, run_worker,
                    spread_subdirectories)

REPETITIONS = 3

#: Requests per raw second on the seed commit on this 2-vCPU box (a
#: read-through request is a get plus, on a miss, a set); sizes the
#: fixed op counts.  Recalibrating changes the work, so it is a
#: benchmark change, not a tuning knob.
OPS_PER_SECOND = {
    "svc_tcp_hot": 11_500,
    "svc_tcp_pipelined": 14_500,
    "svc_tcp_readthrough": 6_000,
    "svc_direct_churn": 12_000,
}
#: Simulated seconds per ``--seconds``: 10 -> warm-up 13.3 s + 20 s
#: measured, 15 -> the 20 s + 30 s of the full-length run.
SIM_WARMUP_PER_SECOND = 4.0 / 3.0
SIM_DURATION_PER_SECOND = 2.0


def sizing(workload: str, seconds: float, quick: bool = False) -> dict:
    """Every size of one repetition, from ``--seconds`` alone.
    ``quick`` also shrinks key spaces and capacities eightfold, so that a
    smoke run spends its time in the code and not in preloading."""
    sizes = _full_sizing(workload, seconds)
    if quick:
        for name in ("capacity_mb", "keys", "resident_per_tenant",
                     "preload_sets"):
            if name in sizes:
                sizes[name] //= 8
        if "key_counts" in sizes:
            sizes["key_counts"] = [n // 8 for n in sizes["key_counts"]]
    return sizes


def _full_sizing(workload: str, seconds: float) -> dict:
    if workload in SIM:
        return {"warmup_s": round(SIM_WARMUP_PER_SECOND * seconds, 3),
                "duration_s": round(SIM_DURATION_PER_SECOND * seconds, 3)}
    ops = max(64, int(OPS_PER_SECOND[workload] * seconds / REPETITIONS))
    if workload == "svc_tcp_hot":
        return {"capacity_mb": 64, "keys": 3000, "gets_per_conn": ops // 2,
                "slice_len": 500, "restart_after_preload": True}
    if workload == "svc_tcp_pipelined":
        return {"capacity_mb": 64, "keys": 3000,
                "batches_per_conn": max(20, ops // 32), "slice_len": 40,
                "restart_after_preload": True}
    if workload == "svc_tcp_readthrough":
        # 32 MB of 4 KiB values is 8192 entries; preloading a batch more
        # than fits means the first evictions happen before the clock.
        return {"capacity_mb": 32, "keys": 12000, "resident_per_tenant": 4352,
                "requests_per_conn": ops // 2, "slice_len": 250}
    if workload == "svc_direct_churn":
        return {"capacity_mb": 32, "preload_sets": 6000, "ops": ops,
                "slice_len": 500, "key_counts": list(gen.CHURN_KEYS)}
    raise ValueError(f"unknown workload {workload!r}")


class Scraper:
    """GET ``/metrics`` once a second, from inside the client loop."""

    def __init__(self, port: int, account: Account) -> None:
        self.port = port
        self.account = account
        self.due = time.monotonic() + 1.0
        self.scrapes = 0

    def __call__(self) -> None:
        if time.monotonic() < self.due:
            return
        self.due += 1.0
        self.scrapes += 1
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            body = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                body += chunk
        self.account.check(b" 200 " in body.split(b"\r\n", 1)[0],
                           "metrics_scrape_failed")


def tcp_repetition(workload: str, seed: int, sizes: dict, workdir: str,
                   traced: bool = False, telemetry: bool = False) -> dict:
    if workload == "svc_tcp_hot":
        data = gen.tcp_hot(seed, sizes["keys"], sizes["gets_per_conn"])
    elif workload == "svc_tcp_pipelined":
        data = gen.tcp_pipelined(seed, sizes["keys"],
                                 sizes["batches_per_conn"])
    else:
        data = gen.tcp_readthrough(
            seed, sizes["keys"], sizes["resident_per_tenant"],
            sizes["requests_per_conn"])
    buffer = gen.value_buffer(seed)
    account = Account()
    models = [KeyModel(buffer, account) for _ in data.tenants]
    profile = os.path.join(workdir, "server.pstats") if traced else None

    kernel0 = sample()
    begun = time.monotonic()
    restart = sizes.get("restart_after_preload", False)
    server = Server(workdir, sizes["capacity_mb"],
                    None if restart else profile, telemetry)
    conns: List[Conn] = []
    try:
        conns = [Conn(server.port, tenant, account)
                 for tenant in data.tenants]
        for conn, model, ranks in zip(conns, models, data.preload):
            preload(conn, model, ranks, data.value_bytes)
        if restart:
            # A read-only timed phase would otherwise run against
            # whatever the preload left in SQLite's write-ahead log:
            # depending on where the last auto-checkpoint fell, every
            # SELECT also searches the WAL, and gets cost 140 us or
            # 190 us (measured: 3000-4000 preloaded keys fast, 2500 and
            # 4100 slow).  A graceful restart checkpoints and empties
            # the log, so the state no longer depends on how many
            # transactions the set path happened to use.
            for conn in conns:
                conn.close()
            account.check(server.stop() == 0, "server_exit_code")
            server = Server(workdir, sizes["capacity_mb"], profile, telemetry)
            conns = [Conn(server.port, tenant, account)
                     for tenant in data.tenants]
            for model in models:
                model.reset_counters()
        warm = conns[0].stats()
        raw_setup_s = time.monotonic() - begun
        setup_s = raw_setup_s * factor((kernel0 + sample()) / 2)

        tick: Optional[Callable[[], None]] = None
        if telemetry:
            tick = Scraper(server.metrics_port, account)
        if traced:
            server.profile_on()
            conns[0].stats()  # a round trip: the switch has happened
        before = totals(models)
        server_cpu0 = server.cpu_seconds()
        timed = run_timed(workload, conns, models, data,
                          sizes["slice_len"], tick)
        server_cpu = server.cpu_seconds() - server_cpu0
        if traced:
            server.profile_off()

        stats = conns[0].stats()
        reconcile(stats, data.tenants, models, account)
        by_tenant = conns[0].stats("tenants")
        usage = disk_usage(os.path.join(workdir, "store"))
    finally:
        for conn in conns:
            conn.close()
        code = server.stop()
    account.check(code == 0, "server_exit_code")

    gets, hits, sets = (now - then
                        for now, then in zip(totals(models), before))
    live = sum(by_tenant.get(f"{t}:bytes", 0) for t in data.tenants)
    evicted, counters = cache_counters(stats, warm, data.tenants, sets, usage)
    record = timed.summary()
    raw_wall_s = record["raw_wall_s"]
    record.update({
        "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "hit_ratio": hits / gets if gets else None,
        "space_amp": usage["allocated"] / live if live else None,
        "peak_rss_mb": server.peak_rss_mb,
        "attempted": account.attempted, "failures": account.failures,
        "profile": profile,
        "layer": dict(counters, **{
            "server.cpu_util": server_cpu / raw_wall_s,
            "bench.client.cpu_share": timed.client_cpu_ns / timed.wall_ns,
        }),
        "detail": {"evicted_blocks": evicted,
                   "warm_evicted_blocks": sum(
                       warm[f"{t}:evictions"] for t in data.tenants),
                   "slice_rates": timed.slice_rates},
    })
    if telemetry:
        record["detail"]["scrapes"] = tick.scrapes
    return record


def worker_repetition(workload: str, seed: int, sizes: dict, workdir: str,
                      traced: bool = False, audit: bool = False) -> dict:
    profile = os.path.join(workdir, "worker.pstats") if traced else None
    spec = dict(sizes, workload=workload, seed=seed, workdir=workdir,
                profile=profile, audit=audit,
                kind="sim" if workload in SIM else "direct")
    record = run_worker(spec, workdir)
    sampler = record.pop("sampler")
    spawned, ready = record.pop("spawned"), record.pop("ready")
    record["raw_setup_s"] = ready - spawned
    record["setup_s"] = sampler.calibrated(spawned, ready)
    if workload in SIM:
        # run() is opaque: calibrate it from the parent's timeline.
        record["raw_wall_s"] = record["wall_s"]
        record["raw_sim_speed"] = record["sim_speed"]
        record["wall_s"] = sampler.calibrated(ready, record["ended"])
        record["sim_speed"] = record["simulated_s"] / record["wall_s"]
        record["kernel_ms"] = sampler.median_kernel_ns() / 1e6
    record["profile"] = profile
    record.setdefault("failures", {})
    record.setdefault("attempted", 1)
    record.setdefault("layer", {})
    return record


def repetition(workload: str, seed: int, sizes: dict, workdir: str,
               **variant: bool) -> dict:
    os.makedirs(workdir)
    try:
        if workload in SVC_TCP:
            return tcp_repetition(workload, seed, sizes, workdir, **variant)
        return worker_repetition(workload, seed, sizes, workdir, **variant)
    finally:
        shutil.rmtree(os.path.join(workdir, "store"), ignore_errors=True)


#: ext4 treats an inode as recently deleted for up to 35 s.
GRAVE_SECONDS = 60.0


def empty_but_keep(workdir: str) -> None:
    """Delete a repetition's files but leave its (empty) directory.

    ext4 places a new top-level directory in the block group with the
    fewest directories.  Removing a repetition's directory would make
    its group the favourite again, and the next repetition would create
    its files among thousands of just-deleted inodes (see
    ``procs.spread_subdirectories``): one repetition in six ran three
    times slower that way.  The empty directory keeps the group
    unattractive until :func:`bury_old_graves` removes it, after the
    deleted inodes have aged out.
    """
    for entry in os.scandir(workdir):
        if entry.is_dir(follow_symlinks=False):
            shutil.rmtree(entry.path, ignore_errors=True)
        else:
            os.unlink(entry.path)


def bury_old_graves(work_root) -> None:
    """Remove directories emptied more than GRAVE_SECONDS ago."""
    horizon = time.time() - GRAVE_SECONDS
    for entry in os.scandir(work_root):
        if (entry.is_dir(follow_symlinks=False)
                and entry.stat().st_mtime < horizon):
            shutil.rmtree(entry.path, ignore_errors=True)


def _fingerprints(records: List[dict],
                  failures: Dict[str, int]) -> Optional[str]:
    """Simulator repetitions of one seed must agree byte for byte."""
    prints = {r["fingerprint_sha256"] for r in records
              if "fingerprint_sha256" in r}
    if len(prints) > 1:
        failures["fingerprint_mismatch"] = len(prints) - 1
    return min(prints) if prints else None


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    """One run of one workload; returns its section of the document.
    ``quick`` is the smoke mode: small sizes, one untraced repetition."""
    sizes = sizing(workload, seconds, quick)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    spread_subdirectories(str(work_root))
    bury_old_graves(work_root)
    made: List[str] = []
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "sizes": sizes, "trace": trace}
    try:
        def rep(name: str, **variant: bool) -> dict:
            # Directly under the spreading directory, one per repetition.
            made.append(str(work_root / f"{workload}.{os.getpid()}.{name}"))
            return repetition(workload, seed, sizes, made[-1], **variant)

        if trace:
            records = [rep("plain"), rep("traced", traced=True)]
            doc.update(_layer_section(workload, records, rep))
        else:
            records = [rep(f"rep{i}")
                       for i in range(1 if quick else REPETITIONS)]
            doc["end_to_end"] = {
                m.name: summarize(m, [r.get(m.name) for r in records])
                for m in END_TO_END
                if workload in m.on and m.name != "fail_ratio"}
        failures: Dict[str, int] = {}
        for record in records:
            for kind, count in record["failures"].items():
                failures[kind] = failures.get(kind, 0) + count
        fingerprint = _fingerprints(records, failures)
        if fingerprint:
            doc["fingerprint_sha256"] = fingerprint
        doc["attempted"] = sum(r["attempted"] for r in records)
        doc["failed"] = sum(failures.values())
        doc["failures"] = failures
        doc["fail_ratio"] = doc["failed"] / doc["attempted"]
        if trace:
            doc["per_layer"]["fail_ratio"]["value"] = doc["fail_ratio"]
        doc["details"] = [r.get("detail", {}) for r in records]
    finally:
        for workdir in made:
            empty_but_keep(workdir)
    return doc


def _layer_section(workload: str, records: List[dict],
                   rep: Callable[..., dict]) -> dict:
    """Per-layer metrics from a plain and a traced repetition (and the
    telemetry / auditor variant where the workload has one)."""
    plain, traced = records
    is_sim = workload in SIM
    analysis = analyze(traced["profile"], None if is_sim else traced["ops"])
    values: Dict[str, Optional[float]] = dict(analysis["metrics"])
    # End-to-end style numbers come from the untraced repetition.
    for metric in PER_LAYER:
        if metric.layer == "end_to_end" and workload in metric.on:
            values[metric.name] = plain.get(metric.name)
    # Counters from public stats; on TCP also the client's CPU share
    # (the profile there sees only the server).
    values.update(plain["layer"])
    values["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    if is_sim:
        events = values.get("simkernel.timeline.pop.calls")
        values["simkernel.host_us_per_event"] = (
            plain["wall_s"] * 1e6 / events if events else None)
        scalar = {"sim_filebench": ("model.web_ddmem_speedup",
                                    "web_ddmem_speedup"),
                  "sim_datastore": ("model.dd_slas_met", "dd_slas_met")}
        name, key = scalar[workload]
        values[name] = plain["scalars"].get(key)
    if workload == "svc_tcp_readthrough":
        records.append(rep("telemetry", telemetry=True))
        values["obs.live.overhead_ratio"] = (
            records[-1]["wall_s"] / plain["wall_s"])
    if workload == "sim_filebench":
        records.append(rep("audited", audit=True))
        values["core.audit.overhead_ratio"] = (
            records[-1]["wall_s"] / plain["wall_s"])
    per_layer = {}
    for metric in PER_LAYER:
        applies = workload in metric.on
        per_layer[metric.name] = {
            "value": values.get(metric.name) if applies else None,
            "unit": metric.unit, "layer": metric.layer}
    return {"per_layer": per_layer,
            "missing_probes": analysis["missing_probes"],
            "profiled_s": analysis["profiled_s"],
            "layer_s": analysis["layer_s"]}


def contract_metrics(doc: dict) -> Dict[str, dict]:
    """The ``metrics`` object of the one-line result the driver reads."""
    out: Dict[str, dict] = {}
    if doc["trace"]:
        for metric in PER_LAYER:
            value = doc["per_layer"][metric.name]["value"]
            # A layer this workload does not execute did no work: 0.
            out[metric.name] = {"value": value if value is not None else 0.0,
                                "unit": metric.unit}
        return out
    e2e = doc["end_to_end"]
    rate = e2e["sim_speed" if doc["workload"] in SIM else "ops_per_s"]
    for metric in CONTRACT_E2E:
        source = rate if metric.name == "throughput" else e2e[metric.name]
        out[metric.name] = {"value": source["value"], "unit": metric.unit}
    return out
