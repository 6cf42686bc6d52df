"""Tests for the repro.obs observability subsystem.

Covers the tracer (spans, ring buffer, sampling, histograms), the JSONL
and Perfetto exporters, the trace validator, and — the load-bearing
property — that the decision-provenance events of a real traced cache
replay exactly to its pools' counters, which the trace's ledger carries.
"""

import json

import pytest

from repro.cleancache import CleancacheClient
from repro.core import (
    CachePolicy,
    DDConfig,
    DoubleDeckerCache,
    assert_consistent,
)
from repro.obs import (
    LEDGER_FIELDS,
    Tracer,
    attach_latency_report,
    events_to_perfetto,
    parse_jsonl,
    set_tracer,
    to_jsonl,
    tracer as obs_tracer,
    validate_trace,
)
from repro.simkernel import Environment
from repro.storage import SSD

BLOCK = 64 * 1024


@pytest.fixture
def no_tracer():
    """Guarantee the process-wide tracer is clean before and after."""
    set_tracer(None)
    yield
    set_tracer(None)


def build_traced_cache(tracer, admission=None):
    """A small hybrid cache built while ``tracer`` is installed."""
    set_tracer(tracer)
    env = Environment()
    ssd = SSD(env, BLOCK)
    config = DDConfig(
        mem_capacity_mb=2.0, ssd_capacity_mb=4.0,
        eviction_batch_mb=0.25, trickle_down=True,
        admission=admission,
    )
    cache = DoubleDeckerCache(env, config, BLOCK, ssd_device=ssd)
    return env, cache


def drive(env, cache, n_inodes=3, blocks=40):
    """Puts (with immediate re-puts), gets, a migration, and flushes."""
    vm_id = cache.register_vm("vm0")
    client = CleancacheClient(env, cache, vm_id, BLOCK)
    p_mem = client.create_pool("mem", CachePolicy.memory(50.0))
    p_hyb = client.create_pool("hyb", CachePolicy.hybrid(25.0, 25.0))

    def worker(pool_id, salt):
        keys = [(salt + inode, block)
                for inode in range(n_inodes) for block in range(blocks)]
        for start in range(0, len(keys), 8):
            chunk = keys[start:start + 8]
            yield from client.put_many(pool_id, chunk)
            yield env.timeout(0.01)
            yield from client.put_many(pool_id, chunk[::2])
            yield env.timeout(0.01)
        # Flush before the (exclusive) gets so some blocks are still
        # resident to drop — the ledger's ``flushes`` must move.
        yield from client.flush_many(pool_id, keys[-10:])
        yield from client.flush_inode(pool_id, salt + n_inodes - 1)
        for start in range(0, len(keys), 8):
            yield from client.get_many(pool_id, keys[start:start + 8])
            yield env.timeout(0.005)

    def migrator():
        yield env.timeout(0.2)
        for inode in range(100, 100 + n_inodes):
            if client.migrate(p_mem, p_hyb, inode):
                return

    env.process(worker(p_mem, 100))
    env.process(worker(p_hyb, 200))
    env.process(migrator())
    env.run(until=60.0)
    return client, (p_mem, p_hyb)


class TestTracerBasics:
    def test_span_accounting(self):
        tracer = Tracer()
        tracer.span_begin()
        assert tracer.open_spans == 1
        tracer.span_end("x", 1.0, 2.5, vm=1, pool=2, detail="d")
        assert tracer.open_spans == 0
        [event] = list(tracer.events)
        assert event["ph"] == "X"
        assert event["ts"] == 1.0
        assert event["dur"] == 1.5
        assert event["args"] == {"detail": "d"}

    def test_ring_drop_counter(self):
        tracer = Tracer(max_events=4)
        for i in range(10):
            tracer.instant("e", float(i))
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert [e["ts"] for e in tracer.events] == [6.0, 7.0, 8.0, 9.0]

    def test_sampling_thins_spans_not_histograms(self):
        tracer = Tracer(sample=4)
        for i in range(16):
            tracer.span_begin()
            tracer.op_span("get", 1, 1, float(i), float(i) + 0.1)
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert len(spans) == 4  # every 4th recorded
        assert tracer.sampled_out == 12
        assert tracer.spans_finished == 16
        # Histograms still saw every op.
        assert tracer.histogram("obs.lat.get").count == 16

    def test_instants_never_sampled(self):
        tracer = Tracer(sample=10)
        for i in range(5):
            tracer.instant("evict.round", float(i))
        assert len(tracer.events) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)
        with pytest.raises(ValueError):
            Tracer(sample=0)

    def test_register_cache_labels_unique(self):
        tracer = Tracer()
        assert tracer.register_cache("ddecker") == "ddecker"
        assert tracer.register_cache("ddecker") == "ddecker#2"
        assert tracer.register_cache("ddecker") == "ddecker#3"
        assert tracer.register_cache("other") == "other"

    def test_set_get_tracer(self, no_tracer):
        assert obs_tracer.ACTIVE is None
        tracer = Tracer()
        set_tracer(tracer)
        assert obs_tracer.ACTIVE is tracer
        set_tracer(None)
        assert obs_tracer.ACTIVE is None


class TestLockstepReconciliation:
    """The tentpole property: the provenance events replay to the pool
    counters the trace's ledger carries."""

    @staticmethod
    def ledger_totals(meta):
        totals = {field: 0 for field in LEDGER_FIELDS}
        for pools in meta["ledger"].values():
            for counters in pools.values():
                for field, value in counters.items():
                    totals[field] += value
        return totals

    def test_ledger_matches_pool_stats(self, no_tracer):
        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)
        assert_consistent(cache, where="test end")
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert meta["dropped"] == 0  # so the replay runs
        assert validate_trace(meta, events) == []
        ledger = meta["ledger"][cache._obs_label]
        assert ledger == {
            str(pool.pool_id): {f: getattr(pool.stats, f) for f in LEDGER_FIELDS}
            for pool in cache._pools.values()}
        # The scenario must actually exercise the interesting paths.
        totals = self.ledger_totals(meta)
        assert totals["puts"] > 0
        assert totals["evictions"] > 0
        assert totals["ssd_writes"] > 0
        assert totals["flushes"] > 0
        assert totals["migrated_out"] > 0
        assert totals["migrated_out"] == totals["migrated_in"]

    def test_ledger_matches_under_admission_rejections(self, no_tracer):
        tracer = Tracer()
        env, cache = build_traced_cache(tracer, admission="second_access")
        drive(env, cache)
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert meta["dropped"] == 0
        assert validate_trace(meta, events) == []
        totals = self.ledger_totals(meta)
        assert totals["trickle_rejected_admission"] > 0
        assert totals["puts"] == (
            totals["puts_stored"] + totals["put_rejected_policy"]
            + totals["put_rejected_capacity"] + totals["put_rejected_admission"]
            + totals["put_rejected_backpressure"]
        )

    def test_ledger_violation_detected(self, no_tracer):
        """Counters bumped past what the events show fail the replay."""
        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)
        pool = next(pool for pool in cache._pools.values()
                    if pool.stats.evictions)
        pool.stats.puts += 1
        pool.stats.evictions += 1
        meta, events = parse_jsonl(to_jsonl(tracer))
        problems = validate_trace(meta, events)
        for field in ("puts", "evictions"):
            assert any(f"pool {pool.pool_id}: replayed {field} = " in problem
                       for problem in problems), problems

    def test_destroyed_pool_keeps_its_final_row(self, no_tracer):
        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        vm = cache.register_vm("vm0")
        doomed = cache.create_pool(vm, "doomed", CachePolicy.memory(50.0))
        kept = cache.create_pool(vm, "kept", CachePolicy.memory(50.0))

        def run():
            for pool_id in (doomed, kept):
                keys = [(pool_id, block) for block in range(48)]
                yield from cache.put_many(vm, pool_id, keys)
                yield from cache.get_many(vm, pool_id, keys[:8])
            finals.append(cache.pool_stats(vm, doomed))
            cache.destroy_pool(vm, doomed)
            yield from cache.put_many(vm, kept, [(9, b) for b in range(40)])

        finals = []
        env.process(run())
        env.run(until=60.0)  # past the SSD writer's last flush
        [final] = finals
        assert final.puts and final.evictions and final.get_hits
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert validate_trace(meta, events) == []
        assert meta["ledger"][cache._obs_label][str(doomed)] == {
            f: getattr(final, f) for f in LEDGER_FIELDS}
        assert meta["pool_names"][f"{cache._obs_label}/{doomed}"] == "doomed"

    def test_tracing_does_not_perturb_simulation(self, no_tracer):
        def stats_fingerprint(traced):
            tracer = Tracer() if traced else None
            if traced:
                env, cache = build_traced_cache(tracer)
            else:
                set_tracer(None)
                env, cache = build_traced_cache(None)
            client, pools = drive(env, cache)
            set_tracer(None)
            rows = []
            for pool_id in pools:
                stats = client.get_stats(pool_id)
                rows.append(tuple(getattr(stats, f) for f in LEDGER_FIELDS))
            rows.append(env.now)
            return rows

        assert stats_fingerprint(False) == stats_fingerprint(True)


class TestExporters:
    def make_trace(self, no_op=False, **tracer_kwargs):
        tracer = Tracer(**tracer_kwargs)
        env, cache = build_traced_cache(tracer)
        if not no_op:
            drive(env, cache)
        set_tracer(None)
        return tracer

    def test_jsonl_round_trip_lossless(self, no_tracer):
        tracer = self.make_trace()
        text = to_jsonl(tracer)
        meta, events = parse_jsonl(text)
        assert events == list(tracer.events)
        assert meta["recorded"] == len(events)
        # Re-serializing the parsed records reproduces the event lines.
        again = "\n".join(
            [json.dumps({"type": "meta", "version": 1, **meta}, sort_keys=True)]
            + [json.dumps({"type": "event", **e}, sort_keys=True)
               for e in events]
        ) + "\n"
        assert again == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_jsonl('{"type": "mystery"}\n')
        with pytest.raises(ValueError):
            parse_jsonl("")  # no meta record

    def test_perfetto_structure(self, no_tracer):
        tracer = self.make_trace()
        doc = json.loads(events_to_perfetto(tracer.meta(), tracer.events))
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases and "i" in phases
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        names = [e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"]
        assert any("vm1" in name for name in names)

    def test_perfetto_names_come_from_the_first_cache_after_a_round_trip(
            self, no_tracer):
        tracer = Tracer()
        for name in ("first", "second"):
            env, cache = build_traced_cache(tracer)
            vm = cache.register_vm(f"{name}_vm")
            pool = cache.create_pool(vm, f"{name}_pool",
                                     CachePolicy.memory(50.0))
        set_tracer(None)
        tracer.instant("test.mark", 0.0, vm=vm, pool=pool)
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert list(meta["pool_names"]) == ["ddecker#2/1", "ddecker/1"]
        doc = json.loads(events_to_perfetto(meta, events))
        labels = {e["name"]: e["args"]["name"]
                  for e in doc["traceEvents"] if e["ph"] == "M"}
        assert labels == {"process_name": "vm1 (first_vm)",
                          "thread_name": "pool1 (first_pool)"}

    def test_validate_clean_trace(self, no_tracer):
        tracer = self.make_trace()
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert validate_trace(meta, events) == []

    def test_validate_flags_open_spans(self, no_tracer):
        tracer = self.make_trace(no_op=True)
        tracer.span_begin()  # never closed
        meta, events = parse_jsonl(to_jsonl(tracer))
        problems = validate_trace(meta, events)
        assert any("unclosed" in p for p in problems)
        assert validate_trace(meta, events, allow_open_spans=True) == []

    def test_validate_flags_bad_event(self):
        meta = {c: 0 for c in ("max_events", "sample", "recorded", "dropped",
                               "sampled_out", "spans_started",
                               "spans_finished", "open_spans")}
        meta["max_events"] = meta["sample"] = 1
        meta["recorded"] = 1
        bad = {"ph": "X", "name": "", "ts": -1, "vm": "x", "pool": None,
               "args": []}
        problems = validate_trace(meta, [bad])
        assert any("bad name" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad vm" in p for p in problems)
        assert any("args" in p for p in problems)

    def test_validate_flags_put_identity_violation(self):
        meta = {c: 0 for c in ("max_events", "sample", "recorded", "dropped",
                               "sampled_out", "spans_started",
                               "spans_finished", "open_spans")}
        meta["max_events"] = meta["sample"] = 1
        meta["ledger"] = {"c": {"1": dict.fromkeys(LEDGER_FIELDS, 0)}}
        meta["ledger"]["c"]["1"]["puts"] = 5
        meta["ledger"]["c"]["1"]["puts_stored"] = 3
        problems = validate_trace(meta, [])
        assert any("put ledger leaks" in p for p in problems)

    def test_replay_skipped_when_ring_dropped(self, no_tracer):
        # A tiny ring drops provenance events; the replay check must not
        # produce false positives, and the cumulative ledger still holds.
        tracer = self.make_trace(max_events=64)
        assert tracer.dropped > 0
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert validate_trace(meta, events, allow_open_spans=True) == []

    def test_sampled_trace_still_validates(self, no_tracer):
        tracer = self.make_trace(sample=5)
        assert tracer.sampled_out > 0
        meta, events = parse_jsonl(to_jsonl(tracer))
        assert validate_trace(meta, events) == []


class TestReportingIntegration:
    def test_attach_latency_report(self, no_tracer):
        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)

        class FakeResult:
            def __init__(self):
                self.tables = {}

            def add_table(self, key, headers, rows):
                self.tables[key] = (headers, rows)

        result = FakeResult()
        attach_latency_report(result, tracer)
        headers, rows = result.tables["op latency (ms)"]
        assert headers == ["op", "count", "mean", "p50", "p90", "p99", "p999"]
        names = [row[0] for row in rows]
        assert "obs.lat.get" in names
        assert "obs.lat.put" in names
        assert not any(".vm" in name for name in names)  # per-op only

    def test_attach_latency_report_empty_noop(self):
        tracer = Tracer()

        class Exploding:
            def add_table(self, *a):  # pragma: no cover - must not run
                raise AssertionError("should not add an empty table")

        attach_latency_report(Exploding(), tracer)


class TestCli:
    def test_obs_cli_on_trace_file(self, tmp_path, no_tracer):
        from repro.obs.__main__ import main as obs_main

        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)
        set_tracer(None)
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text(to_jsonl(tracer))

        assert obs_main(["validate", str(trace_path)]) == 0
        assert obs_main(["summarize", str(trace_path)]) == 0
        assert obs_main(["top-victims", str(trace_path), "-n", "3"]) == 0
        assert obs_main(["latency-breakdown", str(trace_path)]) == 0
        out = tmp_path / "t.perfetto.json"
        assert obs_main(["export", str(trace_path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_obs_cli_validate_says_when_replay_is_skipped(
            self, tmp_path, capsys, no_tracer):
        from repro.obs.__main__ import main as obs_main

        for kwargs, note in (({}, ")"),
                             ({"max_events": 50}, "; replay skipped (ring dropped "),
                             ({"sample": 2}, "; replay skipped (sampled 1/2)")):
            tracer = Tracer(**kwargs)
            env, cache = build_traced_cache(tracer)
            drive(env, cache)
            set_tracer(None)
            path = tmp_path / "t.jsonl"
            path.write_text(to_jsonl(tracer))
            assert obs_main(["validate", str(path)]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"{path}: OK (")
            assert f"1 cache ledgers{note}" in out, out

    def test_obs_cli_validate_catches_corruption(self, tmp_path, no_tracer):
        from repro.obs.__main__ import main as obs_main

        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)
        set_tracer(None)
        text = to_jsonl(tracer)
        meta, events = parse_jsonl(text)
        label = cache._obs_label
        pool = next(iter(meta["ledger"][label]))
        meta["ledger"][label][pool]["puts"] += 1  # break the identity
        lines = [json.dumps({"type": "meta", "version": 1, **meta})]
        lines += [json.dumps({"type": "event", **e}) for e in events]
        bad_path = tmp_path / "bad.jsonl"
        bad_path.write_text("\n".join(lines) + "\n")
        assert obs_main(["validate", str(bad_path)]) == 1

    def test_obs_cli_reports_unreadable_files(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bad": 1}\n')
        missing = tmp_path / "missing.jsonl"
        for path in (bad, missing):
            assert obs_main(["validate", str(path)]) == 1
            out = capsys.readouterr().out
            assert out.startswith(f"{path}: INVALID\n")
            assert len(out.splitlines()) == 2  # the verdict and one reason
            for command in ("summarize", "top-victims", "latency-breakdown",
                            "export"):
                assert obs_main([command, str(path)]) == 1
                err = capsys.readouterr().err
                assert len(err.splitlines()) == 1 and str(path) in err

    def test_obs_cli_reports_malformed_traces(self, tmp_path, capsys):
        """A trace that parses but lacks what the command reads: one
        line per problem, exit 1, no traceback."""
        from repro.obs.__main__ import main as obs_main

        counterless = tmp_path / "counterless.jsonl"
        counterless.write_text('{"type": "meta", "x": 1}\n')
        assert obs_main(["summarize", str(counterless)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 8  # one per recorder counter
        assert all(line.startswith(f"{counterless}: meta: bad ")
                   for line in err)
        assert f"{counterless}: meta: bad recorded None" in err

        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "meta", "version": 1, "histograms": '
                         '{"obs.lat.get": {"bogus": 1}}}\n')
        assert obs_main(["latency-breakdown", str(bogus)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{bogus}: histogram 'obs.lat.get': missing 'lo'"]

        # Name-table keys are "cache_label/id".
        for table, key in (("pool_names", "nolabel"),
                           ("vm_names", "ddecker/x")):
            unnamed = tmp_path / "unnamed.jsonl"
            unnamed.write_text(json.dumps({
                "type": "meta", "version": 1, "max_events": 1, "sample": 1,
                "recorded": 0, "dropped": 0, "sampled_out": 0,
                "spans_started": 0, "spans_finished": 0, "open_spans": 0,
                table: {key: "p"}}) + "\n")
            problem = f"meta: bad {table} key {key!r}"
            assert obs_main(["export", str(unnamed)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"{unnamed}: {problem}"]
            assert not unnamed.with_suffix(".perfetto.json").exists()
            assert obs_main(["validate", str(unnamed)]) == 1
            assert capsys.readouterr().out.splitlines() == [
                f"{unnamed}: INVALID", f"  - {problem}"]

    def test_obs_cli_reports_malformed_events(self, tmp_path, capsys,
                                              no_tracer):
        from repro.obs.__main__ import main as obs_main

        tracer = Tracer()
        env, cache = build_traced_cache(tracer)
        drive(env, cache)
        set_tracer(None)
        meta, events = parse_jsonl(to_jsonl(tracer))
        del events[0]["name"]
        lines = [json.dumps({"type": "meta", "version": 1, **meta})]
        lines += [json.dumps({"type": "event", **e}) for e in events]
        path = tmp_path / "nameless.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for command in ("summarize", "top-victims", "export"):
            assert obs_main([command, str(path)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"{path}: event[0]: bad name None"]
        assert not path.with_suffix(".perfetto.json").exists()

    def test_experiments_cli_rejects_bad_trace_flags(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["caching_modes", "--trace-ops", "0"]) == 2
        assert exp_main(["caching_modes", "--trace-sample", "0"]) == 2
        capsys.readouterr()

    def test_smoke_passes(self, no_tracer):
        from repro.obs.analyze import run_smoke

        assert run_smoke(seed=7, verbose=False) == 0
