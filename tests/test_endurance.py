"""Tests for the SSD endurance subsystem (wear model, admission control)."""

from unittest import mock

import pytest

from repro.core import CachePolicy, DDConfig, DoubleDeckerCache, stores
from repro.endurance import (
    AdmitAll,
    SecondAccessAdmit,
    WearModel,
    WriteRateThrottle,
    endurance_summary,
    format_lifetime,
    hits_per_gb_written,
    make_admission,
)
from repro.endurance.admission import THROTTLE_BURST_MB, THROTTLE_WRITE_MB_S
from repro.simkernel import Environment
from repro.storage import SSD, SSDSpec

BLK = 64 * 1024
GB = 1024 ** 3


class TestWearModel:
    def make(self, **overrides):
        kwargs = dict(block_bytes=BLK, capacity_bytes=GB, pe_cycles=1000,
                      erase_block_kb=1024.0, waf=1.0)
        kwargs.update(overrides)
        return WearModel(**kwargs)

    def test_budget_math(self):
        wear = self.make()
        # 1 GB / 1 MB erase blocks = 1024 blocks x 1000 cycles.
        assert wear.pe_budget == 1024 * 1000
        assert wear.endurance_bytes == pytest.approx(1000 * GB)

    def test_record_write_accumulates_host_bytes(self):
        wear = self.make()
        wear.record_write(4)
        wear.record_write(2)
        assert wear.host_bytes_written == 6 * BLK

    def test_waf_multiplies_flash_writes_and_divides_endurance(self):
        plain = self.make()
        amplified = self.make(waf=2.0)
        for wear in (plain, amplified):
            wear.record_write(16)
        assert amplified.flash_bytes_written == 2 * plain.flash_bytes_written
        assert amplified.erases_consumed == 2 * plain.erases_consumed
        assert amplified.endurance_bytes == plain.endurance_bytes / 2

    def test_wear_fraction_progresses_to_one(self):
        wear = self.make()
        assert wear.wear_fraction == 0.0
        # Write the full endurance budget.
        wear.host_bytes_written = int(wear.endurance_bytes)
        assert wear.wear_fraction == pytest.approx(1.0)

    def test_projected_lifetime_none_without_writes_or_time(self):
        wear = self.make()
        assert wear.projected_lifetime_s(100.0) is None
        wear.record_write(1)
        assert wear.projected_lifetime_s(0.0) is None

    def test_projected_lifetime_from_observed_rate(self):
        wear = self.make()
        wear.record_write(16)  # 1 MB over 1 s -> 1 MB/s
        lifetime = wear.projected_lifetime_s(1.0)
        remaining = wear.endurance_bytes - wear.host_bytes_written
        assert lifetime == pytest.approx(remaining / (16 * BLK))

    def test_lifetime_clamped_at_zero_past_budget(self):
        wear = self.make()
        wear.host_bytes_written = int(2 * wear.endurance_bytes)
        assert wear.projected_lifetime_s(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(waf=0.5)
        with pytest.raises(ValueError):
            self.make(capacity_bytes=0)
        with pytest.raises(ValueError):
            self.make(pe_cycles=0)

    def test_as_dict_round_trip(self):
        wear = self.make()
        wear.record_write(16)
        d = wear.as_dict(elapsed_s=10.0)
        assert d["host_gb_written"] == pytest.approx(16 * BLK / GB)
        assert d["projected_lifetime_s"] == wear.projected_lifetime_s(10.0)


class TestAdmissionControllers:
    def test_admit_all_admits_and_counts(self):
        ctl = AdmitAll()
        assert all(ctl.admit((1, i), 0.0) for i in range(5))
        assert (ctl.attempts, ctl.admitted, ctl.rejected) == (5, 5, 0)

    def test_second_access_rejects_first_admits_second(self):
        ctl = SecondAccessAdmit(ghost_blocks=4)
        assert not ctl.admit((1, 0), 0.0)
        assert ctl.admit((1, 0), 0.0)
        # Admission consumed the ghost entry: next put is "first" again.
        assert not ctl.admit((1, 0), 0.0)
        assert (ctl.attempts, ctl.admitted, ctl.rejected) == (3, 1, 2)

    def test_second_access_ghost_evicts_fifo(self):
        ctl = SecondAccessAdmit(ghost_blocks=2)
        ctl.admit((1, 0), 0.0)
        ctl.admit((1, 1), 0.0)
        ctl.admit((1, 2), 0.0)  # evicts (1, 0) from the ghost
        assert ctl.ghost_len() == 2
        # (1, 0) was forgotten: rejected again (and re-ghosted, which in
        # turn evicts (1, 1)); (1, 2) is still remembered.
        assert not ctl.admit((1, 0), 0.0)
        assert ctl.admit((1, 2), 0.0)

    def test_write_throttle_burst_then_dry(self):
        ctl = WriteRateThrottle(rate_bytes_s=BLK, burst_bytes=2 * BLK,
                                block_bytes=BLK)
        assert ctl.admit((1, 0), 0.0)
        assert ctl.admit((1, 1), 0.0)
        assert not ctl.admit((1, 2), 0.0)  # bucket dry
        assert ctl.tokens() < BLK

    def test_write_throttle_refills_with_clock(self):
        ctl = WriteRateThrottle(rate_bytes_s=BLK, burst_bytes=BLK,
                                block_bytes=BLK)
        assert ctl.admit((1, 0), 0.0)
        assert not ctl.admit((1, 1), 0.0)
        assert ctl.admit((1, 2), 1.0)  # one second = one block of tokens
        assert ctl.rejected == 1

    def test_write_throttle_refill_caps_at_burst(self):
        ctl = WriteRateThrottle(rate_bytes_s=BLK, burst_bytes=2 * BLK,
                                block_bytes=BLK)
        ctl.admit((1, 0), 0.0)
        ctl.admit((1, 1), 100.0)  # long idle refills to burst, not beyond
        assert ctl.tokens() <= 2 * BLK

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            SecondAccessAdmit(ghost_blocks=0)
        with pytest.raises(ValueError):
            WriteRateThrottle(rate_bytes_s=0, burst_bytes=BLK, block_bytes=BLK)
        with pytest.raises(ValueError):
            WriteRateThrottle(rate_bytes_s=1, burst_bytes=BLK - 1,
                              block_bytes=BLK)

    def test_as_dict_reports_ledger(self):
        ctl = SecondAccessAdmit(ghost_blocks=4)
        ctl.admit((1, 0), 0.0)
        assert ctl.as_dict() == {
            "policy": "second_access", "attempts": 1, "admitted": 0,
            "rejected": 1,
        }


class TestMakeAdmission:
    def test_none_means_disabled(self):
        assert make_admission(None, block_bytes=BLK,
                              ssd_capacity_blocks=16) is None
        assert make_admission("", block_bytes=BLK,
                              ssd_capacity_blocks=16) is None

    def test_builds_each_policy(self):
        kwargs = dict(block_bytes=BLK, ssd_capacity_blocks=16)
        assert isinstance(make_admission("admit_all", **kwargs), AdmitAll)
        assert isinstance(make_admission("second_access", **kwargs),
                          SecondAccessAdmit)
        assert isinstance(make_admission("write_throttle", **kwargs),
                          WriteRateThrottle)

    def test_ghost_auto_sizes_to_ssd_capacity(self):
        ctl = make_admission("second_access", block_bytes=BLK,
                             ssd_capacity_blocks=64)
        assert ctl.ghost_blocks == 64

    def test_throttle_takes_rate_and_burst(self):
        ctl = make_admission("write_throttle", block_bytes=BLK,
                             ssd_capacity_blocks=64)
        assert ctl.rate_bytes_s == THROTTLE_WRITE_MB_S * 1024 * 1024
        assert ctl.burst_bytes == THROTTLE_BURST_MB * 1024 * 1024

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_admission("lru", block_bytes=BLK, ssd_capacity_blocks=16)


def make_ssd_cache(ssd_mb=1.0, buffer_mb=64.0, **config_overrides):
    env = Environment()
    ssd = SSD(env, BLK, spec=SSDSpec())
    with mock.patch.object(stores, "SSD_WRITE_BUFFER_MB", buffer_mb):
        cache = DoubleDeckerCache(
            env,
            DDConfig(mem_capacity_mb=0.0, ssd_capacity_mb=ssd_mb,
                     **config_overrides),
            BLK,
            ssd_device=ssd,
        )
    return env, ssd, cache


def run_gen(env, gen):
    return env.run(until=env.process(gen))


class TestCacheIntegration:
    def test_no_admission_means_no_controller(self):
        _, _, cache = make_ssd_cache()
        vm = cache.register_vm("a")
        pool_id = cache.create_pool(vm, "c", CachePolicy.ssd(100))
        assert cache._pools[pool_id].admission is None

    def test_resolution_precedence_policy_over_config_over_default(self):
        _, _, cache = make_ssd_cache(admission="admit_all")
        vm = cache.register_vm("a")
        by_policy = cache.create_pool(
            vm, "p", CachePolicy.ssd(100, admission="second_access"))
        by_config = cache.create_pool(vm, "c", CachePolicy.ssd(100))
        assert cache._pools[by_policy].admission.name == "second_access"
        assert cache._pools[by_config].admission.name == "admit_all"
        # With neither set, the default: no controller at all.
        _, _, plain = make_ssd_cache()
        vm2 = plain.register_vm("a")
        bare = plain.create_pool(vm2, "c", CachePolicy.ssd(100))
        assert plain._pools[bare].admission is None

    def test_admit_all_matches_disabled_hook_byte_for_byte(self):
        # The counted baseline must leave the data path untouched: same
        # stores, same hits, same rejections as running with no controller.
        results = []
        for admission in (None, "admit_all"):
            env, _, cache = make_ssd_cache(
                ssd_mb=1.0, admission=admission)  # 16-block store
            vm = cache.register_vm("a")
            pool_id = cache.create_pool(vm, "c", CachePolicy.ssd(100))
            for round_ in range(3):
                run_gen(env, cache.put_many(
                    vm, pool_id, [(1, i) for i in range(24)]))
                found = run_gen(env, cache.get_many(
                    vm, pool_id, [(1, i) for i in range(0, 24, 2)]))
            stats = cache.pool_stats(vm, pool_id)
            results.append((sorted(found), stats.puts_stored, stats.get_hits,
                            stats.put_rejected_capacity, stats.ssd_writes))
        assert results[0] == results[1]

    def test_second_access_rejections_counted_per_pool(self):
        env, _, cache = make_ssd_cache(admission="second_access")
        vm = cache.register_vm("a")
        pool_id = cache.create_pool(vm, "c", CachePolicy.ssd(100))
        keys = [(1, i) for i in range(8)]
        assert run_gen(env, cache.put_many(vm, pool_id, keys)) == 0
        assert run_gen(env, cache.put_many(vm, pool_id, keys)) == 8
        stats = cache.pool_stats(vm, pool_id)
        assert stats.put_rejected_admission == 8
        assert stats.puts_stored == 8

    def test_backpressure_counted_separately_from_admission(self):
        # One-block write buffer, slow drain: the second put of a batch
        # finds the buffer full and must land in the backpressure bucket,
        # not the admission one.
        env, _, cache = make_ssd_cache(ssd_mb=1.0, buffer_mb=0.001)
        vm = cache.register_vm("a")
        pool_id = cache.create_pool(vm, "c", CachePolicy.ssd(100))
        stored = run_gen(env, cache.put_many(
            vm, pool_id, [(1, 0), (1, 1), (1, 2)]))
        stats = cache.pool_stats(vm, pool_id)
        assert stored == 1
        assert stats.put_rejected_backpressure == 2
        assert stats.put_rejected_admission == 0
        # The full ledger still balances.
        assert stats.puts == (stats.puts_stored
                              + stats.put_rejected_policy
                              + stats.put_rejected_capacity
                              + stats.put_rejected_admission
                              + stats.put_rejected_backpressure)


class TestReportHelpers:
    def test_hits_per_gb(self):
        assert hits_per_gb_written(100, 0) is None
        assert hits_per_gb_written(100, GB) == pytest.approx(100.0)

    def test_format_lifetime_scales(self):
        assert format_lifetime(None) == "inf"
        assert format_lifetime(30.0) == "30s"
        assert format_lifetime(7200.0) == "2.0h"
        assert format_lifetime(2 * 86400.0) == "2.0d"
        assert format_lifetime(2 * 365 * 86400.0) == "2.0y"

    def test_endurance_summary_fields(self):
        wear = WearModel(block_bytes=BLK, capacity_bytes=GB, pe_cycles=1000,
                         erase_block_kb=1024.0)
        wear.record_write(16384)  # 1 GB
        summary = endurance_summary(wear, elapsed_s=100.0, hits=500)
        assert summary["ssd_gb_written"] == pytest.approx(1.0)
        assert summary["waf"] == 1.0
        assert summary["hits_per_gb"] == pytest.approx(500.0)
        assert summary["projected_lifetime_s"] == wear.projected_lifetime_s(100.0)


class TestDeviceWearWiring:
    def test_ssd_charges_wear_on_write_completion(self):
        env = Environment()
        ssd = SSD(env, BLK, spec=SSDSpec())
        assert ssd.wear is not None

        def proc(env):
            yield from ssd.write(0, 4)

        env.run(until=env.process(proc(env)))
        assert ssd.wear.host_bytes_written == 4 * BLK
        assert ssd.stats.bytes_written == 4 * BLK

    def test_spec_parameterizes_wear(self):
        env = Environment()
        spec = SSDSpec(capacity_gb=100.0, pe_cycles=500, waf=1.5)
        ssd = SSD(env, BLK, spec=spec)
        assert ssd.wear.capacity_bytes == 100 * GB
        assert ssd.wear.pe_cycles == 500
        assert ssd.wear.waf == 1.5
