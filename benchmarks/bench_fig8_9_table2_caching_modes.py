"""FIG-8 / FIG-9 / TAB-2 — impact of caching modes (the paper's §5.1).

One experiment regenerates the occupancy traces of Figs 8-9 and the
performance table (Table 2).  Shape checks:

* DDMem webserver beats Global by a large factor (paper: ~6x);
* under DD, web/proxy/mail see zero evictions — only video is victimized;
* the SSD store absorbs everything with zero evictions but is slower
  than memory for the web and video workloads;
* under Global, mail's share collapses far below its fair share, while
  DD keeps it near its entitlement (Fig 8's story).
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.experiments import CachingModesExperiment


def test_fig8_9_table2_caching_modes():
    exp = CachingModesExperiment(scale=BENCH_SCALE, seed=BENCH_SEED,
                                 warmup_s=250, duration_s=300)
    result = exp.run()
    print()
    print(result.summary(plots=False))

    # Table 2 shapes.
    assert result.scalars["web_ddmem_speedup"] > 3.0
    assert result.scalars["webserver_ddmem_evictions"] == 0
    assert result.scalars["webproxy_ddmem_evictions"] == 0
    assert result.scalars["mail_ddmem_evictions"] == 0

    headers, rows = result.rows["table2: performance and cache behaviour"]
    table = {row[0]: row for row in rows}
    idx = {name: i for i, name in enumerate(headers)}

    # Videoserver: Global fastest, SSD in between or close, DDMem curtailed.
    video = table["videoserver"]
    assert video[idx["Global MB/s"]] > video[idx["DDMem MB/s"]]
    # SSD mode: no evictions for anyone (240 GB swallows everything).
    for name in ("webserver", "webproxy", "mail", "videoserver"):
        assert table[name][idx["DDSSD evict"]] == 0
    # SSD slower than memory for the webserver (device latency shows).
    web = table["webserver"]
    assert web[idx["DDMem MB/s"]] > web[idx["DDSSD MB/s"]]
    # Mail's lookup hit ratio improves under DD (paper: 1% -> 32%).
    mail = table["mail"]
    assert mail[idx["DDMem lookup%"]] > mail[idx["Global lookup%"]]

    # Fig 8 shape: under Global, mail's occupancy collapses below half of
    # its fair share; DD holds it near (>= half of) the fair share.
    fair_mb = exp.mb(3072) / 4
    t_half = (250 + 300) / 2
    global_mail = result.series["Global/mail"].mean(start=t_half)
    ddmem_mail = result.series["DDMem/mail"].mean(start=t_half)
    assert global_mail < 0.5 * fair_mb
    assert ddmem_mail > 0.5 * fair_mb

    # Fig 9 shape: video fills the whole cache early in every mode.
    for mode in ("Global", "DDMem"):
        peak = result.series[f"{mode}/videoserver"].max()
        assert peak > 0.9 * exp.mb(3072)
