#!/usr/bin/env python3
"""Building your own study with the declarative Scenario API.

A derivative-cloud provider runs two tenant VMs (weights 70/30) with a
MySQL database, a mail server, and a bursty webserver that only boots
mid-run.  The second tenant's VM itself boots at T=120 s (until then the
first one is entitled to the whole cache).  At T=300 s the provider
demotes the mail server to the SSD store to make room for the web burst —
all declared as data, no experiment class needed; the paper's own
experiments are built the same way.

Run:  python examples/custom_scenario.py
"""

from repro.experiments import Scenario
from repro.metrics import ascii_plot


def main() -> None:
    scenario = (
        Scenario(seed=11)
        .cache("doubledecker", mem_mb=768, ssd_mb=32768)
        .vm("tenant-a", memory_mb=2048, weight=70)
        # Boots mid-run; its container follows it.  The VM-level gauge
        # samples the memory store only, under its own label.
        .vm("tenant-b", memory_mb=1536, weight=30, boot_at=120.0,
            gauges={"tenant-b (mem)": "mem"})
        .container("tenant-a", "mysql-db", 768, policy="mem:60",
                   workload=("mysql", {"nrecords": 1_000_000,
                                       "buffer_pool_mb": 256, "threads": 2}))
        .container("tenant-a", "webburst", 512, policy="mem:40",
                   workload=("webserver", {"nfiles": 6000, "threads": 2}),
                   start_at=300.0)
        .container("tenant-b", "mail", 512, policy="mem:100",
                   workload=("varmail", {"nfiles": 10000, "threads": 2}))
        # Mid-run policy change: push the mail server to the SSD store.
        .at(300.0, "set_policy", container="mail", policy="ssd:100")
    )

    print("running scenario (900 simulated seconds)...")
    result = scenario.run(warmup_s=300, duration_s=600)
    print()
    print(result.table())
    print()
    print(ascii_plot(result.series, width=72, height=12,
                     title="hypervisor-cache occupancy per container and VM (MB)"))


if __name__ == "__main__":
    main()
