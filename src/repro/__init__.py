"""repro — a simulation-based reproduction of *DoubleDecker: a cooperative
disk caching framework for derivative clouds* (Middleware '17).

The package builds the complete platform the paper runs on — guest page
caches with cleancache hooks, cgroup memory control, queueing HDD/SSD
models, VM/container nesting — plus the DoubleDecker hypervisor cache
itself and the baselines it is evaluated against.

Quick start::

    from repro import SimContext, DDConfig, CachePolicy
    from repro.workloads import WebserverWorkload

    ctx = SimContext(seed=42)
    host = ctx.create_host()
    host.install_doubledecker(DDConfig(mem_capacity_mb=2048))
    vm = host.create_vm("vm1", memory_mb=4096)
    web = vm.create_container("web", 1024, CachePolicy.memory(60))
    workload = WebserverWorkload(nfiles=2000)
    workload.start(web, ctx.streams)
    ctx.run(until=600)
    print(workload.counters.ops, "ops")
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "CachePolicy": ".core",
    "Container": ".guest",
    "DDConfig": ".core",
    "DoubleDeckerCache": ".core",
    "GlobalCache": ".core",
    "HDDSpec": ".storage",
    "Host": ".hypervisor",
    "MemSpec": ".storage",
    "NullCache": ".core",
    "SSDSpec": ".storage",
    "SimContext": ".context",
    "StaticPartitionCache": ".core",
    "StoreKind": ".core",
    "VirtualMachine": ".guest",
    "analysis": ".analysis",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
