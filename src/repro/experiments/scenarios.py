"""Declarative scenario builder.

Experiments in this repository are hand-written classes; users composing
their *own* derivative-cloud studies shouldn't need that.  A
:class:`Scenario` describes a host, its hypervisor cache, VMs, containers,
workloads, and timed policy events as plain data, then runs the whole
thing and returns per-workload rates plus cache statistics::

    from repro.experiments.scenarios import Scenario

    scenario = (
        Scenario(seed=7)
        .cache("doubledecker", mem_mb=1024)
        .vm("vm1", memory_mb=4096, weight=100)
        .container("vm1", "web", limit_mb=1024, policy="mem:60",
                   workload=("webserver", {"nfiles": 8000}))
        .container("vm1", "mail", limit_mb=1024, policy="mem:40",
                   workload=("varmail", {"nfiles": 10000}))
        .at(600, "set_policy", container="mail", policy="ssd:100")
    )
    result = scenario.run(warmup_s=300, duration_s=600)
    print(result.table())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..context import SimContext
from ..core import CachePolicy, DDConfig, StoreKind
from ..metrics import format_table
from ..workloads import (
    CounterSnapshot,
    MongoWorkload,
    MySQLWorkload,
    RedisWorkload,
    VarmailWorkload,
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
)
from .runner import OccupancySampler

__all__ = ["Scenario", "ScenarioResult", "parse_policy", "WORKLOAD_TYPES"]

#: Workload type registry for declarative specs.
WORKLOAD_TYPES = {
    "webserver": WebserverWorkload,
    "webproxy": WebproxyWorkload,
    "varmail": VarmailWorkload,
    "mail": VarmailWorkload,
    "videoserver": VideoserverWorkload,
    "redis": RedisWorkload,
    "mysql": MySQLWorkload,
    "mongodb": MongoWorkload,
}


def parse_policy(spec: Union[str, CachePolicy, None]) -> CachePolicy:
    """Parse ``"mem:60"`` / ``"ssd:100"`` / ``"hybrid:40:60"`` / ``"none"``.

    SSD-backed kinds accept an optional trailing admission-policy name,
    e.g. ``"ssd:100:second_access"`` or ``"hybrid:40:60:write_throttle"``.
    """
    if spec is None:
        return CachePolicy.none()
    if isinstance(spec, CachePolicy):
        return spec
    parts = str(spec).lower().split(":")
    kind = parts[0]
    try:
        if kind == "none":
            return CachePolicy.none()
        if kind == "mem":
            return CachePolicy.memory(float(parts[1]))
        if kind == "ssd":
            admission = parts[2] if len(parts) > 2 else None
            return CachePolicy.ssd(float(parts[1]), admission=admission)
        if kind == "hybrid":
            admission = parts[3] if len(parts) > 3 else None
            return CachePolicy.hybrid(float(parts[1]), float(parts[2]),
                                      admission=admission)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed policy spec {spec!r}") from exc
    raise ValueError(f"unknown policy kind {kind!r} in {spec!r}")


#: Store names accepted by gauges and the ``set_capacity`` event.
_STORES = {"mem": StoreKind.MEMORY, "ssd": StoreKind.SSD}

#: Event action -> the keyword arguments it takes (all required).
_EVENT_ARGS = {
    "set_policy": ("container", "policy"),
    "set_limit": ("container", "limit_mb"),
    "set_vm_weight": ("vm", "weight"),
    "set_capacity": ("store", "mb"),
}


def _parse_gauges(gauges: Mapping[str, Optional[str]],
                  owner: str) -> Dict[str, Optional[StoreKind]]:
    """``{label: "mem" | "ssd" | None}`` -> ``{label: StoreKind | None}``."""
    parsed: Dict[str, Optional[StoreKind]] = {}
    for label, store in gauges.items():
        if store is not None and store not in _STORES:
            raise ValueError(f"unknown store {store!r} for gauge {label!r} "
                             f"of {owner}; expected 'mem', 'ssd' or None")
        parsed[label] = _STORES.get(store)
    return parsed


@dataclass
class _VMSpec:
    name: str
    memory_mb: float
    weight: float
    boot_at: float
    gauges: Dict[str, Optional[StoreKind]]


@dataclass
class _ContainerSpec:
    vm: str
    name: str
    limit_mb: float
    policy: CachePolicy
    workload_type: Optional[str]
    workload_args: Dict[str, Any]
    start_at: float
    workload_at: float
    partition_mb: Optional[float]
    gauges: Dict[str, Optional[StoreKind]]


@dataclass
class _Event:
    time: float
    action: Union[str, Callable]
    kwargs: Dict[str, Any]


@dataclass
class ScenarioResult:
    """Rates and cache stats for every workload-bearing container.

    ``containers`` and ``host`` are the live simulation objects, for
    readers that need guest-side state (``swap_out_mb``, ``anon_mb``,
    ``file_mb``) or device state (``host.ssd.wear``) after the run.
    """

    rates: Dict[str, dict]
    cache_stats: Dict[str, Any]
    series: Dict[str, Any]
    duration_s: float
    containers: Dict[str, Any] = field(default_factory=dict)
    host: Any = None

    def table(self) -> str:
        headers = ["container", "ops/s", "MB/s", "lat (ms)",
                   "hvcache MB", "hit %", "evictions"]
        rows: List[List[object]] = []
        for name in sorted(self.rates):
            rate = self.rates[name]
            stats = self.cache_stats.get(name)
            rows.append([
                name,
                round(rate["ops_per_s"], 1),
                round(rate["mb_per_s"], 2),
                round(rate["mean_latency_ms"], 2),
                round(rate.get("hvcache_mb", 0.0), 1),
                round(100 * stats.hit_ratio, 1) if stats else "-",
                stats.evictions if stats else "-",
            ])
        return format_table(headers, rows, title="scenario results")


class Scenario:
    """A declarative derivative-cloud scenario (see module docstring)."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._cache_kind = "doubledecker"
        self._cache_kwargs: Dict[str, Any] = {"mem_mb": 1024.0}
        self._vms: List[_VMSpec] = []
        self._containers: List[_ContainerSpec] = []
        self._events: List[_Event] = []

    # -- declaration -----------------------------------------------------------

    def cache(self, kind: str, **kwargs) -> "Scenario":
        """Choose the hypervisor cache: ``doubledecker`` (mem_mb, ssd_mb,
        plus any DDConfig field), ``global`` (capacity_mb, per_vm_cap_mb),
        ``static`` (capacity_mb), or ``none``."""
        if kind not in ("doubledecker", "global", "static", "none"):
            raise ValueError(f"unknown cache kind {kind!r}")
        self._cache_kind = kind
        self._cache_kwargs = dict(kwargs)
        return self

    def vm(self, name: str, memory_mb: float,
           weight: float = 100.0, boot_at: float = 0.0,
           gauges: Optional[Mapping[str, Optional[str]]] = None) -> "Scenario":
        """Add a VM that boots at ``boot_at`` (its containers boot no
        earlier).  ``gauges`` maps a series label to the store whose
        per-VM occupancy it samples (``"mem"``, ``"ssd"`` or ``None`` for
        both); a VM has no gauge by default."""
        self._vms.append(_VMSpec(
            name, memory_mb, weight, boot_at,
            _parse_gauges(gauges or {}, f"VM {name!r}"),
        ))
        return self

    def container(self, vm: str, name: str, limit_mb: float,
                  policy: Union[str, CachePolicy, None] = None,
                  workload: Optional[Tuple[str, Dict[str, Any]]] = None,
                  start_at: float = 0.0,
                  partition_mb: Optional[float] = None,
                  workload_at: float = 0.0,
                  gauges: Optional[Mapping[str, Optional[str]]] = None,
                  ) -> "Scenario":
        """Add a container that boots at ``start_at``.

        The workload is named after the container unless its arguments
        carry a ``"name"`` (its RNG stream is ``workload.<name>``), and
        starts when the container boots or at ``workload_at`` if that is
        later.  ``partition_mb`` is the container's hard cap under the
        ``static`` (Morai-like) cache.  ``gauges`` maps a series label to
        the store whose pool occupancy it samples; the default is one
        gauge labelled ``name`` over both stores, ``{}`` disables it.
        """
        workload_type, workload_args = (None, {})
        if workload is not None:
            workload_type, workload_args = workload
            if workload_type not in WORKLOAD_TYPES:
                raise ValueError(f"unknown workload type {workload_type!r}")
        self._containers.append(_ContainerSpec(
            vm=vm, name=name, limit_mb=limit_mb,
            policy=parse_policy(policy),
            workload_type=workload_type,
            workload_args={"name": name, **workload_args},
            start_at=start_at,
            workload_at=workload_at,
            partition_mb=partition_mb,
            gauges=_parse_gauges({name: None} if gauges is None else gauges,
                                 f"container {name!r}"),
        ))
        return self

    def at(self, time: float, action: Union[str, Callable], **kwargs) -> "Scenario":
        """Schedule an event: ``set_policy`` (container=, policy=),
        ``set_limit`` (container=, limit_mb=), ``set_vm_weight`` (vm=,
        weight=), ``set_capacity`` (store= ``"mem"`` or ``"ssd"``, mb=),
        or a callable receiving the live runtime dict.  Events sharing an
        instant fire in declaration order, after any boot at that instant."""
        expected = () if callable(action) else _EVENT_ARGS.get(action)
        if expected is None:
            raise ValueError(f"unknown event action {action!r}")
        if set(kwargs) != set(expected):
            raise ValueError(
                f"event {action!r} at t={time} takes exactly {expected}, "
                f"got {tuple(sorted(kwargs))}")
        if action == "set_policy":
            kwargs["policy"] = parse_policy(kwargs["policy"])
        if action == "set_capacity" and kwargs["store"] not in _STORES:
            raise ValueError(
                f"unknown store {kwargs['store']!r} in set_capacity at "
                f"t={time}; expected 'mem' or 'ssd'")
        self._events.append(_Event(time, action, kwargs))
        return self

    # -- execution ---------------------------------------------------------------

    def _validate(self) -> Dict[str, float]:
        """Reject declarations that would only fail mid-simulation;
        returns each container's boot time (never before its VM's)."""
        if not self._vms:
            raise ValueError("scenario has no VMs")
        vm_boot = {spec.name: spec.boot_at for spec in self._vms}
        container_boot: Dict[str, float] = {}
        for spec in self._containers:
            if spec.vm not in vm_boot:
                raise ValueError(f"container {spec.name!r} references "
                                 f"unknown VM {spec.vm!r}")
            if spec.partition_mb is not None and self._cache_kind != "static":
                raise ValueError(
                    f"container {spec.name!r} sets partition_mb but the "
                    f"cache is {self._cache_kind!r}, not 'static'")
            container_boot[spec.name] = max(spec.start_at, vm_boot[spec.vm])
        for event in self._events:
            for kind, boots in (("container", container_boot), ("vm", vm_boot)):
                target = event.kwargs.get(kind)
                if target is None:
                    continue
                if target not in boots:
                    raise ValueError(f"event {event.action!r} at t={event.time} "
                                     f"references unknown {kind} {target!r}")
                if event.time < boots[target]:
                    raise ValueError(
                        f"event {event.action!r} at t={event.time} precedes "
                        f"the boot of {kind} {target!r} at t={boots[target]}")
            if (event.action == "set_capacity"
                    and self._cache_kind != "doubledecker"):
                raise ValueError(
                    f"event 'set_capacity' at t={event.time} needs the "
                    f"'doubledecker' cache, not {self._cache_kind!r}")
        return container_boot

    def _install_cache(self, host):
        kind = self._cache_kind
        kwargs = dict(self._cache_kwargs)
        if kind == "doubledecker":
            mem_mb = kwargs.pop("mem_mb", 1024.0)
            ssd_mb = kwargs.pop("ssd_mb", 0.0)
            return host.install_doubledecker(DDConfig(
                mem_capacity_mb=mem_mb, ssd_capacity_mb=ssd_mb, **kwargs
            ))
        if kind == "global":
            return host.install_global_cache(
                capacity_mb=kwargs.pop("capacity_mb", 1024.0), **kwargs
            )
        if kind == "static":
            return host.install_static_partition(
                capacity_mb=kwargs.pop("capacity_mb", 1024.0)
            )
        return host.install_null_cache()

    def run(self, warmup_s: float = 120.0, duration_s: float = 300.0,
            sample_interval_s: float = 10.0) -> ScenarioResult:
        """Build everything, run warm-up + measurement, return results."""
        container_boot = self._validate()
        ctx = SimContext(seed=self.seed)
        host = ctx.create_host()
        cache = self._install_cache(host)
        sampler = OccupancySampler(ctx, interval_s=sample_interval_s)
        vms: Dict[str, Any] = {}
        containers: Dict[str, Any] = {}
        workloads: Dict[str, Any] = {}
        runtime = {"ctx": ctx, "host": host, "cache": cache, "vms": vms,
                   "containers": containers, "workloads": workloads}

        def schedule(time: float, fn: Callable, arg) -> None:
            """``fn(arg)`` now if ``time`` has come, else from a process
            that sleeps until then.  Processes wake in creation order, so
            same-instant actions keep the order they were set up in."""
            delay = time - ctx.now
            if delay <= 0:
                fn(arg)
                return

            def sleeper(env):
                yield env.timeout(delay)
                fn(arg)
            ctx.env.process(sleeper(ctx.env), name=f"{fn.__name__}@{time}")

        def watch(register: Callable, gauges, target_id: int) -> None:
            if self._cache_kind != "none":
                for label, kind in gauges.items():
                    register(cache, label, target_id, kind)

        def boot_vm(spec: _VMSpec) -> None:
            vm = vms[spec.name] = host.create_vm(
                spec.name, memory_mb=spec.memory_mb, cache_weight=spec.weight)
            watch(sampler.watch_vm, spec.gauges, vm.vm_id)

        def boot_container(spec: _ContainerSpec) -> None:
            container = containers[spec.name] = vms[spec.vm].create_container(
                spec.name, spec.limit_mb, spec.policy)
            if spec.partition_mb is not None:
                cache.set_partition(container.pool_id, spec.partition_mb)
            if spec.workload_type is not None:
                schedule(spec.workload_at, start_workload, spec)
            watch(sampler.watch_pool, spec.gauges, container.pool_id)

        def start_workload(spec: _ContainerSpec) -> None:
            workload = WORKLOAD_TYPES[spec.workload_type](**spec.workload_args)
            workload.start(containers[spec.name], ctx.streams)
            workloads[spec.name] = workload

        def fire(event: _Event) -> None:
            kwargs = event.kwargs
            if callable(event.action):
                event.action(runtime)
            elif event.action == "set_policy":
                containers[kwargs["container"]].set_cache_policy(
                    kwargs["policy"])
            elif event.action == "set_limit":
                containers[kwargs["container"]].set_memory_limit_mb(
                    kwargs["limit_mb"])
            elif event.action == "set_vm_weight":
                host.set_vm_cache_weight(vms[kwargs["vm"]], kwargs["weight"])
            elif event.action == "set_capacity":
                cache.set_capacity(_STORES[kwargs["store"]], kwargs["mb"])

        for vm_spec in self._vms:
            schedule(vm_spec.boot_at, boot_vm, vm_spec)
        for spec in self._containers:
            schedule(container_boot[spec.name], boot_container, spec)
        sampler.start()
        for event in self._events:
            schedule(event.time, fire, event)

        # The workload set is read after warm-up and again after the
        # window because containers may boot (or start work) mid-run; a
        # late one is rated on everything it did against the full window.
        ctx.run(until=ctx.now + warmup_s)
        idle = CounterSnapshot(time=ctx.now, ops=0, bytes_read=0,
                               bytes_written=0, latency_total=0.0)
        begin = {name: w.snapshot() for name, w in workloads.items()}
        ctx.run(until=ctx.now + duration_s)
        rates = {name: w.snapshot().rates_since(begin.get(name, idle))
                 for name, w in workloads.items()}
        cache_stats = {}
        for name, container in containers.items():
            cache_stats[name] = container.cache_stats()
            if name in rates:
                rates[name]["hvcache_mb"] = container.hvcache_mb
        return ScenarioResult(
            rates=rates,
            cache_stats=cache_stats,
            series=dict(sampler.series),
            duration_s=duration_s,
            containers=containers,
            host=host,
        )
