"""Multi-host topology: N hosts, one sharded simulation, cooperation.

A :class:`Fleet` owns N :class:`~repro.hypervisor.host.Host`\\ s, each
with its *own* :class:`~repro.simkernel.core.Environment`, RNG streams,
and metrics registry — one simulation shard per host.  Hosts interact
only through the fleet's control plane (VM live-migration and
remote-memory lending), and every cross-host effect is delayed by at
least the :class:`~repro.fleet.network.NetworkModel` latency floor, so
the shards advance under conservative lookahead: all hosts reach a
sync boundary, the control plane acts, and the next window begins.
Boundaries are derived from the scheduled control events themselves —
between two control events no host can observe another, which makes the
window *at least* the latency floor and usually much larger.

Determinism: node 0 consumes the master seed exactly as a single-host
:class:`~repro.context.SimContext` does, so a 1-host fleet reproduces
the single-host path byte-for-byte; nodes ``i > 0`` draw from spawned
sub-factories.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..core import DDConfig, DoubleDeckerCache, StoreKind, check_host
from ..core.audit import InvariantViolation
from ..core.config import CachePolicy
from ..guest import VirtualMachine
from ..hypervisor import Host, HostSpec
from ..metrics import MetricFamily, MetricsRegistry, registry_families, render_families
from ..simkernel import Environment, RandomStreams
from ..storage import MB
from .lending import LendingCoordinator
from .network import NetworkModel

__all__ = ["Fleet", "FleetNode", "MigrationRecord", "check_fleet",
           "assert_fleet_clean"]

_MEMORY = StoreKind.MEMORY


@dataclass
class FleetNode:
    """One shard: a host plus its private simulation runtime."""

    index: int
    env: Environment
    streams: RandomStreams
    registry: MetricsRegistry
    host: Host
    #: Histogram-name prefix (``"host2."``); empty in a 1-host fleet so
    #: metric names match the single-host path exactly.
    scope: str


@dataclass
class MigrationRecord:
    """Accounting for one cross-host VM live-migration."""

    vm: str
    src_host: int
    dst_host: int
    requested_at: float
    arrived_at: float
    blocks_exported: int
    blocks_accepted: int
    blocks_rejected: int
    bytes_moved: float

    @property
    def downtime_s(self) -> float:
        return self.arrived_at - self.requested_at


class Fleet:
    """N cooperating hosts advanced as one sharded simulation."""

    def __init__(
        self,
        seed: int = 0,
        hosts: int = 1,
        spec: Optional[HostSpec] = None,
        net: Optional[NetworkModel] = None,
    ) -> None:
        if hosts < 1:
            raise ValueError(f"need at least one host, got {hosts}")
        self.seed = seed
        self.net = net or NetworkModel()
        self.nodes: List[FleetNode] = []
        base = RandomStreams(seed)
        for index in range(hosts):
            env = Environment()
            # Node 0 IS the single-host context (same master seed, same
            # stream names), which is what makes a 1-host fleet replay
            # the single-host path byte-for-byte.
            streams = base if index == 0 else base.spawn(f"host{index}")
            registry = MetricsRegistry()
            host = Host(env, spec=spec, streams=streams, registry=registry)
            scope = f"host{index}." if hosts > 1 else ""
            self.nodes.append(
                FleetNode(index, env, streams, registry, host, scope)
            )
        self._now = 0.0
        #: Pending control-plane actions: (time, seq, callback(now)).
        self._controls: List[Tuple[float, int, Callable[[float], None]]] = []
        self._control_seq = count()
        self.migrations: List[MigrationRecord] = []
        self.lending: Optional[LendingCoordinator] = None

    # -- construction ---------------------------------------------------

    def install_doubledecker(self, config: DDConfig) -> List[DoubleDeckerCache]:
        """Install one DD instance per host; returns them in host order."""
        caches = []
        for node in self.nodes:
            name = f"{node.scope}ddecker" if node.scope else "ddecker"
            caches.append(node.host.install_doubledecker(config, name=name))
        return caches

    def create_vm(self, host_index: int, name: str, memory_mb: float,
                  **kwargs) -> VirtualMachine:
        """Boot a VM on one host (host-scoped observability attached)."""
        node = self.nodes[host_index]
        vm = node.host.create_vm(name, memory_mb, **kwargs)
        vm.cleancache.obs_scope = node.scope
        return vm

    def enable_lending(self, **kwargs) -> LendingCoordinator:
        """Turn the remote-memory lending coordinator on."""
        if self.lending is not None:
            raise RuntimeError("lending coordinator already enabled")
        self.lending = LendingCoordinator(self, **kwargs)
        self.lending.start()
        return self.lending

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def _at(self, when: float, fn: Callable[[float], None]) -> None:
        """Schedule a control-plane action at fleet time ``when``."""
        if when < self._now:
            raise ValueError(
                f"control action at {when} is in the past (now {self._now})"
            )
        heapq.heappush(self._controls, (when, next(self._control_seq), fn))

    def run(self, until: float) -> None:
        """Advance every shard to ``until`` under conservative lookahead.

        Each iteration picks the next sync boundary (the earliest pending
        control action, else ``until``), barriers all shards there, then
        runs the due control actions.  Control actions only ever schedule
        effects at least one network latency in the future, so no shard
        can have passed an effect's time when it is applied.
        """
        until = float(until)
        while True:
            boundary = until
            if self._controls and self._controls[0][0] < boundary:
                boundary = self._controls[0][0]
            if boundary > self._now:
                # No shard can receive an event below a boundary it has
                # reached, so the order they are advanced in cannot matter.
                for node in self.nodes:
                    node.env.run(until=boundary)
                self._now = boundary
            while self._controls and self._controls[0][0] <= self._now:
                _, _, fn = heapq.heappop(self._controls)
                fn(self._now)
            if self._now >= until:
                break

    # -- observability export -------------------------------------------

    def metrics_families(self) -> List[MetricFamily]:
        """Every shard's registry as metric families, one ``host`` label
        per node — same-name families across hosts merge at render time,
        so a counter becomes one family with N labelled samples."""
        families: List[MetricFamily] = []
        for node in self.nodes:
            families.extend(registry_families(
                node.registry, labels={"host": f"host{node.index}"}))
        return families

    def export_metrics_text(self) -> str:
        """The whole fleet in Prometheus text exposition format (the
        same renderer the live service's ``/metrics`` endpoint uses)."""
        return render_families(self.metrics_families())

    # -- VM live-migration ----------------------------------------------

    def migrate_vm(
        self,
        name: str,
        src_host: int,
        dst_host: int,
        at: Optional[float] = None,
        on_depart: Optional[Callable[[VirtualMachine, FleetNode], None]] = None,
        on_arrival: Optional[Callable[[VirtualMachine, FleetNode], None]] = None,
    ) -> None:
        """Schedule a live migration of VM ``name`` between hosts.

        At ``at`` (default: now) the VM leaves the source: its cached
        blocks are exported through the fleet-level ``migrate_objects``
        analogue (every block counted ``migrated_out``), the VM is torn
        down, and its guest RAM plus memory-store blocks go on the wire.
        One network transfer later the VM boots on the destination with
        identical containers/policies and the destination cache adopts
        the exported blocks with per-block accept/reject accounting.
        ``on_depart`` runs just before teardown (stop workloads there);
        ``on_arrival`` runs on the rebuilt VM (restart them).
        """
        if src_host == dst_host:
            raise ValueError("source and destination host are the same")
        src_node = self.nodes[src_host]
        dst_node = self.nodes[dst_host]
        when = self._now if at is None else at

        def depart(now: float) -> None:
            self._depart(now, name, src_node, dst_node, on_depart, on_arrival)

        self._at(when, depart)

    def _depart(self, now, name, src_node, dst_node, on_depart, on_arrival):
        src = src_node.host
        vm = src.vms[name]
        if on_depart is not None:
            on_depart(vm, src_node)
        hv = src.hvcache
        exported: List[Tuple[str, CachePolicy, list]] = []
        if isinstance(hv, DoubleDeckerCache):
            exported = hv.export_vm_blocks(vm.vm_id)
        entry = getattr(hv, "vms", {}).get(vm.vm_id)
        weight = entry.weight if entry is not None else 100.0
        containers = [
            (c.name,
             c.cgroup.limit_blocks * src.block_bytes / MB,
             c.cgroup.policy)
            for c in vm.containers.values()
        ]
        exported_blocks = sum(len(items) for _, _, items in exported)
        mem_blocks = sum(
            1 for _, _, items in exported
            for _, _, kind in items if kind is _MEMORY
        )
        # What actually ships: the guest's RAM image plus the memory
        # store (the local SSD store stays behind — see adopt_blocks).
        nbytes = vm.memory_mb * MB + mem_blocks * src.block_bytes
        memory_mb, vcpus = vm.memory_mb, vm.vcpus
        src.destroy_vm(vm)

        def arrive(t_arrive: float) -> None:
            new_vm = self.create_vm(dst_node.index, name, memory_mb,
                                    vcpus=vcpus, cache_weight=weight)
            items_by_pool = {pname: items for pname, _, items in exported}
            accepted = rejected = 0
            dst_cache = dst_node.host.hvcache
            for cname, limit_mb, policy in containers:
                container = new_vm.create_container(cname, limit_mb, policy)
                items = items_by_pool.get(cname)
                if (items and container.pool_id is not None
                        and isinstance(dst_cache, DoubleDeckerCache)):
                    got, lost = dst_cache.adopt_blocks(
                        new_vm.vm_id, container.pool_id, items
                    )
                    accepted += got
                    rejected += lost
            # Blocks whose pool the new VM did not recreate count as
            # rejected too: they were exported but nothing adopted them.
            rejected += exported_blocks - accepted - rejected
            self.migrations.append(MigrationRecord(
                vm=name, src_host=src_node.index, dst_host=dst_node.index,
                requested_at=now, arrived_at=t_arrive,
                blocks_exported=exported_blocks, blocks_accepted=accepted,
                blocks_rejected=rejected, bytes_moved=nbytes,
            ))
            if on_arrival is not None:
                on_arrival(new_vm, dst_node)

        self._at(now + self.net.transfer_time(nbytes), arrive)


# ---------------------------------------------------------------------------
# Fleet-wide invariants
# ---------------------------------------------------------------------------


def check_fleet(fleet: Fleet) -> List[str]:
    """Every host's invariants plus fleet-global lending conservation."""
    violations: List[str] = []
    for node in fleet.nodes:
        violations.extend(
            f"host {node.index}: {violation}"
            for violation in check_host(node.host)
        )
    totals: Dict[StoreKind, Tuple[int, int]] = {}
    for node in fleet.nodes:
        cache = node.host.hvcache
        if not isinstance(cache, DoubleDeckerCache):
            continue
        for kind in (StoreKind.MEMORY, StoreKind.SSD):
            lent, borrowed = totals.get(kind, (0, 0))
            totals[kind] = (
                lent + cache.lend_out[kind],
                borrowed + cache.lend_in[kind],
            )
    for kind, (lent, borrowed) in totals.items():
        if lent != borrowed:
            violations.append(
                f"lending not conserved for {kind}: {lent} blocks lent out "
                f"but {borrowed} borrowed"
            )
    return violations


def assert_fleet_clean(fleet: Fleet, where: str = "") -> None:
    """Raise :class:`InvariantViolation` on any fleet-wide violation."""
    violations = check_fleet(fleet)
    if violations:
        prefix = f"{where}: " if where else ""
        raise InvariantViolation(
            prefix + "; ".join(violations)
        )
