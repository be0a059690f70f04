"""The two actuators (Section IV): VM-agent and APP-agent.

* :class:`VMAgent` performs VM-level scaling: provisions a VM through the
  hypervisor (15 s preparation), creates the tier server inside it, joins it
  to the balancer — or drains a server, waits for in-flight work, removes it
  and terminates its VM.
* :class:`AppAgent` performs fine-grained soft-resource re-allocation:
  resizing thread pools and DB connection pools of *live* servers without
  interrupting them.

Both agents and the controller write one kind of record,
:class:`ControlEvent`, through :func:`log_control` into the run's one
control log, ``NTierSystem.control_log``; the scaling timelines of
Fig 5(c)–(f) are its ``servers`` series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.cluster.hypervisor import Hypervisor
from repro.cluster.vm import VirtualMachine, VMState
from repro.errors import ControlError
from repro.ntier.softconfig import SoftResourceConfig
from repro.sim.events import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.agent import MonitorFleet
    from repro.ntier.server import TierServer
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment


@dataclass(frozen=True)
class ControlEvent:
    """One control-plane record: a controller decision or an agent action.

    ``actor`` is ``"controller"``, ``"vm-agent"`` or ``"app-agent"``;
    ``servers`` is the accepting-server count of ``tier`` when the record
    was written (``None`` outside the scalable app and db tiers).
    """

    time: float
    actor: str
    tier: str
    kind: str  # "scale_out_started", "join", "apply", "crash", ...
    detail: str = ""
    servers: Optional[int] = None


def log_control(
    system: "NTierSystem", actor: str, tier: str, kind: str, detail: str = ""
) -> None:
    """Append one :class:`ControlEvent` to ``system.control_log``."""
    servers = None
    if tier in VMAgent.SCALABLE_TIERS:
        servers = len(system.active_servers(tier))
    system.control_log.append(
        ControlEvent(system.env.now, actor, tier, kind, detail, servers)
    )


class VMAgent:
    """Starts and stops VMs carrying tier servers.

    ``preparation_periods`` maps tier -> seconds from the provision call to
    service mode.  Stateless app servers use the paper's 15 s; stateful DB
    replicas default to 30 s — the paper notes that "adding VMs that run
    stateful servers is more complicated because of the data/state
    consistency issues", and the longer warm-up is what opens the windows
    in which a freshly doubled connection-pool total hammers a not-yet-
    reinforced MySQL tier (the Fig 5 incidents).
    """

    #: Tiers this agent can scale (the paper never scales the web tier).
    SCALABLE_TIERS = ("app", "db")

    #: Default per-tier VM preparation periods (seconds).
    DEFAULT_PREPARATION_PERIODS = {"app": 15.0, "db": 30.0}

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        hypervisor: Hypervisor,
        fleet: Optional["MonitorFleet"] = None,
        preparation_periods: Optional[Dict[str, float]] = None,
    ) -> None:
        self.env = env
        self.system = system
        self.hypervisor = hypervisor
        self.fleet = fleet
        self.preparation_periods = dict(
            self.DEFAULT_PREPARATION_PERIODS
            if preparation_periods is None
            else preparation_periods
        )
        self._vm_by_server: Dict[str, VirtualMachine] = {}
        self._vm_seq = itertools.count(1)
        self._bootstrapped = False

    # -- bookkeeping --------------------------------------------------------------
    def vm_for(self, server: "TierServer") -> Optional[VirtualMachine]:
        """The VM hosting ``server`` (``None`` for unbootstrapped servers)."""
        return self._vm_by_server.get(server.name)

    def bootstrap(self) -> None:
        """Attach already-RUNNING VMs to the system's initial servers.

        The paper's experiments start with a live 1/1/1 deployment; its VMs
        exist (and bill) from t = 0 without a boot delay.
        """
        if self._bootstrapped:
            raise ControlError("VMAgent.bootstrap() called twice")
        self._bootstrapped = True
        for server in self.system.all_servers():
            vm, _ready = self.hypervisor.provision(
                f"vm-{server.name}", preparation_period=0.0
            )
            vm.server = server
            self._vm_by_server[server.name] = vm
            log_control(self.system, "vm-agent", server.tier, "bootstrap",
                        server.name)

    # -- scale out -----------------------------------------------------------------
    def scale_out(self, tier: str, **server_kwargs) -> Process:
        """Provision a VM, boot it, create and register the tier server.

        Returns a process that finishes with the new server once it is in
        service.  ``server_kwargs`` are forwarded to the topology's server
        factory (DCM passes the planned pool sizes here).
        """
        if tier not in self.SCALABLE_TIERS:
            raise ControlError(f"tier {tier!r} is not scalable")
        return self.env.process(self._scale_out(tier, server_kwargs))

    def _scale_out(self, tier: str, server_kwargs):
        vm_name = f"vm-{tier}-{next(self._vm_seq)}"
        vm, ready = self.hypervisor.provision(
            vm_name, preparation_period=self.preparation_periods.get(tier)
        )
        log_control(self.system, "vm-agent", tier, "provision", vm_name)
        yield ready
        if tier == "app":
            server = self.system.add_tomcat(**server_kwargs)
        else:
            server = self.system.add_mysql(**server_kwargs)
        vm.server = server
        self._vm_by_server[server.name] = vm
        if self.fleet is not None:
            self.fleet.reconcile()
        log_control(self.system, "vm-agent", tier, "join",
                    f"{server.name} on {vm_name}")
        return server

    # -- scale in -------------------------------------------------------------------
    def choose_victim(self, tier: str) -> "TierServer":
        """Pick the server to remove: the most recently added accepting one
        (LIFO keeps the oldest, warmest servers in place).

        On a sharded db tier LIFO alone is topology-blind: removing a
        shard's last member black-holes its key range, and removing a
        primary forces a failover.  So shard-carrying candidates are
        filtered — never the last member of a shard, replicas before
        primaries — with LIFO order preserved within each preference
        level.  When every shard is down to one member the tier is at its
        sharded floor and this raises :class:`ControlError` (the
        controller logs ``scale_in_failed`` and moves on), because each
        shard owns a key range no other server can serve.  Unsharded
        tiers (``shard is None`` everywhere) take the plain LIFO path
        unchanged.
        """
        candidates = self.system.active_servers(tier)
        if len(candidates) < 2:
            raise ControlError(f"tier {tier!r} cannot shrink below one server")
        shard_sizes: dict = {}
        for server in candidates:
            sid = getattr(server, "shard", None)
            if sid is not None:
                shard_sizes[sid] = shard_sizes.get(sid, 0) + 1

        def eligible(server: "TierServer", spare_primary: bool) -> bool:
            sid = getattr(server, "shard", None)
            if sid is None:
                return True
            if shard_sizes.get(sid, 0) < 2:
                return False
            return not (spare_primary and getattr(server, "role", "") == "primary")

        for spare_primary in (True, False):
            for server in reversed(candidates):
                if eligible(server, spare_primary):
                    return server
        raise ControlError(
            f"tier {tier!r} is at its sharded floor (one server per shard); "
            "no scale-in victim"
        )

    def scale_in(self, tier: str, server: Optional["TierServer"] = None) -> Process:
        """Drain a server, remove it, and terminate its VM.

        Returns a process that finishes with the removed server's name.
        """
        victim = server if server is not None else self.choose_victim(tier)
        return self.env.process(self._scale_in(tier, victim))

    def _scale_in(self, tier: str, victim: "TierServer"):
        log_control(self.system, "vm-agent", tier, "drain", victim.name)
        vm = self._vm_by_server.get(victim.name)
        if vm is not None and vm.state is VMState.RUNNING:
            vm.transition(VMState.DRAINING)
        yield self.system.drain(victim)
        self.system.remove(victim)
        if vm is not None:
            self.hypervisor.terminate(vm)
            self._vm_by_server.pop(victim.name, None)
        if self.fleet is not None:
            self.fleet.reconcile()
        log_control(self.system, "vm-agent", tier, "terminate", victim.name)
        return victim.name

    # -- crash handling --------------------------------------------------------------
    def handle_crash(self, server: "TierServer") -> None:
        """Clean up after an abrupt server death (fault injection).

        The server is already dead — no drain.  Force-terminate its VM (a
        crashed host stops billing), drop the bookkeeping, and reconcile the
        monitor fleet so no orphaned agent keeps sampling a corpse.
        """
        vm = self._vm_by_server.pop(server.name, None)
        if vm is not None:
            self.hypervisor.terminate(vm)
        if self.fleet is not None:
            self.fleet.reconcile()
        log_control(self.system, "vm-agent", server.tier, "crash", server.name)


class AppAgent:
    """Resizes soft resources on live servers (Section IV-B).

    Controls Tomcat's request-processing concurrency *directly* (its thread
    pool) and MySQL's *indirectly* (the upstream Tomcat connection pools) —
    the two mechanisms the paper describes.
    """

    def __init__(self, env: "Environment", system: "NTierSystem") -> None:
        self.env = env
        self.system = system

    def apply(self, soft: SoftResourceConfig) -> None:
        """Apply a full soft-resource allocation to every live server."""
        self.system.apply_soft_config(soft)
        log_control(self.system, "app-agent", "all", "apply", str(soft))

    def set_tomcat_threads(self, size: int) -> None:
        """Resize every Tomcat's thread pool (direct concurrency control)."""
        for server in self.system.tier_servers("app"):
            server.threads.resize(size)
        self.system.soft = self.system.soft.with_tomcat_threads(size)
        log_control(self.system, "app-agent", "app", "tomcat_threads", str(size))

    def set_db_connections_per_tomcat(self, size: int) -> None:
        """Resize every Tomcat's DB connection pool (indirect control of
        MySQL's concurrency)."""
        for server in self.system.tier_servers("app"):
            server.db_pool.resize(size)
        self.system.soft = self.system.soft.with_db_connections(size)
        log_control(self.system, "app-agent", "db", "db_connections", str(size))
