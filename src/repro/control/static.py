"""Static over-provisioning baseline (the paper's motivating strawman).

The introduction frames the whole problem: "over-provisioning only for peak
workload can waste significant amount of computing resources and power."
This controller is that strawman, made concrete so the claim is measurable:
it provisions a fixed per-tier server count at start-up — sized for the
trace's peak — applies one soft-resource allocation, and never scales.

Under a bursty trace it matches DCM's stability (capacity is always there)
at roughly ``peak/mean`` times the VM-seconds — the efficiency gap
``bench_overprovision.py`` quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.control.actuators import AppAgent, VMAgent, log_control
from repro.control.base import BaseAutoScaleController
from repro.errors import ControlError
from repro.model.optimizer import AllocationPlanner
from repro.model.service_time import ConcurrencyModel
from repro.monitor.collector import MetricCollector
from repro.ntier.softconfig import SoftResourceConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment


class StaticProvisioningController(BaseAutoScaleController):
    """Provision for peak once; never scale.

    Parameters
    ----------
    target_servers:
        Desired per-tier accepting server counts, e.g. ``{"app": 3, "db": 3}``.
    models:
        Optional per-tier concurrency models; when given, the soft
        allocation for the static fleet is planned once (DCM-style sizing,
        statically applied).  Without models the deployment's existing soft
        configuration stands.
    """

    name = "static"

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        collector: MetricCollector,
        vm_agent: VMAgent,
        target_servers: Dict[str, int],
        app_agent: Optional[AppAgent] = None,
        models: Optional[Dict[str, ConcurrencyModel]] = None,
        planner: Optional[AllocationPlanner] = None,
    ) -> None:
        for tier, count in target_servers.items():
            if tier not in VMAgent.SCALABLE_TIERS:
                raise ControlError(f"tier {tier!r} is not scalable")
            if count < 1:
                raise ControlError(f"{tier}: target must be >= 1, got {count}")
        super().__init__(env, system, collector, vm_agent, tiers=tuple(target_servers))
        self.target_servers = dict(target_servers)
        self.app_agent = app_agent
        self.models = models
        self.planner = planner or AllocationPlanner(
            apache_threads=system.soft.apache_threads
        )
        self._provisioned = False
        env.process(self._provision_to_target())

    # The control loop inherited from the base would evaluate thresholds;
    # neutralise it: static means static.
    def _run(self):
        while self._running:
            yield self.env.timeout(self.policy.control_period)
        return 0

    def _static_soft(self) -> Optional[SoftResourceConfig]:
        if self.models is None:
            return None
        plan = self.planner.plan(
            tomcat_model=self.models["app"],
            mysql_model=self.models["db"],
            app_servers=self.target_servers.get("app", 1),
            db_servers=self.target_servers.get("db", 1),
        )
        return plan.soft

    def _provision_to_target(self):
        """Bring every tier up to its target count, then size soft resources."""
        soft = self._static_soft()
        pending = []
        for tier, target in self.target_servers.items():
            current = len(self.system.active_servers(tier))
            for _ in range(target - current):
                kwargs = {}
                if soft is not None and tier == "app":
                    kwargs = {
                        "threads": soft.tomcat_threads,
                        "db_connections": soft.db_connections,
                    }
                pending.append(self.vm_agent.scale_out(tier, **kwargs))
                log_control(self.system, "controller", tier,
                            "static_provision_started")
        if pending:
            yield self.env.all_of(pending)
        if soft is not None and self.app_agent is not None:
            self.app_agent.apply(soft)
            log_control(self.system, "controller", "all", "static_soft_applied",
                        str(soft))
        self._provisioned = True
        for tier in self.target_servers:
            log_control(self.system, "controller", tier, "static_provision_done",
                        str(len(self.system.active_servers(tier))))

    @property
    def provisioned(self) -> bool:
        """Whether the static fleet has fully booted."""
        return self._provisioned
