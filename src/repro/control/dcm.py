"""DCM: the two-level dynamic concurrency management controller.

Level 1 (inherited): the same threshold-driven VM scaling as the baseline.
Level 2 (this class): after every VM-level action — and periodically from
online refits — recompute the optimal soft-resource allocation from the
concurrency-aware model and apply it to *all* live servers through the
APP-agent:

* per-Tomcat thread pools sized so the tier operates at its knee,
* per-Tomcat DB connection pools sized so the *total* concurrency reaching
  the MySQL tier equals its knee times the number of DB servers.

The estimator is typically seeded with offline-trained models (the paper
trains with JMeter first, Section V-A) and keeps refitting online from the
metric stream (Section III-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.control.actuators import AppAgent, VMAgent, log_control
from repro.control.base import BaseAutoScaleController
from repro.control.policy import ScalingPolicy
from repro.errors import ModelError
from repro.model.online import OnlineModelEstimator
from repro.model.optimizer import AllocationPlan, AllocationPlanner
from repro.monitor.collector import MetricCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.server import TierServer
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment


class DCMController(BaseAutoScaleController):
    """VM scaling + model-driven soft-resource re-allocation."""

    name = "dcm"

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        collector: MetricCollector,
        vm_agent: VMAgent,
        app_agent: AppAgent,
        estimator: OnlineModelEstimator,
        planner: Optional[AllocationPlanner] = None,
        policy: Optional[ScalingPolicy] = None,
        tiers: Tuple[str, ...] = ("app", "db"),
        refit_every_periods: int = 4,
        apply_initial_plan: bool = True,
        online_refit: bool = True,
    ) -> None:
        super().__init__(env, system, collector, vm_agent, policy, tiers)
        self.app_agent = app_agent
        self.estimator = estimator
        self.planner = planner or AllocationPlanner(
            apache_threads=system.soft.apache_threads
        )
        self.refit_every_periods = refit_every_periods
        self.online_refit = online_refit
        self._periods_seen = 0
        self.last_plan: Optional[AllocationPlan] = None
        if apply_initial_plan:
            self.reallocate("initial")

    # -- level 2: concurrency management ----------------------------------------------
    def measured_active_fraction(self) -> Optional[float]:
        """Tomcat CPU concurrency / busy threads, from recent metrics.

        ``None`` when there is no usable signal yet (e.g. idle system).
        """
        since = self.env.now - 4 * self.policy.control_period
        conc_sum = 0.0
        busy_sum = 0.0
        for name in self.collector.servers("app"):
            for record in self.collector.recent(name, since):
                conc_sum += record.get("concurrency") * record.window
                busy_sum += record.get("pool_occupancy") * record.window
        if busy_sum <= 1e-9 or conc_sum <= 1e-9:
            return None
        # Clamp: extreme momentary ratios (an idle system, or one blocked
        # solid on the DB) would swing the thread-pool target wildly.
        return max(0.3, min(0.75, conc_sum / busy_sum))

    def compute_plan(self) -> AllocationPlan:
        """The allocation for the *current* accepting topology.

        True server counts, no clamping: a full-tier outage (zero accepting
        servers) makes the planner raise ``ModelError``, and ``reallocate``
        skips the period — planning "per server" load against a phantom
        server sized the pools for a topology that does not exist.
        """
        return self.planner.plan(
            tomcat_model=self.estimator.model("app"),
            mysql_model=self.estimator.model("db"),
            app_servers=len(self.system.active_servers("app")),
            db_servers=len(self.system.active_servers("db")),
            active_fraction=self.measured_active_fraction(),
        )

    def _materially_different(self, plan: AllocationPlan) -> bool:
        """Whether ``plan`` differs enough from the last applied one.

        Topology-driven changes always apply; measurement-driven drift in
        the thread/connection targets must exceed 20 % to avoid flapping
        pools on active-fraction noise.
        """
        if self.last_plan is None:
            return True
        old, new = self.last_plan, plan
        if (old.app_servers, old.db_servers) != (new.app_servers, new.db_servers):
            return True
        def rel(a: int, b: int) -> float:
            # Symmetric relative change: a 10->8 shrink and an 8->10 grow
            # score identically, so the hysteresis band has no direction
            # bias.
            return abs(a - b) / max(a, b, 1)
        return (
            rel(old.soft.tomcat_threads, new.soft.tomcat_threads) > 0.2
            or rel(old.soft.db_connections, new.soft.db_connections) > 0.2
        )

    def reallocate(self, reason: str) -> Optional[AllocationPlan]:
        """Recompute and apply the soft allocation; logs a control event."""
        try:
            plan = self.compute_plan()
        except ModelError as err:
            log_control(self.system, "controller", "all", "reallocate_skipped",
                        f"{reason}: {err}")
            return None
        if plan.soft != self.system.soft and self._materially_different(plan):
            self.app_agent.apply(plan.soft)
            log_control(self.system, "controller", "all", "reallocate",
                        f"{reason}: {plan.soft}")
            self.last_plan = plan
        elif self.last_plan is None:
            self.last_plan = plan
        return plan

    # -- hooks ----------------------------------------------------------------------
    def new_server_config(self, tier: str) -> dict:
        """Give new servers the pool sizes planned for the *post-scaling*
        topology, so they join already correctly sized."""
        try:
            app_n = len(self.system.active_servers("app"))
            db_n = len(self.system.active_servers("db"))
            plan = self.planner.plan(
                tomcat_model=self.estimator.model("app"),
                mysql_model=self.estimator.model("db"),
                app_servers=app_n + (1 if tier == "app" else 0),
                db_servers=db_n + (1 if tier == "db" else 0),
                active_fraction=self.measured_active_fraction(),
            )
        except ModelError:
            return {}
        if tier == "app":
            return {
                "threads": plan.soft.tomcat_threads,
                "db_connections": plan.soft.db_connections,
            }
        return {}

    def on_scaled(self, tier: str, direction: str, server: Optional["TierServer"]) -> None:
        """Level 2 follows level 1: re-balance soft resources immediately."""
        self.reallocate(f"{tier}_{direction}")

    def on_period_end(self, now: float) -> None:
        """Periodic online refits; re-apply the plan when knees move."""
        self._periods_seen += 1
        if not self.online_refit:
            return
        if self._periods_seen % self.refit_every_periods:
            return
        changed = False
        for tier in self.tiers:
            result = self.estimator.refit(tier, now)
            if result is not None:
                log_control(self.system, "controller", tier, "model_refit",
                            result.summary())
                changed = True
        if changed:
            self.reallocate("refit")
