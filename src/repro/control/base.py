"""Shared control loop for every autoscaler.

Every ``control_period`` seconds the controller drains the metric stream,
computes per-tier statistics over the elapsed period, asks :meth:`decide`
for a verdict, and launches VM-agent actions.  Subclasses customise (a)
the verdict (the predictive controller adds a forecast), (b) the soft
configuration given to newly created servers and (c) what happens after a
scaling action or at period end — that delta *is* the difference between
EC2-AutoScale and DCM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.control.actuators import ControlEvent, VMAgent, log_control
from repro.control.policy import (
    SCALE_IN,
    SCALE_OUT,
    PolicyStateTracker,
    ScalingPolicy,
    TierScalingState,
)
from repro.errors import CapacityError, ControlError
from repro.monitor.collector import MetricCollector, TierStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.server import TierServer
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment


class BaseAutoScaleController:
    """Threshold-driven VM scaling shared by EC2-AutoScale and DCM."""

    name = "base"

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        collector: MetricCollector,
        vm_agent: VMAgent,
        policy: Optional[ScalingPolicy] = None,
        tiers: Tuple[str, ...] = ("app", "db"),
    ) -> None:
        self.env = env
        self.system = system
        self.collector = collector
        self.vm_agent = vm_agent
        self.policy = policy or ScalingPolicy()
        self.tiers = tiers
        self.states = PolicyStateTracker()
        self._running = True
        self._process = env.process(self._run())

    # -- lifecycle -----------------------------------------------------------------
    def stop(self) -> None:
        """Stop the control loop at its next tick."""
        self._running = False

    @property
    def events(self) -> List[ControlEvent]:
        """This controller's own records in the run's control log."""
        return [e for e in self.system.control_log if e.actor == "controller"]

    # -- the loop -------------------------------------------------------------------
    def _run(self):
        while self._running:
            yield self.env.timeout(self.policy.control_period)
            if not self._running:
                break
            self.collector.drain()
            now = self.env.now
            for tier in self.tiers:
                stats = self.collector.tier_stats(
                    tier, since=now - self.policy.control_period
                )
                servers = len(self.system.active_servers(tier))
                state = self.states.state(tier)
                decision = self.decide(tier, stats, servers, state, now)
                if decision in (SCALE_OUT, SCALE_IN):
                    state.pending_action = True
                    log_control(self.system, "controller", tier, f"{decision}_started",
                                f"util={stats.mean_cpu_utilization:.2f}")
                    act = self._scale_out if decision == SCALE_OUT else self._scale_in
                    self.env.process(act(tier))
            self.on_period_end(now)

    def _scale_out(self, tier: str):
        state = self.states.state(tier)
        try:
            server = yield self.vm_agent.scale_out(
                tier, **self.new_server_config(tier)
            )
        except (CapacityError, ControlError) as err:
            log_control(self.system, "controller", tier, "scale_out_failed", str(err))
            return
        finally:
            state.pending_action = False
        log_control(self.system, "controller", tier, "scale_out_done", server.name)
        self.on_scaled(tier, "out", server)

    def _scale_in(self, tier: str):
        state = self.states.state(tier)
        try:
            name = yield self.vm_agent.scale_in(tier)
        except ControlError as err:
            log_control(self.system, "controller", tier, "scale_in_failed", str(err))
            return
        finally:
            state.pending_action = False
        self.collector.forget(name)
        log_control(self.system, "controller", tier, "scale_in_done", name)
        self.on_scaled(tier, "in", None)

    # -- subclass hooks ---------------------------------------------------------------
    def decide(
        self,
        tier: str,
        stats: Optional[TierStats],
        servers: int,
        state: TierScalingState,
        now: float,
    ) -> Optional[str]:
        """This period's verdict for ``tier``: :data:`SCALE_OUT`,
        :data:`SCALE_IN` or ``None``.  The base verdict is the threshold
        policy's."""
        return self.policy.decide(stats, servers, state)

    def new_server_config(self, tier: str) -> dict:
        """Factory kwargs for a new server of ``tier``.

        The base (hardware-only) behaviour: empty — the topology applies its
        *static* soft defaults, which is exactly the paper's failure mode.
        """
        return {}

    def on_scaled(self, tier: str, direction: str, server: Optional["TierServer"]) -> None:
        """Called after a scaling action completes."""

    def on_period_end(self, now: float) -> None:
        """Called at the end of every control period."""

    # -- reporting -------------------------------------------------------------------
    def scaling_timeline(self, tier: str) -> List[Tuple[float, int]]:
        """``(time, accepting server count)`` change points for ``tier``:
        the ``servers`` series of the run's control log, repeats dropped."""
        timeline: List[Tuple[float, int]] = []
        for e in self.system.control_log:
            if e.tier != tier or e.servers is None:
                continue
            if timeline and timeline[-1][1] == e.servers:
                continue
            timeline.append((e.time, e.servers))
        return timeline or [(0.0, len(self.system.active_servers(tier)))]
