"""The composition root: one place that assembles the whole DCM stack.

:class:`Deployment` turns a :class:`~repro.scenario.spec.ScenarioSpec`
into live simulation objects in the paper's pipeline order (Section IV):

1. environment + n-tier system (:func:`build_system`),
2. monitoring pipeline — Kafka broker, per-server monitor fleet
   (when ``spec.monitoring``),
3. actuation substrate — hypervisor + VM agent, bootstrapped so tier-1
   servers are billed from t=0 (when a controller is configured),
4. metric collector,
5. the controller, via the controller registry,
6. the workload generator, via the workload registry.

Lifecycle: ``start()`` (idempotent; starts the workload),
``run(until=None)`` (auto-starts, then advances the clock to ``until`` or
the spec's duration), and an idempotent ``stop()`` that tears down in the
reverse-dependency order the experiments always used — drain the
collector, stop the controller, stop the monitor fleet, then stop the
workload.  ``Deployment`` is also a context manager; leaving the ``with``
block calls ``stop()``.

Construction order is load-bearing: random streams are name-keyed (so
stream identity never depends on build order), but event-queue tie-breaks
do depend on process creation order, and this root reproduces the
original hand-wired autoscale harness bit-for-bit (see
``tests/test_scenario.py`` golden digests).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.sla import StabilityReport, stability_report
from repro.broker import KafkaBroker, Producer
from repro.cluster import Hypervisor
from repro.control import AppAgent, ScalingPolicy, VMAgent
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, build_chain
from repro.model import OnlineModelEstimator
from repro.monitor import METRICS_TOPIC, MetricCollector, MonitorFleet
from repro.ntier import HardwareConfig, NTierSystem, SoftResourceConfig
from repro.ntier.cache import CacheSpec
from repro.ntier.contention import ContentionModel
from repro.ntier.sharding import ShardingSpec
from repro.scenario.registry import resolve_controller, resolve_workload
from repro.scenario.spec import ScenarioSpec
from repro.sim import Environment, RandomStreams
from repro.workload import browse_only_catalog, read_write_catalog
from repro.workload.servlets import ServletCatalog


def build_system(
    hardware: HardwareConfig = HardwareConfig(1, 1, 1),
    soft: SoftResourceConfig = SoftResourceConfig.DEFAULT,
    seed: int = 0,
    demand_scale: float = 1.0,
    demand_distribution: str = "exponential",
    imbalance: float = 0.05,
    catalog: Optional[ServletCatalog] = None,
    balancer_policy: str = "least_conn",
    mysql_contention: Optional[ContentionModel] = None,
    tomcat_contention: Optional[ContentionModel] = None,
    cache: Optional[CacheSpec] = None,
    sharding: Optional[ShardingSpec] = None,
) -> Tuple[Environment, NTierSystem]:
    """One-call construction of an environment + n-tier system.

    ``mysql_contention`` / ``tomcat_contention`` override the calibrated
    ground-truth contention models when given (``None`` keeps the
    defaults) — the thrash ablation runs the substrate with the quadratic
    law only.  ``cache`` adds a cache-aside tier in front of MySQL;
    ``sharding`` replaces ``hardware.db`` with consistent-hash shards of
    one primary + N read replicas behind a :class:`ShardRouter`.  Both are
    ``None`` by default, which keeps stateless topologies — and their
    golden digests — bit-identical.
    """
    env = Environment()
    streams = RandomStreams(seed)
    cat = catalog or browse_only_catalog(
        demand_distribution=demand_distribution, demand_scale=demand_scale
    )
    overrides = {}
    if mysql_contention is not None:
        overrides["mysql_contention"] = mysql_contention
    if tomcat_contention is not None:
        overrides["tomcat_contention"] = tomcat_contention
    if cache is not None:
        overrides["cache"] = cache
    if sharding is not None:
        overrides["sharding"] = sharding
    system = NTierSystem(
        env,
        streams,
        hardware=hardware,
        soft=soft,
        catalog=cat,
        balancer_policy=balancer_policy,
        imbalance=imbalance,
        **overrides,
    )
    return env, system


class Deployment:
    """Live stack assembled from a :class:`ScenarioSpec`.

    Attributes are ``None`` when the spec leaves that part of the stack
    out: ``broker`` / ``producer`` / ``fleet`` / ``collector`` require
    ``spec.monitoring``; ``hypervisor`` / ``vm_agent`` / ``controller``
    require ``spec.controller``; ``app_agent`` / ``estimator`` are set by
    controller factories that use them; ``workload`` requires
    ``spec.workload``.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.duration = spec.effective_duration()
        self.policy: ScalingPolicy = spec.policy or ScalingPolicy()

        # The browse-only catalogue stays the default; a non-zero
        # write_fraction opts into the read/write mix (writes route to shard
        # primaries and invalidate cache entries).
        catalog = None
        if spec.write_fraction > 0.0:
            catalog = read_write_catalog(
                write_fraction=spec.write_fraction,
                demand_distribution=spec.demand_distribution,
                demand_scale=spec.demand_scale,
            )
        self.env, self.system = build_system(
            hardware=spec.hardware,
            soft=spec.soft,
            seed=spec.seed,
            demand_scale=spec.demand_scale,
            demand_distribution=spec.demand_distribution,
            imbalance=spec.imbalance,
            catalog=catalog,
            balancer_policy=spec.balancer_policy,
            mysql_contention=spec.mysql_contention,
            tomcat_contention=spec.tomcat_contention,
            cache=spec.cache,
            sharding=spec.sharding,
        )
        self.streams: RandomStreams = self.system.streams

        self.broker: Optional[KafkaBroker] = None
        self.producer: Optional[Producer] = None
        self.fleet: Optional[MonitorFleet] = None
        self.collector: Optional[MetricCollector] = None
        self.hypervisor: Optional[Hypervisor] = None
        self.vm_agent: Optional[VMAgent] = None
        self.app_agent: Optional[AppAgent] = None
        self.estimator: Optional[OnlineModelEstimator] = None
        self.controller: Optional[object] = None
        self.workload: Optional[object] = None
        self.injector: Optional[FaultInjector] = None
        self._started = False
        self._stopped = False

        if spec.monitoring:
            self.broker = KafkaBroker(self.env)
            self.broker.create_topic(METRICS_TOPIC, partitions=spec.partitions)
            self.producer = Producer(self.broker, client_id="monitor")
            self.fleet = MonitorFleet(
                self.env, self.system, self.producer, interval=spec.sample_interval
            )
        if spec.controller is not None:
            self.hypervisor = Hypervisor(self.env)
            preparation_periods = (
                None
                if spec.preparation_periods is None
                else dict(spec.preparation_periods)
            )
            self.vm_agent = VMAgent(
                self.env,
                self.system,
                self.hypervisor,
                self.fleet,
                preparation_periods=preparation_periods,
            )
            self.vm_agent.bootstrap()
        if spec.monitoring:
            self.collector = MetricCollector(
                self.broker, history=spec.effective_collector_history()
            )
        if spec.controller is not None:
            self.controller = resolve_controller(spec.controller).build(self)
        if spec.workload is not None:
            self.workload = resolve_workload(spec.workload).build(self)
        # Faults & resilience are wired last: a spec with neither creates no
        # process and touches no balancer, so the construction sequence of a
        # pre-fault (schema v1) scenario is reproduced bit-for-bit.
        self.resilience_chains: dict = {}
        if spec.resilience:
            by_tier: dict = {}
            for cfg in spec.resilience:
                by_tier.setdefault(cfg.tier, []).append(cfg)
            for tier, cfgs in by_tier.items():
                chain = build_chain(cfgs)
                self.resilience_chains[tier] = chain
                self.system.balancer(tier).install_policy(chain)
        if spec.faults:
            self.injector = FaultInjector(self.env, self, spec.faults)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Deployment":
        """Start the workload (idempotent; self-starting generators no-op)."""
        if not self._started:
            self._started = True
            start = getattr(self.workload, "start", None)
            if callable(start):
                start()
        return self

    def run(self, until: Optional[float] = None) -> "Deployment":
        """Start if needed, then advance the clock to ``until`` (absolute
        simulation time), defaulting to the spec's duration."""
        self.start()
        horizon = until if until is not None else self.duration
        if horizon is None:
            raise ConfigurationError(
                "scenario has no duration (no trace either); pass run(until=...)"
            )
        self.env.run(until=horizon)
        return self

    def stop(self) -> None:
        """Tear down: drain collector, stop controller, fleet, workload.

        Idempotent — a second call (e.g. explicit ``stop()`` inside a
        ``with`` block) does nothing.
        """
        if self._stopped:
            return
        self._stopped = True
        if self.collector is not None:
            self.collector.drain()
        if self.controller is not None:
            self.controller.stop()
        if self.fleet is not None:
            self.fleet.stop()
        stop = getattr(self.workload, "stop", None)
        if callable(stop):
            stop()

    def stability_report(self) -> StabilityReport:
        """The run's stability report over its duration, with the
        VM-seconds billed to the same horizon (0 without a hypervisor)."""
        vm_seconds = 0.0
        if self.hypervisor is not None:
            vm_seconds = self.hypervisor.billing.vm_seconds(self.duration)
        return stability_report(
            self.system.request_log, len(self.system.failure_log),
            self.duration, vm_seconds=vm_seconds,
        )

    def resilience_report(self) -> dict:
        """Per-tier policy composition with per-link dispatch counters.

        ``{tier: {"chain": "retry -> timeout -> dispatch", "policies":
        [{"kind", "params", "calls", "ok", "shed", "failed"}, ...]}}`` —
        empty when the spec installs no resilience policies.
        """
        return {
            tier: chain.report()
            for tier, chain in self.resilience_chains.items()
        }

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
