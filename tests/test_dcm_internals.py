"""White-box tests for DCM's level-2 internals: active-fraction measurement,
plan-change hysteresis, new-server sizing, and online-refit interplay."""

import pytest

from repro.broker import KafkaBroker, MetricRecord, Producer
from repro.cluster import Hypervisor
from repro.control import AppAgent, DCMController, ScalingPolicy, VMAgent
from repro.model import AllocationPlanner, ConcurrencyModel, OnlineModelEstimator
from repro.monitor import METRICS_TOPIC, MetricCollector, MonitorFleet
from repro.ntier import HardwareConfig, NTierSystem, SoftResourceConfig
from repro.sim import Environment, RandomStreams
from repro.workload import browse_only_catalog

APP_MODEL = ConcurrencyModel(
    s0=2.84e-2, alpha=9.87e-3, beta=4.54e-5, gamma=11.03, tier="app"
)
DB_MODEL = ConcurrencyModel(
    s0=7.19e-3, alpha=5.04e-3, beta=1.65e-6, gamma=4.45, tier="db"
)


def make_dcm(hardware=HardwareConfig(1, 1, 1), policy=None, seed=29):
    env = Environment()
    system = NTierSystem(
        env,
        RandomStreams(seed),
        hardware=hardware,
        soft=SoftResourceConfig.DEFAULT,
        catalog=browse_only_catalog(demand_scale=8.0),
    )
    broker = KafkaBroker(env)
    broker.create_topic(METRICS_TOPIC)
    producer = Producer(broker)
    fleet = MonitorFleet(env, system, producer)
    vm_agent = VMAgent(env, system, Hypervisor(env), fleet)
    vm_agent.bootstrap()
    collector = MetricCollector(broker)
    estimator = OnlineModelEstimator(collector)
    estimator.seed("app", APP_MODEL)
    estimator.seed("db", DB_MODEL)
    ctl = DCMController(
        env, system, collector, vm_agent, AppAgent(env, system), estimator,
        policy=policy or ScalingPolicy(control_period=5.0),
    )
    return env, system, collector, ctl, broker


class TestInitialPlan:
    def test_initial_plan_matches_paper_start(self):
        env, system, collector, ctl, _b = make_dcm()
        # Before any metrics: active fraction defaults to 0.5.
        assert system.soft.tomcat_threads == 44
        assert system.soft.db_connections == 40
        assert ctl.last_plan is not None
        assert ctl.last_plan.mysql_knee == 36

    def test_plan_scales_connections_with_topology(self):
        env, system, collector, ctl, _b = make_dcm(hardware=HardwareConfig(1, 2, 2))
        # 2 MySQL x knee 36 x 1.1 headroom split over 2 Tomcats = 40 each.
        assert system.soft.db_connections == 40
        plan = ctl.compute_plan()
        assert plan.app_servers == 2
        assert plan.db_servers == 2


class TestActiveFraction:
    def _inject(self, collector, broker, records):
        producer = Producer(broker)
        for record in records:
            producer.send(METRICS_TOPIC, record, key=record.source)
        collector.drain()

    def test_no_signal_returns_none(self):
        env, system, collector, ctl, broker = make_dcm()
        assert ctl.measured_active_fraction() is None

    def test_fraction_computed_from_records(self):
        env, system, collector, ctl, broker = make_dcm()
        records = [
            MetricRecord(
                timestamp=1.0, source="tomcat-1", tier="app", window=1.0,
                metrics={"concurrency": 12.0, "pool_occupancy": 20.0},
            )
        ]
        self._inject(collector, broker, records)
        assert ctl.measured_active_fraction() == pytest.approx(0.6)

    def test_fraction_clamped(self):
        env, system, collector, ctl, broker = make_dcm()
        records = [
            MetricRecord(
                timestamp=1.0, source="tomcat-1", tier="app", window=1.0,
                metrics={"concurrency": 19.0, "pool_occupancy": 20.0},
            )
        ]
        self._inject(collector, broker, records)
        assert ctl.measured_active_fraction() == 0.75  # upper clamp
        records = [
            MetricRecord(
                timestamp=2.0, source="tomcat-1", tier="app", window=10.0,
                metrics={"concurrency": 0.5, "pool_occupancy": 20.0},
            )
        ]
        self._inject(collector, broker, records)
        # Window-weighted blend still clamps at the lower bound eventually.
        assert 0.3 <= ctl.measured_active_fraction() <= 0.75


class TestPlanHysteresis:
    def test_small_drift_not_applied(self):
        env, system, collector, ctl, _b = make_dcm()
        def applied():
            return [e for e in system.control_log if e.actor == "app-agent"]

        applied_before = len(applied())
        # Recompute with identical inputs: nothing changes, nothing applied.
        ctl.reallocate("noop")
        assert len(applied()) == applied_before

    def test_topology_change_always_applied(self):
        env, system, collector, ctl, _b = make_dcm()
        system.add_mysql()
        plan = ctl.reallocate("db_out")
        assert plan is not None
        assert plan.db_servers == 2
        assert system.soft.db_connections == 80  # 36*2*1.1 -> 80 on 1 Tomcat

    def test_materially_different_thresholds(self):
        env, system, collector, ctl, _b = make_dcm()
        base = ctl.compute_plan()
        # Same topology, same pools: not material.
        assert not ctl._materially_different(base)

    def test_flap_guard_symmetric_for_grow_and_shrink(self):
        from dataclasses import replace

        env, system, collector, ctl, _b = make_dcm()
        base = ctl.compute_plan()

        def with_threads(plan, threads):
            return replace(plan, soft=replace(plan.soft, tomcat_threads=threads))

        old_threads = base.soft.tomcat_threads
        for factor in (1.25, 1.5, 2.0):
            bigger = max(old_threads + 1, round(old_threads * factor))
            grown, shrunk = with_threads(base, bigger), with_threads(base, old_threads)
            # Judge old->new and new->old with the same band: an A->B change
            # is material exactly when B->A is.
            ctl.last_plan = base
            grow_material = ctl._materially_different(grown)
            ctl.last_plan = with_threads(base, bigger)
            shrink_material = ctl._materially_different(shrunk)
            assert grow_material == shrink_material, factor
        # The band still admits genuine changes and rejects noise.
        ctl.last_plan = base
        assert ctl._materially_different(with_threads(base, old_threads * 2))
        assert not ctl._materially_different(
            with_threads(base, old_threads + max(1, old_threads // 10))
        )

    def test_new_server_config_sizes_for_future_topology(self):
        env, system, collector, ctl, _b = make_dcm()
        kwargs = ctl.new_server_config("app")
        # Planned for 2 Tomcats: connections split in half (40 -> 20).
        assert kwargs["db_connections"] == 20
        assert kwargs["threads"] >= 20
        assert ctl.new_server_config("db") == {}


class TestRefitInterplay:
    def test_bad_refit_keeps_seed(self):
        env, system, collector, ctl, broker = make_dcm()
        producer = Producer(broker)
        # Inject a narrow band of samples (conc ~ 10) for the db tier.
        for i in range(30):
            producer.send(METRICS_TOPIC, MetricRecord(
                timestamp=float(i), source="mysql-1", tier="db", window=1.0,
                metrics={"concurrency": 10.0 + (i % 3) * 0.1, "throughput": 800.0},
            ), key="mysql-1")
        collector.drain()
        assert ctl.estimator.refit("db", now=40.0) is None
        assert ctl.estimator.is_seeded("db")
        assert ctl.estimator.model("db") is DB_MODEL

    def test_good_refit_replaces_seed(self):
        env, system, collector, ctl, broker = make_dcm()
        producer = Producer(broker)
        truth = DB_MODEL
        for i, n in enumerate(range(2, 80, 2)):
            x = truth.throughput(n)
            producer.send(METRICS_TOPIC, MetricRecord(
                timestamp=float(i), source="mysql-1", tier="db", window=1.0,
                # Query concurrency is the model's N; throughput is per-server
                # query rate, which the estimator divides by the visit ratio.
                metrics={"concurrency": float(n), "throughput": x * 2.0},
            ), key="mysql-1")
        collector.drain()
        fit = ctl.estimator.refit("db", now=60.0)
        assert fit is not None
        assert not ctl.estimator.is_seeded("db")
        assert fit.model.optimal_concurrency_int() == pytest.approx(
            truth.optimal_concurrency_int(), abs=6
        )
