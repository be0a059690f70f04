"""Tests for the scaling policy, actuators, and both controllers."""

import pytest

from repro.broker import KafkaBroker, Producer
from repro.cluster import Hypervisor, VMState
from repro.control import (
    AppAgent,
    DCMController,
    EC2AutoScaleController,
    SCALE_IN,
    SCALE_OUT,
    ScalingPolicy,
    TierScalingState,
    VMAgent,
)
from repro.errors import ConfigurationError, ControlError
from repro.model import ConcurrencyModel, OnlineModelEstimator
from repro.monitor import METRICS_TOPIC, MetricCollector, MonitorFleet
from repro.monitor.collector import TierStats
from repro.ntier import HardwareConfig, NTierSystem, SoftResourceConfig
from repro.sim import Environment, RandomStreams
from repro.workload import RubbosGenerator, browse_only_catalog


def stats(util, servers=1):
    return TierStats(
        tier="app",
        servers=servers,
        mean_cpu_utilization=util,
        max_cpu_utilization=util,
        throughput=100.0,
        mean_concurrency_per_server=10.0,
        total_concurrency=10.0 * servers,
        mean_response_time=0.01,
    )


class TestScalingPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalingPolicy(control_period=0)
        with pytest.raises(ConfigurationError):
            ScalingPolicy(lower_threshold=0.9, upper_threshold=0.8)
        with pytest.raises(ConfigurationError):
            ScalingPolicy(min_servers=3, max_servers=2)

    def test_quick_start(self):
        policy = ScalingPolicy()
        state = TierScalingState()
        assert policy.decide(stats(0.85), 1, state) == SCALE_OUT

    def test_no_scale_out_beyond_max(self):
        policy = ScalingPolicy(max_servers=2)
        state = TierScalingState()
        assert policy.decide(stats(0.95), 2, state) is None

    def test_no_scale_out_while_pending(self):
        policy = ScalingPolicy()
        state = TierScalingState(pending_action=True)
        assert policy.decide(stats(0.95), 1, state) is None

    def test_slow_stop_requires_three_consecutive_lows(self):
        policy = ScalingPolicy()
        state = TierScalingState()
        assert policy.decide(stats(0.2), 2, state) is None
        assert policy.decide(stats(0.2), 2, state) is None
        assert policy.decide(stats(0.2), 2, state) == SCALE_IN
        # Counter reset after the action fires.
        assert state.consecutive_low == 0

    def test_mid_band_resets_low_counter(self):
        policy = ScalingPolicy()
        state = TierScalingState()
        policy.decide(stats(0.2), 2, state)
        policy.decide(stats(0.2), 2, state)
        policy.decide(stats(0.6), 2, state)  # recovery resets the run
        assert policy.decide(stats(0.2), 2, state) is None

    def test_high_resets_low_counter(self):
        policy = ScalingPolicy()
        state = TierScalingState()
        policy.decide(stats(0.2), 2, state)
        policy.decide(stats(0.9), 2, state)
        assert state.consecutive_low == 0

    def test_never_below_min_servers(self):
        policy = ScalingPolicy()
        state = TierScalingState()
        for _ in range(5):
            assert policy.decide(stats(0.1), 1, state) is None

    def test_none_stats_is_noop(self):
        policy = ScalingPolicy()
        assert policy.decide(None, 1, TierScalingState()) is None


def make_world(hardware=HardwareConfig(1, 1, 1), users=0, seed=9):
    env = Environment()
    system = NTierSystem(
        env,
        RandomStreams(seed),
        hardware=hardware,
        soft=SoftResourceConfig.DEFAULT,
        catalog=browse_only_catalog(demand_distribution="deterministic"),
    )
    broker = KafkaBroker(env)
    broker.create_topic(METRICS_TOPIC)
    producer = Producer(broker)
    fleet = MonitorFleet(env, system, producer)
    hypervisor = Hypervisor(env)
    vm_agent = VMAgent(env, system, hypervisor, fleet)
    vm_agent.bootstrap()
    collector = MetricCollector(broker)
    if users:
        RubbosGenerator(env, system, users=users, think_time=1.0)
    return env, system, hypervisor, vm_agent, fleet, collector


class TestVMAgent:
    def test_bootstrap_creates_running_vms(self):
        env, system, hyp, agent, fleet, _c = make_world()
        env.run(until=0.5)
        assert len(hyp.running_vms()) == 3
        tomcat = system.tier_servers("app")[0]
        assert agent.vm_for(tomcat).state is VMState.RUNNING

    def test_double_bootstrap_rejected(self):
        env, system, hyp, agent, fleet, _c = make_world()
        with pytest.raises(ControlError):
            agent.bootstrap()

    def test_scale_out_takes_preparation_period_then_joins(self):
        env, system, hyp, agent, fleet, _c = make_world()
        proc = agent.scale_out("app", threads=20, db_connections=18)
        server = env.run(until=proc)
        assert env.now == pytest.approx(15.0)
        assert server.threads.size == 20
        assert server.db_pool.size == 18
        assert server in system.tier_servers("app")
        assert server.name in fleet.agents
        assert agent.vm_for(server).state is VMState.RUNNING

    def test_scale_out_invalid_tier(self):
        env, system, hyp, agent, fleet, _c = make_world()
        with pytest.raises(ControlError):
            agent.scale_out("web")

    def test_scale_in_drains_removes_terminates(self):
        env, system, hyp, agent, fleet, _c = make_world()
        grown = env.run(until=agent.scale_out("app"))
        vm = agent.vm_for(grown)
        proc = agent.scale_in("app")
        name = env.run(until=proc)
        assert name == grown.name
        assert grown not in system.tier_servers("app")
        assert vm.state is VMState.TERMINATED
        assert grown.name not in fleet.agents

    def test_scale_in_respects_minimum(self):
        env, system, hyp, agent, fleet, _c = make_world()
        with pytest.raises(ControlError):
            agent.choose_victim("app")

    def test_victim_is_most_recent(self):
        env, system, hyp, agent, fleet, _c = make_world()
        env.run(until=agent.scale_out("app"))
        newest = env.run(until=agent.scale_out("app"))
        assert agent.choose_victim("app") is newest


class TestAppAgent:
    def test_apply_and_specific_knobs(self):
        env, system, *_ = make_world(hardware=HardwareConfig(1, 2, 1))
        agent = AppAgent(env, system)
        agent.apply(SoftResourceConfig(800, 22, 20))
        assert all(t.threads.size == 22 for t in system.tier_servers("app"))
        agent.set_tomcat_threads(30)
        assert all(t.threads.size == 30 for t in system.tier_servers("app"))
        assert system.soft.tomcat_threads == 30
        agent.set_db_connections_per_tomcat(18)
        assert system.max_db_concurrency() == 36
        assert len([e for e in system.control_log if e.actor == "app-agent"]) == 3


class TestControllersEndToEnd:
    def run_controller(self, kind, users, until=120.0):
        env, system, hyp, vm_agent, fleet, collector = make_world(users=users)
        policy = ScalingPolicy(control_period=5.0)
        if kind == "dcm":
            estimator = OnlineModelEstimator(collector)
            estimator.seed("app", ConcurrencyModel(
                s0=2.84e-2, alpha=9.87e-3, beta=4.54e-5, gamma=11.03, tier="app"))
            estimator.seed("db", ConcurrencyModel(
                s0=7.19e-3, alpha=5.04e-3, beta=1.65e-6, gamma=4.45, tier="db"))
            ctl = DCMController(
                env, system, collector, vm_agent, AppAgent(env, system),
                estimator, policy=policy,
            )
        else:
            ctl = EC2AutoScaleController(env, system, collector, vm_agent, policy=policy)
        env.run(until=until)
        return env, system, ctl

    def test_ec2_scales_out_under_heavy_load(self):
        env, system, ctl = self.run_controller("ec2", users=3500)
        assert len(system.active_servers("app")) >= 2
        kinds = {e.kind for e in ctl.events}
        assert "scale_out_done" in kinds
        # Hardware-only: soft config untouched.
        assert system.soft == SoftResourceConfig.DEFAULT
        new_tomcats = system.tier_servers("app")[1:]
        assert all(t.db_pool.size == 80 for t in new_tomcats)

    def test_ec2_idle_system_never_scales(self):
        env, system, ctl = self.run_controller("ec2", users=5, until=60.0)
        assert len(system.active_servers("app")) == 1
        assert len(system.active_servers("db")) == 1

    def test_dcm_applies_initial_plan(self):
        env, system, ctl = self.run_controller("dcm", users=5, until=10.0)
        # 36 * 1.1 headroom -> 40 connections (the paper's DCM start).
        assert system.soft.db_connections == 40
        assert system.soft.tomcat_threads == 44

    def test_dcm_scales_and_rebalances_connections(self):
        env, system, ctl = self.run_controller("dcm", users=3500)
        app_servers = system.active_servers("app")
        assert len(app_servers) >= 2
        # Total DB concurrency stays near knee * K_db * headroom.
        total = system.max_db_concurrency()
        k_db = len(system.active_servers("db"))
        assert total <= 40 * k_db + len(app_servers)  # ceil slack per server
        reallocs = [e for e in ctl.events if e.kind == "reallocate"]
        assert reallocs

    def test_dcm_keeps_seed_until_good_online_fit(self):
        env, system, ctl = self.run_controller("dcm", users=30, until=90.0)
        # A steady light load gives a narrow concurrency band: seeds survive.
        assert ctl.estimator.is_seeded("db")

    def test_timeline_snapshots(self):
        env, system, ctl = self.run_controller("ec2", users=3500)
        timeline = ctl.scaling_timeline("app")
        assert timeline[0] == (0.0, 1)
        assert timeline[-1][1] == len(system.active_servers("app"))
        counts = [c for _t, c in timeline]
        assert all(b - a in (-1, 1) for a, b in zip(counts, counts[1:]))
