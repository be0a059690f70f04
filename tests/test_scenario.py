"""Tests for the declarative scenario layer (:mod:`repro.scenario`).

Covers the spec's JSON round-trip, the pluggable registries, the
composition root's lifecycle guarantees (idempotent teardown, no live
processes left behind), the refactor's bit-for-bit equivalence with the
pre-scenario wiring (golden digests), the ``online_refit`` flag, and the
``repro scenario run`` CLI entry point.
"""

import pytest

from repro.check import config as check_config
from repro.cli import main
from repro.control import ScalingPolicy
from repro.errors import ConfigurationError, SchemaError
from repro.model import ground_truth_models
from repro.monitor import TierStats
from repro.ntier import HardwareConfig
from repro.ntier.contention import ContentionModel
from repro.scenario import (
    CONTROLLERS,
    SCHEMA,
    WORKLOADS,
    Deployment,
    ScenarioSpec,
    controller_names,
    measure_steady_state,
    register_controller,
    register_workload,
    resolve_controller,
    resolve_workload,
    workload_names,
)
from repro.workload import WorkloadTrace, sine_trace
from tests.golden import autoscale_digest

SCALE = 8.0


def rich_spec():
    """A spec exercising every optional field group."""
    return ScenarioSpec(
        hardware="1/2/1",
        soft="1000/100/40",
        seed=3,
        demand_scale=SCALE,
        imbalance=0.1,
        balancer_policy="round_robin",
        mysql_contention=ContentionModel(
            s0=7.19e-3, alpha=5.04e-3, beta=1.65e-6),
        partitions=2,
        sample_interval=0.5,
        collector_history=300,
        controller="dcm",
        policy=ScalingPolicy(control_period=10.0),
        models=ground_truth_models(SCALE),
        online_refit=False,
        preparation_periods={"app": 2.0, "db": 3.0},
        workload="trace",
        trace=WorkloadTrace((0.0, 30.0, 60.0), (0.2, 1.0, 0.4)),
        max_users=250,
        think_time=2.0,
    )


class TestSpecRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_rich_spec_round_trips(self):
        spec = rich_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_json() == spec.to_json()

    def test_dict_fields_frozen_to_sorted_tuples(self):
        spec = rich_spec()
        assert spec.models == tuple(sorted(ground_truth_models(SCALE).items()))
        assert spec.preparation_periods == (("app", 2.0), ("db", 3.0))
        assert hash(spec) == hash(ScenarioSpec.from_json(spec.to_json()))

    def test_hardware_and_soft_accept_strings(self):
        spec = ScenarioSpec(hardware="1/2/3", soft="500/50/20")
        assert spec.hardware == HardwareConfig(1, 2, 3)
        assert spec.soft.db_connections == 20

    def test_wrong_kind_rejected(self):
        obj = ScenarioSpec().to_json_obj()
        obj["kind"] = "steady"
        with pytest.raises(ConfigurationError, match="kind"):
            ScenarioSpec.from_json_obj(obj)

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_retired_scheduler_field_is_accepted_and_ignored(self, scheduler):
        # Payloads written while the kernel had a second event queue carry
        # a "scheduler" key; there is one heap now and order never
        # depended on the choice, so old payloads load as the same spec.
        spec = rich_spec()
        obj = spec.to_json_obj()
        assert "scheduler" not in obj
        obj["scheduler"] = scheduler
        assert ScenarioSpec.from_json_obj(obj) == spec

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_schema_payloads_load_as_full_runs(self, version):
        # v1-v4 payloads predate the warmup field; they load unchanged as
        # full runs (warmup=None).  v1 also predates the schema tag and
        # the fault/batched/stateful fields.
        obj = ScenarioSpec(seed=4, workload="rubbos", users=20,
                           duration=30.0).to_json_obj()
        del obj["warmup"]
        if version == 1:
            for key in ("schema", "faults", "resilience", "batches",
                        "window", "cache", "sharding", "write_fraction"):
                del obj[key]
        else:
            obj["schema"] = f"repro-scenario/{version}"
        spec = ScenarioSpec.from_json_obj(obj)
        assert spec.warmup is None
        assert spec == ScenarioSpec(seed=4, workload="rubbos", users=20,
                                    duration=30.0)

    def test_steady_point_round_trips_under_v5(self):
        spec = ScenarioSpec(workload="jmeter", users=12, monitoring=False,
                            warmup=1.1, duration=6.7)
        obj = spec.to_json_obj()
        assert obj["schema"] == SCHEMA == "repro-scenario/5"
        assert obj["warmup"] == 1.1
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("key", ["hardware", "users", "monitoring"])
    def test_missing_required_key_is_a_schema_error(self, key):
        obj = rich_spec().to_json_obj()
        del obj[key]
        with pytest.raises(SchemaError, match=repr(key)):
            ScenarioSpec.from_json_obj(obj)

    def test_duration_falls_back_to_trace_length(self):
        spec = rich_spec()
        assert spec.effective_duration() == spec.trace.duration
        assert ScenarioSpec(duration=42.0).effective_duration() == 42.0
        assert ScenarioSpec().effective_duration() is None


class TestSpecValidation:
    def test_unknown_controller_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown controller"):
            ScenarioSpec(controller="magic")

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            ScenarioSpec(workload="locust")

    def test_trace_workload_requires_trace(self):
        with pytest.raises(ConfigurationError, match="requires a trace"):
            ScenarioSpec(workload="trace")

    def test_controller_requires_monitoring(self):
        with pytest.raises(ConfigurationError, match="monitoring"):
            ScenarioSpec(controller="ec2", monitoring=False)

    def test_static_controller_requires_targets_at_build(self):
        spec = ScenarioSpec(controller="static", duration=5.0)
        with pytest.raises(ConfigurationError, match="target_servers"):
            Deployment(spec)

    @pytest.mark.parametrize("kwargs", [
        {"partitions": 0}, {"sample_interval": 0.0}, {"users": 0},
        {"max_users": 0}, {"duration": -1.0},
    ])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**kwargs)


class TestRegistries:
    def test_builtin_keys_present(self):
        assert controller_names() == ["dcm", "ec2", "predictive", "static"]
        assert workload_names() == [
            "batched", "batched-trace", "jmeter", "rubbos", "trace"
        ]

    def test_resolve_returns_factory(self):
        assert resolve_controller("dcm").name == "dcm"
        assert resolve_workload("rubbos").name == "rubbos"

    def test_third_party_registration(self):
        @register_controller("noop-test")
        def build_noop(deployment):
            return None

        @register_workload("noop-load")
        def build_load(deployment):
            return None

        try:
            assert resolve_controller("noop-test").build is build_noop
            assert resolve_workload("noop-load").build is build_load
            # A spec naming the new key now validates.
            spec = ScenarioSpec(controller="noop-test", duration=1.0)
            assert spec.controller == "noop-test"
        finally:
            CONTROLLERS.pop("noop-test")
            WORKLOADS.pop("noop-load")

    def test_unknown_resolve_lists_known_keys(self):
        with pytest.raises(ConfigurationError, match="registered"):
            resolve_controller("magic")


class TestDeploymentLifecycle:
    def make(self):
        return Deployment(ScenarioSpec(
            seed=5, demand_scale=4.0, controller="ec2",
            workload="rubbos", users=20, duration=10.0,
        ))

    def test_context_manager_runs_and_tears_down(self):
        with check_config.override(True):  # sanitizer must stay silent
            with self.make() as dep:
                dep.run()
                agent_procs = [
                    agent._process for agent in dep.fleet.agents.values()
                ]
            assert dep._stopped
            # Agents and controller notice the stop at their next tick.
            dep.env.run(until=dep.env.now + 2 * dep.policy.control_period)
            assert all(not p.is_alive for p in agent_procs)
            assert not dep.controller._process.is_alive
            assert dep.system.completed_count() > 0

    def test_stop_is_idempotent(self):
        dep = self.make()
        dep.run()
        dep.stop()
        dep.stop()  # second stop must be a no-op, not an error
        assert dep._stopped

    def test_start_is_idempotent(self):
        dep = self.make()
        dep.start()
        dep.start()
        dep.run()
        dep.stop()

    def test_monitoringless_deployment_has_no_pipeline(self):
        dep = Deployment(ScenarioSpec(
            seed=1, monitoring=False, workload="rubbos", users=10,
            duration=4.0,
        ))
        assert dep.broker is None and dep.fleet is None
        assert dep.collector is None and dep.controller is None
        with dep:
            dep.run()
        steady = dep.system.completed_count()
        assert steady > 0

    def test_run_without_horizon_rejected(self):
        dep = Deployment(ScenarioSpec(workload="rubbos", users=5))
        with pytest.raises(ConfigurationError, match="duration"):
            dep.run()

    def test_steady_state_measurement_through_deployment(self):
        spec = ScenarioSpec(seed=2, monitoring=False, workload="rubbos",
                            users=30, demand_scale=4.0)
        with Deployment(spec) as dep:
            dep.start()
            steady = measure_steady_state(dep.env, dep.system,
                                          warmup=2.0, duration=6.0)
        assert steady.throughput > 0


class TestOnlineRefitFlag:
    """Satellite: the explicit flag replaced a 10**9-period sentinel."""

    def make_controller(self, online_refit):
        dep = Deployment(ScenarioSpec(
            seed=4, demand_scale=SCALE, controller="dcm",
            models=ground_truth_models(SCALE), online_refit=online_refit,
            workload="rubbos", users=50, duration=5.0,
        ))
        return dep.controller

    def test_flag_plumbs_through_scenario(self):
        assert self.make_controller(True).online_refit is True
        assert self.make_controller(False).online_refit is False

    def test_periods_still_counted_but_no_refit_when_off(self):
        ctl = self.make_controller(False)
        calls = []
        ctl.estimator.refit = lambda tier, now: calls.append(tier) or None
        for period in range(1, 9):
            ctl.on_period_end(float(period))
        assert ctl._periods_seen == 8
        assert calls == []

    def test_refit_attempted_every_fourth_period_when_on(self):
        ctl = self.make_controller(True)
        calls = []
        ctl.estimator.refit = lambda tier, now: calls.append(tier) or None
        for period in range(1, 9):
            ctl.on_period_end(float(period))
        # Periods 4 and 8: one refit attempt per modelled tier each.
        assert calls == ["app", "db", "app", "db"]


class TestVisitRatios:
    """Satellite: the hard-coded visit-ratio dict is gone."""

    def test_system_delegates_to_catalog(self):
        dep = Deployment(ScenarioSpec(monitoring=False))
        ratios = dep.system.visit_ratios()
        assert ratios == dep.system.catalog.visit_ratios()
        assert ratios["web"] == 1.0 and ratios["app"] == 1.0
        assert ratios["db"] == pytest.approx(
            dep.system.catalog.mean_demands()["db_queries"])


class TestTierStatsDataclass:
    """Satellite: TierStats is a frozen dataclass now."""

    def kwargs(self):
        return dict(tier="app", servers=2, mean_cpu_utilization=0.5,
                    max_cpu_utilization=0.7, throughput=100.0,
                    mean_concurrency_per_server=8.0, total_concurrency=16.0,
                    mean_response_time=0.05)

    def test_value_equality(self):
        assert TierStats(**self.kwargs()) == TierStats(**self.kwargs())

    def test_frozen(self):
        stats = TierStats(**self.kwargs())
        with pytest.raises(AttributeError):
            stats.throughput = 0.0


class TestGoldenEquivalence:
    """The composition root reproduces the original autoscale wiring.

    These digests were captured from the hand-wired autoscale harness
    (manual broker/fleet/agent/controller assembly, before the scenario
    layer existed) with the sanitizer armed; a trace-replay ScenarioSpec
    run by :class:`Deployment` must reproduce them exactly.  If a
    deliberate change to assembly order makes these fail, update them in
    the same commit and say why in the message.
    """

    GOLDEN = {
        "dcm": "03ddec56974d494f3e9f181a73237a280329ab9ae205f535f2de16faadbf54c6",
        "ec2": "6bdb84e196cba027d406f19e4d152e5341595fc761947ff5f74327f22a92d721",
    }

    def spec(self, controller):
        return ScenarioSpec(
            controller=controller, workload="trace",
            trace=sine_trace(150.0, 75.0, 0.25, 1.0),
            max_users=400, seed=11, demand_scale=SCALE,
            models=ground_truth_models(SCALE),
        )

    @pytest.mark.parametrize("controller", ["dcm", "ec2"])
    def test_digest_matches_pre_refactor_wiring(self, controller):
        with check_config.override(True):
            with Deployment(self.spec(controller)) as dep:
                dep.run()
        assert autoscale_digest(dep) == self.GOLDEN[controller]


class TestScenarioCLI:
    def test_scenario_run_end_to_end(self, tmp_path, capsys):
        spec = ScenarioSpec(
            seed=9, demand_scale=4.0, controller="ec2",
            workload="rubbos", users=25, duration=15.0,
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: scenario.json" in out
        assert "completed requests" in out
        assert "VM-seconds" in out

    def test_scenario_run_honors_until(self, tmp_path, capsys):
        spec = ScenarioSpec(seed=9, monitoring=False, workload="rubbos",
                            users=10, duration=100.0)
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert main(["scenario", "run", str(path), "--until", "5"]) == 0
        assert "5.0" in capsys.readouterr().out

    def test_malformed_spec_is_a_config_error(self, tmp_path):
        # A spec file missing required keys is a DCM-SCHEMA error naming
        # the key, not a bare KeyError.
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "scenario"}')
        with pytest.raises(SchemaError, match="'hardware'"):
            main(["scenario", "run", str(path)])
