"""Integration tests for the experiment procedures (small, fast instances).

These exercise the exact code paths the benchmarks parameterise — at
reduced durations/scales so the whole file runs in well under a minute.
``demand_scale=8`` shrinks capacities 8x (optimal concurrencies unchanged),
letting tiny user populations saturate tiers.  Every experiment is a list
of :class:`~repro.scenario.ScenarioSpec` objects run through the engine
(storeless, serial); full runs yield the stopped deployment.
"""

import pytest

from repro.errors import ConfigurationError
from repro.model import ConcurrencyModel
from repro.ntier import HardwareConfig, SoftResourceConfig
from repro.runner import (
    DB_TRAINING_LEVELS,
    TRAINING_LEVELS,
    run,
    run_many,
    stress_sweep,
    sweep_points,
    sweep_specs,
    training_outcome,
    training_specs,
    validation_curves,
    validation_specs,
)
from repro.scenario import ScenarioSpec, build_system, measure_steady_state
from repro.workload import JMeterGenerator, WorkloadTrace

SCALE = 8.0


def _trace_run(controller, **fields):
    """One controller replaying a trace: the stopped deployment."""
    spec = ScenarioSpec(controller=controller, workload="trace", **fields)
    return run(spec).value


def scaled_models():
    return {
        "app": ConcurrencyModel(
            s0=2.84e-2 / 11.03 * SCALE, alpha=9.87e-3 / 11.03 * SCALE,
            beta=4.54e-5 / 11.03 * SCALE, tier="app"),
        "db": ConcurrencyModel(
            s0=7.19e-3 / 4.45 * SCALE, alpha=5.04e-3 / 4.45 * SCALE,
            beta=1.65e-6 / 4.45 * SCALE, tier="db"),
    }


class TestBuildAndMeasure:
    def test_build_system_defaults(self):
        env, system = build_system(seed=1)
        assert str(system.hardware) == "1/1/1"
        assert str(system.soft) == "1000/100/80"

    def test_measure_steady_state_fields(self):
        env, system = build_system(seed=1, demand_scale=SCALE)
        JMeterGenerator(env, system, 20).start()
        steady = measure_steady_state(env, system, warmup=2.0, duration=5.0)
        assert steady.throughput > 0
        assert steady.completed > 0
        assert set(steady.tier_concurrency) == {"web", "app", "db"}
        assert 0 <= steady.tier_utilization["db"] <= 1.0
        assert 0 <= steady.tier_busy_fraction["db"] <= 1.0

    def test_measure_validation(self):
        env, system = build_system(seed=1)
        with pytest.raises(ConfigurationError):
            measure_steady_state(env, system, warmup=-1.0, duration=5.0)


class TestStressSweep:
    def test_mysql_knee_shape(self):
        points = stress_sweep(
            "db", (2, 36, 300), seed=3, demand_scale=SCALE, warmup=2.0,
            duration=6.0,
        ).value
        xput = {p.target_concurrency: p.throughput for p in points}
        # Knee region beats both extremes (Fig 2a shape).
        assert xput[36] > xput[2]
        assert xput[36] > 1.5 * xput[300]
        # Measured concurrency matches the closed-loop population.
        for p in points:
            assert p.measured_concurrency == pytest.approx(p.target_concurrency, rel=0.1)

    def test_tomcat_stress(self):
        points = stress_sweep(
            "app", (20, 200), seed=3, demand_scale=SCALE, warmup=2.0,
            duration=6.0,
        ).value
        xput = {p.target_concurrency: p.throughput for p in points}
        assert xput[20] > xput[200]

    def test_invalid_tier_and_concurrency(self):
        with pytest.raises(ConfigurationError):
            stress_sweep("web", (5,))
        with pytest.raises(ConfigurationError):
            stress_sweep("db", (0,))


class TestTraining:
    def test_training_recovers_knee_band(self):
        specs = training_specs(
            "db", seed=5, demand_scale=SCALE,
            levels=(1, 2, 4, 8, 16, 24, 36, 50, 70, 90, 110),
            warmup=2.0, duration=8.0,
        )
        outcome = training_outcome("db", run_many(specs).value)
        assert outcome.fit.r_squared > 0.85
        assert 20 <= outcome.fit.model.optimal_concurrency_int() <= 60
        assert outcome.tier == "db"
        assert len(outcome.samples) >= 8

    def test_default_levels_cover_paper_range(self):
        assert max(TRAINING_LEVELS) == 200  # "concurrency from 1 to 200"
        assert min(TRAINING_LEVELS) == 1
        assert max(DB_TRAINING_LEVELS) <= 160

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            training_specs("web")


class TestJmeterSweepAndValidation:
    def test_sweep_points_monotone_users(self):
        specs = sweep_specs(
            (5, 40), seed=2, demand_scale=SCALE, warmup=2.0, duration=5.0,
        )
        points = sweep_points(specs, run_many(specs).value)
        assert [p.users for p in points] == [5, 40]
        assert points[1].steady.throughput > points[0].steady.throughput

    def test_validation_curves_structure(self):
        specs = validation_specs(
            hardware=HardwareConfig(1, 1, 1),
            soft_configs=(
                SoftResourceConfig(1000, 20, 80),
                SoftResourceConfig(1000, 200, 80),
            ),
            user_levels=(450, 900),
            seed=2,
            demand_scale=SCALE,
            warmup=2.0,
            duration=6.0,
        )
        curves = validation_curves(specs, run_many(specs).value)
        assert len(curves) == 2
        optimal, oversized = curves
        assert optimal.users == (450, 900)
        assert len(optimal.throughput) == 2
        # At saturation (the last, heaviest level) the 200-thread
        # allocation thrashes; at moderate load they tie.
        assert optimal.throughput[-1] > 1.1 * oversized.throughput[-1]


class TestAutoscaleRunner:
    def _trace(self):
        return WorkloadTrace(
            (0.0, 20.0, 30.0, 80.0, 110.0, 140.0), (0.3, 0.3, 0.95, 0.95, 0.35, 0.35)
        )

    def test_ec2_run_end_to_end(self):
        dep = _trace_run(
            "ec2", trace=self._trace(), max_users=520, seed=4,
            demand_scale=SCALE, models=scaled_models(),
        )
        assert dep.spec.controller == "ec2"
        assert dep.duration == 140.0
        assert len(dep.system.request_log) > 500
        # At least the initial 1/1/1 is billed for the whole run.
        assert dep.hypervisor.billing.vm_seconds(dep.duration) >= 3 * 140.0
        # Scale-out happened under the burst.
        assert max(c for _t, c in dep.controller.scaling_timeline("db")) >= 2
        assert dep.app_agent is None  # hardware-only: no APP-agent

    def test_dcm_run_applies_concurrency_management(self):
        dep = _trace_run(
            "dcm", trace=self._trace(), max_users=520, seed=4,
            demand_scale=SCALE, models=scaled_models(),
        )
        assert dep.app_agent is not None
        applies = [a for a in dep.app_agent.actions if a.action == "apply"]
        assert applies, "DCM must re-allocate soft resources"
        # The initial plan pins the DB connection total near the knee.
        assert dep.system.soft.db_connections <= 80
        # Records are retrievable per tier for the Fig 5 series.
        records = dep.collector.records("db")
        assert records
        assert [r.timestamp for r in records] == sorted(r.timestamp for r in records)
        assert dep.collector.servers("app")

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                controller="magic", workload="trace", trace=self._trace(),
                max_users=10, models=scaled_models(),
            )

    def test_runs_are_deterministic_per_seed(self):
        kwargs = dict(
            controller="dcm", trace=self._trace(), max_users=260, seed=9,
            demand_scale=SCALE, models=scaled_models(),
        )
        a = _trace_run(**kwargs)
        b = _trace_run(**kwargs)
        assert len(a.system.request_log) == len(b.system.request_log)
        assert a.system.request_log[:50] == b.system.request_log[:50]
        assert (a.controller.scaling_timeline("db")
                == b.controller.scaling_timeline("db"))
