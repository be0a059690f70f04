"""Tests for the predictive scaling extension (trend forecaster + controller)."""

import pytest

from repro.control import PredictiveDCMController, TrendForecaster
from repro.errors import ConfigurationError
from repro.model import ConcurrencyModel
from repro.scenario import Deployment, ScenarioSpec
from repro.workload import WorkloadTrace

SCALE = 8.0


def run_autoscale(controller, trace, **kwargs):
    """One controller replaying ``trace``: the stopped deployment."""
    spec = ScenarioSpec(controller=controller, workload="trace", trace=trace,
                        **kwargs)
    with Deployment(spec) as dep:
        dep.run()
    return dep


def scaled_models():
    return {
        "app": ConcurrencyModel(
            s0=2.84e-2 / 11.03 * SCALE, alpha=9.87e-3 / 11.03 * SCALE,
            beta=4.54e-5 / 11.03 * SCALE, tier="app"),
        "db": ConcurrencyModel(
            s0=7.19e-3 / 4.45 * SCALE, alpha=5.04e-3 / 4.45 * SCALE,
            beta=1.65e-6 / 4.45 * SCALE, tier="db"),
    }


class TestTrendForecaster:
    def test_needs_two_samples(self):
        f = TrendForecaster(window=4, lead_time=30.0)
        assert f.forecast("db", 10.0) is None
        f.observe("db", 0.0, 0.5)
        assert f.forecast("db", 10.0) is None
        f.observe("db", 15.0, 0.6)
        assert f.forecast("db", 15.0) is not None

    def test_rising_trend_extrapolates(self):
        f = TrendForecaster(window=4, lead_time=30.0)
        for i, u in enumerate((0.2, 0.4, 0.6)):
            f.observe("db", 15.0 * i, u)
        # slope ~ 0.0133/s; at t=30 forecast covers t=60 -> ~0.8
        predicted = f.forecast("db", 30.0)
        assert predicted == pytest.approx(0.2 + 0.0133 * 60, abs=0.05)

    def test_flat_trend_stays_flat(self):
        f = TrendForecaster(window=4, lead_time=30.0)
        for i in range(4):
            f.observe("app", 15.0 * i, 0.5)
        assert f.forecast("app", 45.0) == pytest.approx(0.5, abs=1e-6)

    def test_forecast_clamped(self):
        f = TrendForecaster(window=3, lead_time=300.0)
        f.observe("db", 0.0, 0.1)
        f.observe("db", 15.0, 0.9)
        assert f.forecast("db", 15.0) == 1.5  # clamped upper
        g = TrendForecaster(window=3, lead_time=300.0)
        g.observe("db", 0.0, 0.9)
        g.observe("db", 15.0, 0.1)
        assert g.forecast("db", 15.0) == 0.0  # clamped lower

    def test_window_slides(self):
        f = TrendForecaster(window=2, lead_time=10.0)
        f.observe("db", 0.0, 0.9)  # will be evicted
        f.observe("db", 15.0, 0.2)
        f.observe("db", 30.0, 0.2)
        assert f.forecast("db", 30.0) == pytest.approx(0.2, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrendForecaster(window=1)
        with pytest.raises(ConfigurationError):
            TrendForecaster(lead_time=0.0)


class TestPredictiveController:
    def _ramp_trace(self):
        # A long, steady ramp: exactly the pattern prediction exploits.
        return WorkloadTrace(
            (0.0, 20.0, 120.0, 160.0), (0.25, 0.25, 1.0, 1.0)
        )

    def test_predictive_scales_earlier_than_reactive(self):
        common = dict(
            trace=self._ramp_trace(), max_users=560, seed=6,
            demand_scale=SCALE, models=scaled_models(),
        )
        reactive = run_autoscale("dcm", **common)
        predictive = run_autoscale("predictive", **common)

        def first_scaleout(run, tier):
            times = [t for t, c in run.controller.scaling_timeline(tier) if c > 1]
            return min(times) if times else float("inf")

        assert isinstance(predictive.controller, PredictiveDCMController)
        assert predictive.controller.predictive_scaleouts >= 1
        # The forecasted trigger beats (or matches) the reactive one on at
        # least one tier, and is never later on either.
        tiers = ("app", "db")
        assert all(
            first_scaleout(predictive, t) <= first_scaleout(reactive, t)
            for t in tiers
        )
        assert any(
            first_scaleout(predictive, t) < first_scaleout(reactive, t)
            for t in tiers
        )

    def test_predictive_inherits_concurrency_management(self):
        run = run_autoscale(
            "predictive", self._ramp_trace(), max_users=560, seed=6,
            demand_scale=SCALE, models=scaled_models(),
        )
        applies = [a for a in run.app_agent.actions if a.action == "apply"]
        assert applies, "level 2 must still re-allocate soft resources"
        assert run.system.soft.db_connections <= 80

    def test_no_predictive_fire_on_flat_load(self):
        flat = WorkloadTrace((0.0, 100.0), (0.3, 0.3))
        run = run_autoscale(
            "predictive", flat, max_users=560, seed=6,
            demand_scale=SCALE, models=scaled_models(),
        )
        assert run.controller.predictive_scaleouts == 0
        assert len(run.system.active_servers("db")) == 1
