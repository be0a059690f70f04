"""Tests for the predictive scaling extension (trend forecaster + controller)."""

import pytest

from repro.control import PredictiveDCMController, TrendForecaster
from repro.errors import ConfigurationError
from repro.lab.store import payload_digest
from repro.model import ground_truth_models
from repro.scenario import Deployment, ScenarioSpec
from repro.workload import WorkloadTrace

SCALE = 8.0

#: sha256 of the ramp run's controller records, timelines and request log
#: (``TestPredictiveController.test_same_seed_digest``).
PREDICTIVE_GOLDEN = (
    "05327a7a7e63d647a7f1f3b67fede95c275599e453f68b6c0ad8126c07915ab1"
)


def run_autoscale(controller, trace, **kwargs):
    """One controller replaying ``trace``: the stopped deployment."""
    spec = ScenarioSpec(controller=controller, workload="trace", trace=trace,
                        **kwargs)
    with Deployment(spec) as dep:
        dep.run()
    return dep


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
            demand_scale=SCALE, models=ground_truth_models(SCALE),
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
            demand_scale=SCALE, models=ground_truth_models(SCALE),
        )
        applies = [e for e in run.system.control_log
                   if e.actor == "app-agent" and e.kind == "apply"]
        assert applies, "level 2 must still re-allocate soft resources"
        assert run.system.soft.db_connections <= 80

    def test_same_seed_digest(self):
        run = run_autoscale(
            "predictive", self._ramp_trace(), max_users=560, seed=6,
            demand_scale=SCALE, models=ground_truth_models(SCALE),
        )
        payload = {
            "events": [[e.time, e.tier, e.kind, e.detail]
                       for e in run.controller.events],
            "timelines": {
                t: run.controller.scaling_timeline(t) for t in ("app", "db")
            },
            "request_log": run.system.request_log,
        }
        assert payload_digest(payload) == PREDICTIVE_GOLDEN

    def test_no_predictive_fire_on_flat_load(self):
        flat = WorkloadTrace((0.0, 100.0), (0.3, 0.3))
        run = run_autoscale(
            "predictive", flat, max_users=560, seed=6,
            demand_scale=SCALE, models=ground_truth_models(SCALE),
        )
        assert run.controller.predictive_scaleouts == 0
        assert len(run.system.active_servers("db")) == 1
