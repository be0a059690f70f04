"""Tests for the experiment engine: sweep helpers, the store, parallel
determinism, and the one execution path for steady points and full runs."""

import json
import os
from dataclasses import asdict

import pytest

from repro.control import ScalingPolicy
from repro.errors import ConfigurationError
from repro.lab import ArtifactStore, artifact_key, canonical_json
from repro.model import ConcurrencyModel
from repro.runner import (
    run,
    run_many,
    store_key,
    stress_sweep,
    sweep_specs,
    training_outcome,
    training_specs,
    validation_specs,
)
from repro.scenario import Deployment, ScenarioSpec, measure_steady_state
from repro.workload import WorkloadTrace

SCALE = 8.0

SWEEP = sweep_specs(
    (5, 12, 25), seed=2, demand_scale=SCALE, warmup=1.5, duration=4.0,
)

STRESS = dict(tier="db", levels=[2, 36], seed=1, duration=4.0)


def tiny_autoscale_spec():
    return ScenarioSpec(
        controller="dcm",
        workload="trace",
        trace=WorkloadTrace((0.0, 15.0, 40.0, 60.0), (0.3, 0.3, 0.8, 0.4)),
        max_users=300,
        seed=4,
        demand_scale=SCALE,
        policy=ScalingPolicy(consecutive_low_periods=2),
        models={
            "app": ConcurrencyModel(s0=0.02, alpha=0.007, beta=3e-5, tier="app"),
            "db": ConcurrencyModel(s0=0.013, alpha=0.009, beta=3e-6, tier="db"),
        },
        preparation_periods={"app": 5.0, "db": 8.0},
    )


def steady_point(**overrides):
    fields = dict(users=40, seed=3, demand_scale=SCALE, monitoring=False,
                  workload="rubbos", warmup=1.0, duration=3.0)
    fields.update(overrides)
    return ScenarioSpec(**fields)


#: Spec lists per sweep helper (the stress harness has no spec; its
#: points' store producers are checked instead).
SPEC_LISTS = {
    "steady": [steady_point()],
    "sweep": SWEEP,
    "training": training_specs("app", seed=0, demand_scale=SCALE, levels=(5, 10)),
    "validation": validation_specs(
        hardware="1/2/1", soft_configs=("1000/100/18", "1000/100/80"),
        user_levels=(30, 60), seed=5, demand_scale=SCALE,
    ),
    "autoscale": [tiny_autoscale_spec()],
}


def object_paths(store):
    return [
        os.path.join(store.objects_dir, name)
        for name in os.listdir(store.objects_dir)
        if name.endswith(".json")
    ]


class TestDeterminism:
    def test_serial_equals_parallel(self):
        serial = run_many(SWEEP, jobs=1)
        parallel = run_many(SWEEP, jobs=4)
        assert serial.value == parallel.value
        assert parallel.telemetry.jobs == 4
        assert parallel.telemetry.cache_misses == 3

    def test_sweep_repeats_bit_identically(self):
        assert run_many(SWEEP).value == run_many(SWEEP).value

    def test_stress_repeats_bit_identically(self):
        assert stress_sweep(**STRESS).value == stress_sweep(**STRESS).value


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        cold = run_many(SWEEP, store=store)
        assert cold.telemetry.cache_misses == 3
        assert cold.telemetry.cache_hits == 0
        warm = run_many(SWEEP, store=store)
        assert warm.telemetry.cache_hits == 3
        assert warm.telemetry.cache_misses == 0
        assert warm.value == cold.value

    def test_warm_result_identical_across_jobs(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        cold = run_many(SWEEP, jobs=4, store=store)
        warm = run_many(SWEEP, jobs=1, store=store)
        assert warm.value == cold.value

    def test_training_shares_sweep_points(self, tmp_path):
        # Training points ARE the matching sweep points, so a sweep that
        # covered the same operating points serves training from the store.
        store = ArtifactStore(str(tmp_path / "cache"))
        levels = (2, 4, 8, 16, 32)
        training = training_specs(
            "app", seed=0, demand_scale=SCALE, levels=levels,
            warmup=2.0, duration=8.0,
        )
        sweep = sweep_specs(
            levels, hardware="1/1/1", seed=0, demand_scale=SCALE,
            warmup=2.0, duration=8.0,
        )
        assert training == sweep
        run_many(sweep, store=store)
        res = run_many(training, store=store)
        assert res.telemetry.cache_hits == 5
        assert res.telemetry.cache_misses == 0
        assert training_outcome("app", res.value).tier == "app"

    def test_corrupt_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        run_many(SWEEP, store=store)
        paths = object_paths(store)
        assert len(paths) == 3
        for path in paths:
            with open(path, "w") as fh:
                fh.write("{not json")
        assert run_many(SWEEP, store=store).telemetry.cache_misses == 3

    def test_version_mismatch_entry_is_miss(self, tmp_path):
        # Entries stamped by another repro version are unreachable, never
        # half-trusted.
        store = ArtifactStore(str(tmp_path / "cache"))
        run_many(SWEEP, store=store)
        for path in object_paths(store):
            with open(path) as fh:
                entry = json.load(fh)
            entry["version"] = "0.0.0-stale"
            with open(path, "w") as fh:
                json.dump(entry, fh)
        res = run_many(SWEEP, store=store)
        assert res.telemetry.cache_hits == 0
        assert res.telemetry.cache_misses == 3

    def test_point_key_depends_on_payload(self):
        a, b = SWEEP[0].to_json_obj(), SWEEP[1].to_json_obj()
        assert store_key(a) != store_key(b)
        assert store_key(a) == store_key(dict(a))

    def test_point_key_is_artifact_key(self):
        # The engine's point keyspace IS the lab store's artifact keyspace
        # (empty inputs): one invalidation rule for both.
        obj = SWEEP[0].to_json_obj()
        assert store_key(obj) == artifact_key(obj)

    def test_cache_round_trip_preserves_payload(self, tmp_path):
        # A point entry records its spec as the producer: the stored
        # description rebuilds the exact spec that ran.
        store = ArtifactStore(str(tmp_path / "c"))
        spec = SWEEP[0]
        value = run(spec, store=store).value
        entry = store.get(store_key(spec.to_json_obj()))
        assert entry["type"] == "point"
        assert entry["producer"] == spec.to_json_obj()
        assert ScenarioSpec.from_json_obj(entry["producer"]) == spec
        assert entry["payload"]["steady"] == asdict(value.steady)


class TestSpecs:
    @pytest.mark.parametrize(
        "kind", ["autoscale", "steady", "stress", "sweep", "training", "validation"]
    )
    def test_json_round_trip(self, kind, tmp_path):
        if kind == "stress":
            store = ArtifactStore(str(tmp_path))
            stress_sweep(**STRESS, store=store)
            producers = []
            for path in object_paths(store):
                with open(path) as fh:
                    producers.append(json.load(fh)["producer"])
            assert len(producers) == 2
            for producer in producers:
                # The stored description re-keys to its own address.
                assert store.get(store_key(producer))["producer"] == producer
                assert json.loads(canonical_json(producer)) == producer
            return
        for spec in SPEC_LISTS[kind]:
            back = ScenarioSpec.from_json(spec.to_json())
            assert back == spec
            assert store_key(back.to_json_obj()) == store_key(spec.to_json_obj())
            # Stability: a second encode of the decoded spec is byte-identical.
            assert back.to_json() == spec.to_json()

    def test_autoscale_spec_ignores_retired_scheduler_field(self):
        spec = tiny_autoscale_spec()
        obj = spec.to_json_obj()
        obj["scheduler"] = "calendar"
        assert ScenarioSpec.from_json(json.dumps(obj)) == spec

    def test_cache_key_changes_with_seed(self):
        a = sweep_specs((5,), seed=1)[0]
        b = sweep_specs((5,), seed=2)[0]
        assert store_key(a.to_json_obj()) != store_key(b.to_json_obj())

    def test_point_seed_derivation(self):
        assert [s.seed for s in SWEEP] == [7, 14, 27]  # root 2 + users
        fixed = sweep_specs((5, 12), seed=9, seed_mode="fixed")
        assert [s.seed for s in fixed] == [9, 9]
        grid = SPEC_LISTS["validation"]
        # Validation offsets by users, identically across allocations.
        assert [s.seed for s in grid] == [35, 65, 35, 65]

    def test_specs_are_hashable(self):
        specs = [s for specs in SPEC_LISTS.values() for s in specs]
        assert len(set(specs)) == len(specs)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_specs(())
        with pytest.raises(ConfigurationError):
            stress_sweep("web", [1])
        with pytest.raises(ConfigurationError):
            sweep_specs((5,), workload="locust")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(controller="magic")
        with pytest.raises(ConfigurationError, match="measurement"):
            ScenarioSpec(workload="rubbos", warmup=1.0)  # no window
        with pytest.raises(ConfigurationError, match="warmup"):
            steady_point(warmup=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json(json.dumps({"kind": "nope"}))

    def test_string_configs_parsed(self):
        spec = sweep_specs((5,), hardware="1/2/1", soft="1000/100/18")[0]
        assert spec.hardware.app == 2
        assert spec.soft.db_connections == 18


class TestEngine:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run(SWEEP[0], jobs=0)
        with pytest.raises(ConfigurationError):
            run_many([{"kind": "steady"}])

    def test_run_many_mixed_specs(self, tmp_path):
        res = run_many(
            [steady_point(), tiny_autoscale_spec()], jobs=2,
            store=ArtifactStore(str(tmp_path / "cache")),
        )
        steady_res, dep = res.value
        assert steady_res.steady.completed > 0
        # A full run yields the stopped deployment itself.
        assert isinstance(dep, Deployment)
        assert dep.duration == 60.0
        assert dep.env.now == 60.0
        # The in-process full run counts as one uncached point.
        assert res.telemetry.points == 2
        assert res.telemetry.cache_misses == 2

    def test_autoscale_not_cached(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        spec = tiny_autoscale_spec()
        first = run(spec, store=store)
        second = run(spec, store=store)
        assert first.telemetry.cache_misses == 1
        assert second.telemetry.cache_misses == 1
        assert not os.path.exists(store.objects_dir)

    def test_telemetry_render(self, tmp_path):
        res = run_many(SWEEP, jobs=2, store=ArtifactStore(str(tmp_path / "c")))
        text = res.telemetry.render()
        assert "engine telemetry" in text
        assert "cache misses" in text
        assert "worker utilization" in text
        assert "cache: disabled" in run_many(SWEEP).telemetry.render()

    def test_window_floats_reach_measurement_unchanged(self, tmp_path):
        # The engine hands warmup and duration to measure_steady_state as
        # given; a window recomputed as (warmup + duration) - warmup would
        # be 6.700000000000001 here and move the throughput in the last
        # digits, which the whole-number suite windows cannot catch.
        spec = steady_point(warmup=1.1, duration=6.7)
        with Deployment(spec) as dep:
            dep.start()
            direct = measure_steady_state(dep.env, dep.system, 1.1, 6.7)
        store = ArtifactStore(str(tmp_path / "c"))
        cold = run(spec, store=store).value.steady
        warm = run(spec, store=store).value.steady
        assert asdict(cold) == asdict(direct)
        assert asdict(warm) == asdict(direct)
        assert cold.throughput == cold.completed / 6.7
