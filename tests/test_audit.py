"""Tests for the differential-validation subsystem (repro.audit):
closed-form M/M/c laws, the property catalogue, the scenario generator,
the shrinker, and replay of the committed failure corpus."""

import json
from pathlib import Path

import pytest

from repro.audit import (
    PROPERTIES,
    AuditProperty,
    Scenario,
    generate_scenarios,
    run_scenario,
    shrink,
)
from repro.errors import ConfigurationError, ModelError
from repro.model import erlang_c, mmc_metrics

CORPUS = Path(__file__).parent / "audit_corpus"


class TestClosedForms:
    def test_erlang_c_single_server_is_rho(self):
        # For c=1, C(1, a) = a.
        for a in (0.1, 0.5, 0.9):
            assert erlang_c(1, a) == pytest.approx(a)

    def test_erlang_c_two_servers_hand_computed(self):
        # c=2, a=1.2: C = 1.8 / (1 + 1.2 + 1.8) = 0.45.
        assert erlang_c(2, 1.2) == pytest.approx(0.45)

    def test_erlang_c_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_erlang_c_rejects_unstable_station(self):
        with pytest.raises(ModelError):
            erlang_c(2, 2.0)
        with pytest.raises(ModelError):
            erlang_c(2, 2.5)

    def test_erlang_c_large_c_no_overflow(self):
        # A factorial formulation would overflow long before c=500.
        assert 0.0 < erlang_c(500, 450.0) < 1.0

    def test_mmc_metrics_mm1(self):
        # M/M/1 with lambda=0.5, mu=1: W = 1/(mu-lambda) = 2, Wq = 1.
        m = mmc_metrics(1, 0.5, 1.0)
        assert m.mean_response == pytest.approx(2.0)
        assert m.mean_wait == pytest.approx(1.0)
        assert m.mean_queue_length == pytest.approx(0.5)
        assert m.mean_in_system == pytest.approx(1.0)
        assert m.utilization == pytest.approx(0.5)

    def test_mmc_metrics_littles_law_consistency(self):
        m = mmc_metrics(3, 2.0, 1.0)
        assert m.mean_queue_length == pytest.approx(m.arrival_rate * m.mean_wait)
        assert m.mean_in_system == pytest.approx(
            m.mean_queue_length + m.mean_in_service
        )


class TestProperties:
    def test_registry_is_complete(self):
        assert set(PROPERTIES) == {
            "mmc_oracle",
            "rr_fairness",
            "k_server_symmetry",
            "service_time_scaling",
            "seed_permutation",
            "scenario_roundtrip",
            "fault_conservation",
            "shard_conservation",
        }
        for prop in PROPERTIES.values():
            assert prop.weight > 0

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(Scenario("no_such_property", {}, 0))

    def test_mmc_oracle_matches_closed_forms(self):
        result = run_scenario(
            Scenario(
                "mmc_oracle",
                {"servers": 2, "rho": 0.6, "arrivals": 2500, "service_mean": 0.02},
                7,
            )
        )
        assert result.passed, result.failures
        assert result.details["completed"] > 1500

    def test_rr_fairness_without_churn(self):
        result = run_scenario(
            Scenario("rr_fairness", {"backends": 3, "picks": 10, "churn_events": []}, 0)
        )
        assert result.passed, result.failures
        assert result.details["picks"][:4] == ["s0", "s1", "s2", "s0"]

    def test_rr_fairness_with_churn(self):
        result = run_scenario(
            Scenario(
                "rr_fairness",
                {"backends": 4, "picks": 30, "churn_events": [[5, 1], [14, 1], [20, 3]]},
                0,
            )
        )
        assert result.passed, result.failures

    @pytest.mark.slow
    def test_service_time_scaling(self):
        result = run_scenario(
            Scenario(
                "service_time_scaling",
                {
                    "tier": "app",
                    "concurrency": 5,
                    "factor_exp": 1,
                    "warmup": 1.0,
                    "duration": 4.0,
                },
                13,
            ),
        )
        assert result.passed, result.failures

    @pytest.mark.slow
    def test_k_server_symmetry(self):
        result = run_scenario(
            Scenario(
                "k_server_symmetry",
                {"app_servers": 2, "users": 40, "warmup": 2.0, "duration": 6.0},
                17,
            ),
        )
        assert result.passed, result.failures

    @pytest.mark.slow
    def test_seed_permutation(self):
        result = run_scenario(
            Scenario(
                "seed_permutation",
                {"points": 2, "users": 25, "warmup": 1.5, "duration": 3.0},
                19,
            ),
        )
        assert result.passed, result.failures


class TestGenerator:
    def test_deterministic_from_seed(self):
        a = generate_scenarios(5, 20)
        b = generate_scenarios(5, 20)
        assert a == b
        assert len(a) == 20

    def test_different_seeds_differ(self):
        assert generate_scenarios(0, 10) != generate_scenarios(1, 10)

    def test_generated_params_valid_for_property(self):
        for scenario in generate_scenarios(2, 30):
            prop = PROPERTIES[scenario.property]
            for key, floor in prop.floors.items():
                if key in scenario.params and not isinstance(
                    scenario.params[key], list
                ):
                    assert scenario.params[key] >= floor, (scenario.property, key)

    def test_scenario_json_roundtrip(self, tmp_path):
        scenario = generate_scenarios(3, 1)[0]
        path = tmp_path / "spec.json"
        scenario.save(path)
        assert Scenario.load(path) == scenario
        # The on-disk form is plain JSON with stable key order.
        assert json.loads(path.read_text())["property"] == scenario.property


class TestShrinker:
    def test_greedy_shrink_reaches_floor(self, monkeypatch):
        # A synthetic property failing iff n >= 5 and m >= 2: the shrinker
        # must descend both parameters to their smallest failing values.
        def check(params, seed, **_):
            from repro.audit.properties import PropertyResult

            failed = params["n"] >= 5 and params["m"] >= 2
            return PropertyResult(passed=not failed, failures=["boom"] * failed)

        fake = AuditProperty(
            name="fake",
            generate=lambda rng: {"n": 40, "m": 8},
            check=check,
            floors={"n": 5, "m": 2},
            weight=1.0,
        )
        monkeypatch.setitem(PROPERTIES, "fake", fake)
        small, runs = shrink(Scenario("fake", {"n": 40, "m": 8}, 0), max_runs=40)
        assert small.params == {"n": 5, "m": 2}
        assert runs <= 40

    def test_shrink_prunes_list_params(self, monkeypatch):
        def check(params, seed, **_):
            from repro.audit.properties import PropertyResult

            failed = 3 in params["items"]
            return PropertyResult(passed=not failed, failures=["boom"] * failed)

        fake = AuditProperty(
            name="fake_list",
            generate=lambda rng: {"items": []},
            check=check,
            floors={},
            weight=1.0,
        )
        monkeypatch.setitem(PROPERTIES, "fake_list", fake)
        small, _runs = shrink(
            Scenario("fake_list", {"items": [1, 2, 3, 4, 5]}, 0), max_runs=40
        )
        assert 3 in small.params["items"]
        assert len(small.params["items"]) < 5

    def test_shrink_respects_run_budget(self, monkeypatch):
        calls = []

        def check(params, seed, **_):
            from repro.audit.properties import PropertyResult

            calls.append(1)
            # Fails only above 100: the floor candidate always passes, so
            # the descent must halve its way down — many re-checks.
            failed = params["n"] >= 100
            return PropertyResult(passed=not failed, failures=["boom"] * failed)

        fake = AuditProperty(
            name="fake_budget",
            generate=lambda rng: {"n": 1024},
            check=check,
            floors={"n": 1},
            weight=1.0,
        )
        monkeypatch.setitem(PROPERTIES, "fake_budget", fake)
        small, runs = shrink(Scenario("fake_budget", {"n": 1 << 30}, 0), max_runs=9)
        assert runs == 9
        assert len(calls) == 9
        # Whatever it reached within budget must itself still fail.
        assert small.params["n"] >= 100


class TestCorpus:
    """The committed corpus: minimized specs of bugs this audit caught.

    Each spec fails on the pre-fix tree (that is how it earned its place)
    and must pass forever after.
    """

    @pytest.mark.parametrize(
        "spec", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name
    )
    def test_corpus_spec_passes_on_fixed_tree(self, spec):
        scenario = Scenario.load(spec)
        result = run_scenario(scenario)
        assert result.passed, (spec.name, result.failures)

    def test_corpus_is_not_empty(self):
        specs = [Scenario.load(path) for path in sorted(CORPUS.glob("*.json"))]
        assert specs
        # A property deleted from the registry takes its corpus specs along.
        assert {spec.property for spec in specs} <= set(PROPERTIES)
