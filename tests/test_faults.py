"""Fault injection & resilience policy pack: specs, policies, lifecycle.

Covers the ``repro.faults`` subsystem end to end: FaultSpec JSON
round-trips and the scenario schema-v2 versioning, the generic registry
surface, each resilience policy's decision logic in isolation, the
VMCrash deployment lifecycle (no orphaned agents, clean accounting,
sanitizer silent), same-seed golden equivalence of fault-free v2 scenarios
with v1 payloads, and the conservation-under-failure audit property —
including that it catches the deliberately broken ``retry_noguard``
policy and shrinks the failure to a replayable spec.
"""

import json

import pytest

from repro.audit import Scenario, run_scenario, shrink
from repro.cli import main
from repro.errors import (
    ConfigurationError,
    PolicyTimeout,
    RequestShed,
    SchemaError,
)
from repro.faults import (
    FAULTS,
    POLICIES,
    BrokerOutage,
    CircuitOpen,
    FaultSpec,
    LatencySpike,
    PolicyConfig,
    SlowNode,
    TierPartition,
    VMCrash,
    build_chain,
    fault_from_json_obj,
)
from repro.ntier.request import DemandProfile, Request
from repro.registry import Registry
from repro.scenario import SCHEMA, Deployment, ScenarioSpec, registries
from repro.sim import Environment

ALL_FAULTS = [
    VMCrash(at=3.0, tier="app", index=1),
    TierPartition(at=1.0, tier="db", duration=2.5),
    LatencySpike(at=0.5, tier="web", extra=0.25, duration=4.0),
    BrokerOutage(at=2.0, duration=3.0),
    SlowNode(at=1.5, tier="db", index=0, factor=6.0, duration=2.0),
]


def make_request() -> Request:
    return Request(
        servlet=None, created=0.0,
        demand=DemandProfile(apache=0.0, tomcat=0.0, db_queries=(0.1, 0.1)),
    )


def drive(env, chain, balancer=None, request=None):
    """Run one policy chain to completion; return (value, error)."""
    outcome = {}
    balancer = balancer if balancer is not None else FakeBalancer()
    request = request if request is not None else make_request()

    def _driver():
        try:
            outcome["value"] = yield from chain(env, balancer, request, {})
        except Exception as err:  # noqa: BLE001 - the assertion target
            outcome["error"] = err

    env.process(_driver())
    env.run()
    return outcome.get("value"), outcome.get("error")


class FakeBalancer:
    name = "fake-balancer"

    def __init__(self, backends=()):
        self.backends = list(backends)

    def eligible(self):
        return self.backends


class TestFaultSpecJSON:
    @pytest.mark.parametrize("fault", ALL_FAULTS, ids=lambda f: f.kind)
    def test_round_trip(self, fault):
        payload = json.loads(json.dumps(fault.to_json_obj()))
        assert fault_from_json_obj(payload) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            fault_from_json_obj({"kind": "meteor_strike", "at": 1.0})

    @pytest.mark.parametrize("bad", [
        lambda: VMCrash(at=-1.0),
        lambda: VMCrash(tier="cache"),
        lambda: VMCrash(index=-1),
        lambda: TierPartition(duration=-1.0),
        lambda: LatencySpike(extra=0.0),
        lambda: SlowNode(factor=0.5),
    ])
    def test_invalid_fields_fail_fast(self, bad):
        with pytest.raises(ConfigurationError):
            bad()

    def test_policy_config_round_trip_and_validation(self):
        cfg = PolicyConfig("retry", "app", {"attempts": 2, "base_delay": 0.05})
        assert PolicyConfig.from_json_obj(cfg.to_json_obj()) == cfg
        with pytest.raises(ConfigurationError, match="unknown resilience policy"):
            PolicyConfig("pray", "app")
        with pytest.raises(ConfigurationError, match="unknown tier"):
            PolicyConfig("retry", "cache")


class TestSchemaVersioning:
    def spec(self, **kwargs):
        return ScenarioSpec(monitoring=False, workload="rubbos", users=10,
                            duration=5.0, **kwargs)

    def test_v2_tag_written(self):
        assert self.spec().to_json_obj()["schema"] == SCHEMA

    def test_fault_bearing_spec_round_trips(self):
        spec = self.spec(
            faults=tuple(ALL_FAULTS),
            resilience=(PolicyConfig("retry", "app"),
                        PolicyConfig("circuit_breaker", "db")),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_v1_payload_accepted_unchanged(self):
        obj = self.spec().to_json_obj()
        del obj["schema"], obj["faults"], obj["resilience"]
        spec = ScenarioSpec.from_json_obj(obj)
        assert spec == self.spec()
        assert spec.faults == () and spec.resilience == ()

    def test_unknown_schema_rejected_with_machine_readable_code(self):
        obj = self.spec().to_json_obj()
        obj["schema"] = "repro-scenario/99"
        with pytest.raises(SchemaError, match="repro-scenario/99") as exc:
            ScenarioSpec.from_json_obj(obj)
        assert exc.value.code == "DCM-SCHEMA"


class TestRegistrySurface:
    def test_register_resolve_and_introspection(self):
        reg = Registry("widget")

        @reg.register("a")
        def build_a():
            return "a"

        reg.add("b", build_a)
        assert reg.names() == ["a", "b"]
        assert reg.resolve("a") is build_a and "b" in reg
        with pytest.raises(ConfigurationError, match="unknown widget 'c'"):
            reg.resolve("c")

    def test_last_registration_wins(self):
        reg = Registry("widget")
        reg.add("x", 1)
        reg.add("x", 2)
        assert reg.resolve("x") == 2

    def test_registries_exposes_all_four_groups(self):
        groups = registries()
        assert set(groups) == {"controllers", "workloads", "faults", "policies"}
        assert "dcm" in groups["controllers"]
        assert "rubbos" in groups["workloads"]
        assert "vm_crash" in groups["faults"] and groups["faults"] is FAULTS
        assert "retry" in groups["policies"] and groups["policies"] is POLICIES

    def test_cli_scenario_list(self, capsys):
        assert main(["scenario", "run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("vm_crash", "circuit_breaker", "rubbos", "dcm"):
            assert name in out


class TestTimeoutPolicy:
    def chain(self, inner, deadline=1.0):
        return POLICIES.resolve("timeout")({"deadline": deadline}, inner)

    def test_fast_inner_value_passes_through(self):
        env = Environment()

        def inner(env, balancer, request, kwargs):
            yield env.timeout(0.1)
            return "ok"

        value, error = drive(env, self.chain(inner))
        assert value == "ok" and error is None

    def test_slow_inner_times_out(self):
        env = Environment()

        def inner(env, balancer, request, kwargs):
            yield env.timeout(10.0)
            return "too late"

        value, error = drive(env, self.chain(inner))
        assert isinstance(error, PolicyTimeout)

    def test_inner_failure_reraised(self):
        env = Environment()

        def inner(env, balancer, request, kwargs):
            yield env.timeout(0.1)
            raise ValueError("backend exploded")

        _, error = drive(env, self.chain(inner))
        assert isinstance(error, ValueError)


class TestRetryPolicy:
    def flaky_inner(self, env, failures, effect=None):
        calls = []

        def inner(env_, balancer, request, kwargs):
            calls.append(env_.now)
            yield env_.timeout(0.01)
            if len(calls) <= failures:
                if effect is not None:
                    effect(request)
                raise ValueError(f"transient #{len(calls)}")
            return "recovered"

        return inner, calls

    def test_retries_transient_failures_with_backoff(self):
        env = Environment()
        inner, calls = self.flaky_inner(env, failures=2)
        chain = POLICIES.resolve("retry")(
            {"attempts": 3, "base_delay": 0.1, "factor": 2.0}, inner)
        value, error = drive(env, chain)
        assert value == "recovered" and error is None
        assert len(calls) == 3
        # Exponential backoff: gaps of base_delay then base_delay * factor.
        assert calls[1] - calls[0] == pytest.approx(0.11)
        assert calls[2] - calls[1] == pytest.approx(0.21)

    def test_gives_up_after_attempts(self):
        env = Environment()
        inner, calls = self.flaky_inner(env, failures=99)
        chain = POLICIES.resolve("retry")({"attempts": 2, "base_delay": 0.0}, inner)
        _, error = drive(env, chain)
        assert isinstance(error, ValueError) and len(calls) == 2

    def test_guard_refuses_replay_after_commit(self):
        env = Environment()
        inner, calls = self.flaky_inner(
            env, failures=2,
            effect=lambda req: setattr(req, "db_commits", req.db_commits + 1))
        chain = POLICIES.resolve("retry")({"attempts": 3}, inner)
        _, error = drive(env, chain)
        assert isinstance(error, ValueError) and len(calls) == 1

    def test_guard_refuses_replay_after_orphaned_start(self):
        # A started-but-uncommitted query may still commit later; the guard
        # must treat it exactly like a commit (the TOCTOU the audit found).
        env = Environment()
        inner, calls = self.flaky_inner(
            env, failures=2,
            effect=lambda req: setattr(req, "db_started", req.db_started + 1))
        chain = POLICIES.resolve("retry")({"attempts": 3}, inner)
        _, error = drive(env, chain)
        assert isinstance(error, ValueError) and len(calls) == 1

    def test_noguard_replays_committed_work(self):
        env = Environment()
        inner, calls = self.flaky_inner(
            env, failures=1,
            effect=lambda req: setattr(req, "db_commits", req.db_commits + 1))
        chain = POLICIES.resolve("retry_noguard")(
            {"attempts": 3, "base_delay": 0.0}, inner)
        value, _ = drive(env, chain)
        assert value == "recovered" and len(calls) == 2

    def test_never_retries_shed_or_timeout(self):
        for exc in (RequestShed("full"), PolicyTimeout("late")):
            env = Environment()
            calls = []

            def inner(env_, balancer, request, kwargs, exc=exc):
                calls.append(env_.now)
                yield env_.timeout(0.01)
                raise exc

            chain = POLICIES.resolve("retry")({"attempts": 3}, inner)
            _, error = drive(env, chain)
            assert error is exc and len(calls) == 1


class TestCircuitBreakerPolicy:
    def test_opens_after_threshold_and_recovers_via_probe(self):
        env = Environment()
        healthy = [False]
        calls = []

        def inner(env_, balancer, request, kwargs):
            calls.append(env_.now)
            yield env_.timeout(0.01)
            if not healthy[0]:
                raise ValueError("down")
            return "ok"

        chain = POLICIES.resolve("circuit_breaker")(
            {"failure_threshold": 2, "recovery_time": 1.0}, inner)

        _, e1 = drive(env, chain)
        _, e2 = drive(env, chain)
        assert isinstance(e1, ValueError) and isinstance(e2, ValueError)
        # Open: refused without touching the backend.
        n = len(calls)
        _, e3 = drive(env, chain)
        assert isinstance(e3, CircuitOpen) and isinstance(e3, RequestShed)
        assert len(calls) == n
        # After recovery_time a single half-open probe is admitted.  (An
        # empty heap does not advance the clock, so schedule a timeout.)
        env.timeout(2.0)
        env.run()
        healthy[0] = True
        value, _ = drive(env, chain)
        assert value == "ok"
        value, _ = drive(env, chain)  # closed again
        assert value == "ok"

    def test_downstream_shed_is_not_a_breaker_failure(self):
        env = Environment()

        def inner(env_, balancer, request, kwargs):
            yield env_.timeout(0.01)
            raise RequestShed("bulkhead full downstream")

        chain = POLICIES.resolve("circuit_breaker")(
            {"failure_threshold": 1, "recovery_time": 1.0}, inner)
        _, e1 = drive(env, chain)
        _, e2 = drive(env, chain)
        # Still reaching the backend: sheds never tripped the breaker open.
        assert not isinstance(e2, CircuitOpen)
        assert isinstance(e1, RequestShed) and isinstance(e2, RequestShed)


class TestBulkheadAndShedPolicies:
    def test_bulkhead_sheds_excess_concurrency(self):
        env = Environment()

        def inner(env_, balancer, request, kwargs):
            yield env_.timeout(1.0)
            return "ok"

        chain = POLICIES.resolve("bulkhead")({"limit": 1}, inner)
        outcomes = []

        def client():
            try:
                outcomes.append((yield from chain(env, FakeBalancer(), make_request(), {})))
            except RequestShed as err:
                outcomes.append(err)

        env.process(client())
        env.process(client())
        env.run()
        assert "ok" in outcomes
        assert any(isinstance(o, RequestShed) for o in outcomes)
        # The slot freed: a later dispatch is admitted again.
        value, error = drive(env, chain)
        assert value == "ok" and error is None

    def test_shed_refuses_above_outstanding_watermark(self):
        env = Environment()

        class Backend:
            def __init__(self, outstanding):
                self.outstanding = outstanding

        def inner(env_, balancer, request, kwargs):
            yield env_.timeout(0.01)
            return "ok"

        chain = POLICIES.resolve("shed")({"max_outstanding": 5}, inner)
        loaded = FakeBalancer([Backend(3), Backend(2)])
        _, error = drive(env, chain, balancer=loaded)
        assert isinstance(error, RequestShed)
        light = FakeBalancer([Backend(3), Backend(1)])
        value, _ = drive(env, chain, balancer=light)
        assert value == "ok"

    def test_chain_reports_per_policy_counters(self):
        # Satellite of the lab work: a built chain exposes its composition
        # and per-link dispatch counters for the resilience report.
        env = Environment()

        class OkServer:
            def handle(self, request, **kwargs):
                return env.timeout(0.01)

        class Backend:
            def __init__(self, outstanding):
                self.outstanding = outstanding

        class PickBalancer(FakeBalancer):
            def __init__(self, backends=()):
                super().__init__(backends)
                self.server = OkServer()

            def pick_for(self, request):
                return self.server

        chain = build_chain([
            PolicyConfig("retry", "app", {"attempts": 2, "base_delay": 0.0}),
            PolicyConfig("shed", "app", {"max_outstanding": 5}),
        ])
        assert chain.describe() == "retry -> shed -> dispatch"

        _, error = drive(env, chain, balancer=PickBalancer([Backend(9)]))
        assert isinstance(error, RequestShed)
        value, error = drive(env, chain, balancer=PickBalancer())
        assert error is None

        by_kind = {p["kind"]: p for p in chain.report()["policies"]}
        assert by_kind["shed"]["calls"] == 2
        assert by_kind["shed"]["shed"] == 1
        assert by_kind["shed"]["ok"] == 1
        assert by_kind["shed"]["failed"] == 0
        # The refusal propagated through retry as a shed, not a failure.
        assert by_kind["retry"]["calls"] == 2
        assert by_kind["retry"]["shed"] == 1
        assert by_kind["retry"]["ok"] == 1

    def test_deployment_resilience_report_composition(self):
        spec = ScenarioSpec(
            hardware="1/2/1", seed=6, demand_scale=8.0, monitoring=False,
            workload="rubbos", users=10, think_time=1.0, duration=6.0,
            resilience=(
                PolicyConfig("retry", "app", {"attempts": 2}),
                PolicyConfig("shed", "db", {"max_outstanding": 400}),
            ),
        )
        with Deployment(spec) as dep:
            dep.run()
        report = dep.resilience_report()
        assert set(report) == {"app", "db"}
        assert report["app"]["chain"] == "retry -> dispatch"
        assert report["db"]["chain"] == "shed -> dispatch"
        served = dep.system.completed_count()
        assert served > 0
        # Every completed request passed through both tiers' chains.
        assert report["app"]["policies"][0]["calls"] >= served
        assert report["db"]["policies"][0]["ok"] >= served

    def test_build_chain_folds_first_listed_outermost(self):
        env = Environment()

        def inner(env_, balancer, request, kwargs):
            yield env_.timeout(10.0)
            return "slow"

        # timeout outside retry: one PolicyTimeout, never retried.
        chain = build_chain([
            PolicyConfig("timeout", "app", {"deadline": 0.5}),
            PolicyConfig("retry", "app", {"attempts": 3}),
        ])
        # Splice our slow inner under the built chain by registering it as
        # the base: easiest is to rebuild via factories directly.
        t = POLICIES.resolve("timeout")({"deadline": 0.5}, POLICIES.resolve(
            "retry")({"attempts": 3, "base_delay": 0.0}, inner))
        _, error = drive(env, t)
        assert isinstance(error, PolicyTimeout)
        assert callable(chain)


class TestVMCrashLifecycle:
    def spec(self, **kwargs):
        return ScenarioSpec(
            hardware="1/2/1", seed=6, demand_scale=4.0, monitoring=True,
            workload="rubbos", users=30, think_time=1.0, duration=12.0,
            faults=(VMCrash(at=4.0, tier="app", index=0),), **kwargs)

    def quiesce(self, dep):
        deadline = dep.env.now + 120.0
        servers = dep.system.all_servers() + dep.system.removed_servers
        while dep.env.now < deadline:
            if dep.system.inflight == 0 and all(
                s.outstanding == 0 for s in servers
            ):
                return
            dep.env.run(until=dep.env.now + 5.0)
        raise AssertionError("deployment did not quiesce after the crash")

    def test_no_orphaned_agents_and_clean_accounting(self):
        with Deployment(self.spec()) as dep:
            before = {s.name for s in dep.system.tier_servers("app")}
            dep.run()
            self.quiesce(dep)
            after = {s.name for s in dep.system.tier_servers("app")}
            crashed = (before - after).pop()
            # The monitor fleet dropped the orphaned agent for the dead
            # server (checked before stop() tears all agents down).
            assert crashed not in dep.fleet.agents
            assert set(dep.fleet.agents) == {
                s.name for s in dep.system.all_servers()
            }
        assert len(after) == 1
        assert crashed in {s.name for s in dep.system.removed_servers}
        # Everything submitted is accounted: completed + failed + shed.
        total = (dep.system.completed_count() + len(dep.system.failure_log)
                 + len(dep.system.shed_log))
        assert dep.system.submitted == total
        assert dep.injector.log and dep.injector.log[0].phase == "inject"

    def test_crash_with_controller_terminates_vm_and_logs(self):
        spec = self.spec(controller="ec2")
        with Deployment(spec) as dep:
            dep.run()
            self.quiesce(dep)
            crashes = [e for e in dep.system.control_log
                       if e.actor == "vm-agent" and e.kind == "crash"]
            assert len(crashes) == 1 and crashes[0].tier == "app"
            # The dead server's VM stopped billing (terminated, not leaked)
            # and its agent is gone; the session-wide sanitizer checks the
            # rest (billing/lifecycle agreement).
            crashed = crashes[0].detail
            assert crashed not in dep.fleet.agents

    def test_crash_ends_the_scaling_timeline(self):
        with Deployment(self.spec(controller="ec2")) as dep:
            dep.run()
        assert dep.controller.scaling_timeline("app") == [(0.0, 2), (4.0, 1)]
        assert dep.controller.scaling_timeline("db") == [(0.0, 1)]

    def test_cli_final_server_count_after_crash(self, tmp_path, capsys):
        path = tmp_path / "crash.json"
        path.write_text(self.spec(controller="ec2").to_json())
        assert main(["scenario", "run", str(path)]) == 0
        rows = dict(
            (cell.strip() for cell in line.split("|"))
            for line in capsys.readouterr().out.splitlines()
            if line.count("|") == 1
        )
        assert rows["app servers (final)"] == "1.000"
        assert rows["db servers (final)"] == "1.000"


class TestGoldenEquivalenceUnderSchemaV2:
    """A v2 spec with ``faults=()`` runs bit-identically to its v1 payload."""

    def run_digest(self, spec):
        with Deployment(spec) as dep:
            dep.run()
        return (dep.env.now, dep.env._seq, tuple(dep.system.request_log),
                len(dep.system.failure_log))

    def test_same_seed_same_events(self):
        spec_v2 = ScenarioSpec(monitoring=False, workload="rubbos", users=15,
                               seed=3, demand_scale=4.0, duration=8.0)
        obj = spec_v2.to_json_obj()
        del obj["schema"], obj["faults"], obj["resilience"]
        spec_v1 = ScenarioSpec.from_json_obj(obj)
        assert self.run_digest(spec_v2) == self.run_digest(spec_v1)


# Known-failing parameter point for the broken policy (see the audit
# property's probe history): heavy demand widens the window in which a
# crash interrupts an interaction with committed queries.
NOGUARD_PARAMS = {
    "fault": "vm_crash", "policy": "retry_noguard", "app_servers": 2,
    "users": 40, "demand_scale": 4.0, "duration": 10.0,
    "fault_at": 3.0, "fault_duration": 2.0,
}


class TestFaultConservationProperty:
    @pytest.mark.parametrize("policy", ["retry", "retry+circuit_breaker", "shed"])
    def test_shipped_policies_conserve_under_crash(self, policy):
        params = {**NOGUARD_PARAMS, "policy": policy}
        result = run_scenario(Scenario("fault_conservation", params, seed=2))
        assert result.passed, result.failures

    def test_broken_retry_is_caught(self):
        result = run_scenario(Scenario("fault_conservation", NOGUARD_PARAMS, seed=2))
        assert not result.passed
        assert any("DB commits" in f for f in result.failures)

    def test_failure_shrinks_to_replayable_spec(self, tmp_path):
        scenario = Scenario("fault_conservation", NOGUARD_PARAMS, seed=2)
        small, runs = shrink(scenario, max_runs=4)
        assert runs <= 4
        # Whatever the shrinker settled on must still fail, also after a
        # JSON round-trip (the spec a nightly run would upload).
        path = tmp_path / "minimized.json"
        small.save(path)
        replayed = Scenario.load(path)
        assert replayed == small
        assert not run_scenario(replayed).passed

    def test_cli_audit_rejects_unknown_property(self):
        with pytest.raises(ConfigurationError, match="unknown audit properties"):
            main(["audit", "run", "--budget", "1", "--properties", "nonesuch"])
