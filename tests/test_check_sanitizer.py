"""Tests for the runtime invariant sanitizer (repro.check).

Two complementary halves:

* **property tests** — random-but-legal traffic through pools and servers
  never trips a check (the sanitizer has no false positives), and
* **tamper tests** — deliberately corrupted clocks, pools, counters,
  billing books, and cache payloads each raise
  :class:`~repro.errors.InvariantViolation` naming the broken invariant
  (the sanitizer has no false negatives on seeded corruption).

The session-wide conftest fixture arms the sanitizer; tests that need the
disarmed behaviour use :func:`repro.check.config.override` locally.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.check import config as check_config
from repro.check import (
    audit_billing,
    audit_resource,
    audit_server,
    audit_vm,
    verify_payload_roundtrip,
)
from repro.cluster import Hypervisor
from repro.cluster.vm import VMState
from repro.errors import ControlError, InvariantViolation, SimulationError
from repro.ntier.contention import ContentionModel
from repro.ntier.request import Request
from repro.ntier.server import TierServer
from repro.ntier.threadpool import ThreadPool
from repro.runner import store_key
from repro.sim.core import Environment
from repro.sim.resources import Resource


class EchoServer(TierServer):
    """Minimal concrete server: one timeout per request, optional failure."""

    tier = "web"

    def __init__(self, env, name="echo", delay=0.01):
        super().__init__(env, name, ContentionModel(s0=0.01, alpha=0.0, beta=0.0))
        self.delay = delay

    def _process(self, request, started_holder, fail=False):
        started_holder[0] = self.env.now
        yield self.env.timeout(self.delay)
        if fail:
            raise RuntimeError("injected failure")


def make_request(now=0.0):
    return Request(servlet=None, created=now, demand=None)


def drain(env):
    """Run the heap dry, swallowing injected request failures."""
    while env.queue_size:
        try:
            env.run()
        except RuntimeError:
            pass


# ---------------------------------------------------------------------------
# configuration switchboard
# ---------------------------------------------------------------------------
class TestConfig:
    def test_session_fixture_arms_all_domains(self):
        # One switch arms every check, the kernel's cached flags included.
        from repro.ntier import server
        from repro.sim import core, resources

        assert check_config.enabled()
        assert core._CLOCK_CHECK and resources._POOL_CHECK
        assert server._CONSERVATION_CHECK

    def test_override_false_disarms(self):
        from repro.sim import core, resources

        with check_config.override(False):
            assert not check_config.enabled()
            assert not core._CLOCK_CHECK and not resources._POOL_CHECK
        assert check_config.enabled()
        assert core._CLOCK_CHECK and resources._POOL_CHECK

    def test_enable_disable_roundtrip(self):
        previous = check_config.enabled()
        try:
            check_config.disable()
            assert not check_config.enabled()
            check_config.enable()
            assert check_config.enabled()
        finally:
            (check_config.enable if previous else check_config.disable)()


# ---------------------------------------------------------------------------
# structured errors
# ---------------------------------------------------------------------------
class TestErrorCodes:
    def test_invariant_violation_fields_and_message(self):
        err = InvariantViolation("tomcat-1", "request-conservation", 12.5,
                                 "arrived=3 != 2")
        assert err.component == "tomcat-1"
        assert err.invariant == "request-conservation"
        assert err.sim_time == 12.5
        assert err.detail == "arrived=3 != 2"
        assert err.code == "DCM-INVARIANT"
        text = str(err)
        assert "[DCM-INVARIANT]" in text
        assert "t=12.500000" in text
        assert "arrived=3 != 2" in text

    def test_invariant_violation_without_sim_time(self):
        err = InvariantViolation("runner.engine", "payload-json-roundtrip")
        assert err.sim_time is None
        assert "t=" not in str(err)

    @pytest.mark.parametrize("cls, code", [
        (errors.ReproError, "DCM-ERR"),
        (errors.SimulationError, "DCM-SIM"),
        (errors.ConfigurationError, "DCM-CONFIG"),
        (errors.CapacityError, "DCM-CAPACITY"),
        (errors.TopologyError, "DCM-TOPOLOGY"),
        (errors.ModelError, "DCM-MODEL"),
        (errors.BrokerError, "DCM-BROKER"),
        (errors.ControlError, "DCM-CONTROL"),
        (errors.InvariantViolation, "DCM-INVARIANT"),
    ])
    def test_machine_readable_codes(self, cls, code):
        assert cls.code == code

    def test_invariant_violation_is_a_repro_error(self):
        assert issubclass(InvariantViolation, errors.ReproError)


# ---------------------------------------------------------------------------
# clock monotonicity
# ---------------------------------------------------------------------------
class TestClock:
    def _rogue_heap(self, initial_time=10.0, when=4.0):
        # White-box: plants a past-dated entry directly in the binary heap.
        env = Environment(initial_time=initial_time)
        rogue = env.event()
        rogue.succeed(None)
        env._heap.clear()
        heapq.heappush(env._heap, (when, 0, 0, rogue))
        return env

    def test_past_event_raises(self):
        env = self._rogue_heap()
        with pytest.raises(InvariantViolation) as exc:
            env.step()
        assert exc.value.invariant == "monotonic-clock"
        assert exc.value.component == "sim.core"

    def test_past_event_ignored_when_disarmed(self):
        env = self._rogue_heap()
        with check_config.override(False):
            env.step()
        assert env.now == 4.0


# ---------------------------------------------------------------------------
# pool accounting
# ---------------------------------------------------------------------------
class TestPools:
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        ops=st.lists(
            st.one_of(st.sampled_from(["acquire", "release"]),
                      st.integers(min_value=1, max_value=6)),
            max_size=50,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traffic_never_violates(self, capacity, ops):
        env = Environment()
        resource = Resource(env, capacity)
        held, queued = [], []

        def sweep():
            held.extend(q for q in queued if q.granted)
            queued[:] = [q for q in queued if not q.granted]

        for op in ops:
            if op == "acquire":
                req = resource.acquire()
                (held if req.granted else queued).append(req)
            elif op == "release":
                if held:
                    resource.release(held.pop(0))
                    sweep()
            else:
                resource.resize(op)
                sweep()
        audit_resource(resource)
        assert resource.grants_total - resource.releases_total == resource.in_use

    @given(traffic=st.lists(st.integers(min_value=0, max_value=3),
                            min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_threadpool_checkout_checkin_balances(self, traffic):
        env = Environment()
        pool = ThreadPool(env, 2)

        def worker(hold):
            thread = yield from pool.checkout()
            yield env.timeout(hold * 0.01)
            pool.checkin(thread)

        for hold in traffic:
            env.process(worker(hold))
        env.run()
        assert pool.busy == 0
        assert pool.queued == 0
        audit_resource(pool._resource)

    def test_tampered_in_use_caught_on_release(self):
        env = Environment()
        resource = Resource(env, 2)
        req = resource.acquire()
        resource._in_use += 1  # corrupt the books
        with pytest.raises(InvariantViolation) as exc:
            resource.release(req)
        assert exc.value.invariant == "acquire-release-pairing"

    def test_foreign_handle_release_caught(self):
        env = Environment()
        ours, theirs = Resource(env, 1, name="ours"), Resource(env, 1, name="theirs")
        req = ours.acquire()
        with pytest.raises(InvariantViolation) as exc:
            theirs.release(req)
        assert exc.value.invariant == "foreign-handle-release"

    def test_granted_request_stuck_in_queue_caught(self):
        env = Environment()
        resource = Resource(env, 1)
        resource.acquire()
        waiting = resource.acquire()
        assert not waiting.granted
        waiting.granted = True  # corrupt: granted but still queued
        with pytest.raises(InvariantViolation):
            audit_resource(resource)

    def test_negative_in_use_caught(self):
        env = Environment()
        resource = Resource(env, 1)
        resource._in_use = -1
        with pytest.raises(InvariantViolation):
            audit_resource(resource)

    def test_release_of_ungranted_stays_simulation_error(self):
        env = Environment()
        a = Resource(env, 1)
        req = a.acquire()
        a.release(req)
        with pytest.raises(SimulationError):
            a.release(req)

    def test_disarmed_foreign_release_passes_silently(self):
        env = Environment()
        ours, theirs = Resource(env, 1), Resource(env, 1)
        req = ours.acquire()
        with check_config.override(False):
            theirs.release(req)  # corrupts books, but no check fires
        assert theirs.in_use == -1


# ---------------------------------------------------------------------------
# request conservation
# ---------------------------------------------------------------------------
class TestConservation:
    @given(outcomes=st.lists(st.booleans(), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_random_workload_conserves_requests(self, outcomes):
        env = Environment()
        server = EchoServer(env)
        for should_fail in outcomes:
            server.handle(make_request(env.now), fail=should_fail)
        drain(env)
        audit_server(server)
        assert server.arrivals == len(outcomes)
        assert server.completions == outcomes.count(False)
        assert server.failures == outcomes.count(True)
        assert server.inflight == 0

    def test_tampered_completions_caught_inline(self):
        env = Environment()
        server = EchoServer(env)
        done = server.handle(make_request())
        server.completions += 1  # corrupt: a completion that never happened
        with pytest.raises(InvariantViolation) as exc:
            env.run(until=done)
        assert exc.value.invariant == "request-conservation"
        assert exc.value.component == "echo"

    def test_tampered_counters_caught_by_audit(self):
        env = Environment()
        server = EchoServer(env)
        done = server.handle(make_request())
        env.run(until=done)
        audit_server(server)
        server.arrivals += 1  # a lost request
        with pytest.raises(InvariantViolation):
            audit_server(server)

    def test_negative_counter_caught(self):
        env = Environment()
        server = EchoServer(env)
        server.failures = -1
        with pytest.raises(InvariantViolation):
            audit_server(server)

    def test_disarmed_tamper_passes(self):
        env = Environment()
        server = EchoServer(env)
        done = server.handle(make_request())
        server.completions += 1
        with check_config.override(False):
            env.run(until=done)


# ---------------------------------------------------------------------------
# VM lifecycle and billing
# ---------------------------------------------------------------------------
class TestLifecycleAndBilling:
    def _run_one_vm(self, run_for=30.0):
        env = Environment()
        hyp = Hypervisor(env)
        vm, ready = hyp.provision("web-1")
        env.run(until=ready)
        env.run(until=env.now + run_for)
        return env, hyp, vm

    def test_clean_lifecycle_audits_pass(self):
        env, hyp, vm = self._run_one_vm()
        hyp.terminate(vm)  # runs audit_vm + audit_billing internally
        audit_billing(hyp)
        assert math.isclose(hyp.billing.vm_seconds(), 30.0)

    def test_vm_killed_mid_boot_is_never_billed(self):
        env = Environment()
        hyp = Hypervisor(env)
        vm, ready = hyp.provision("web-1")
        env.run(until=2.0)
        hyp.terminate(vm)
        with pytest.raises(errors.CapacityError):
            env.run(until=ready)
        audit_billing(hyp)
        assert hyp.billing.vm_seconds() == 0.0

    def test_tampered_billing_interval_caught(self):
        env, hyp, vm = self._run_one_vm()
        hyp.terminate(vm)
        vm_ref, start, end = hyp.billing._closed[0]
        hyp.billing._closed[0] = (vm_ref, start, end + 5.0)  # overbill
        with pytest.raises(InvariantViolation) as exc:
            audit_billing(hyp)
        assert exc.value.invariant == "vm-seconds-integral"

    def test_double_metering_caught(self):
        env, hyp, vm = self._run_one_vm()
        with pytest.raises(InvariantViolation) as exc:
            hyp.billing.vm_started(vm)
        assert "metered twice" in exc.value.detail

    def test_metering_a_non_running_vm_caught(self):
        env = Environment()
        hyp = Hypervisor(env)
        vm, _ready = hyp.provision("web-1")  # still BOOTING
        with pytest.raises(InvariantViolation) as exc:
            hyp.billing.vm_started(vm)
        assert exc.value.invariant == "vm-lifecycle"

    def test_tampered_timestamps_fail_terminate_audit(self):
        env, hyp, vm = self._run_one_vm()
        vm.running_at = vm.provisioned_at - 100.0  # impossible ordering
        with pytest.raises(InvariantViolation) as exc:
            hyp.terminate(vm)
        assert exc.value.invariant == "vm-lifecycle"

    def test_terminated_without_timestamp_caught(self):
        env, hyp, vm = self._run_one_vm()
        hyp.terminate(vm)
        vm.terminated_at = None
        with pytest.raises(InvariantViolation):
            audit_vm(vm, env.now)

    def test_illegal_transition_raises_control_error(self):
        env, hyp, vm = self._run_one_vm()
        hyp.terminate(vm)
        with pytest.raises(ControlError) as exc:
            vm.transition(VMState.RUNNING)
        assert exc.value.code == "DCM-CONTROL"


# ---------------------------------------------------------------------------
# cache payload round-trip
# ---------------------------------------------------------------------------
class TestCachePayloads:
    def test_well_formed_payload_yields_key(self):
        key = store_key({"users": 40, "workload": "rubbos"})
        assert len(key) == 64
        assert key == store_key({"workload": "rubbos", "users": 40})

    def test_tuple_payload_caught(self):
        with pytest.raises(InvariantViolation) as exc:
            store_key({"db_queries": (0.1, 0.2)})
        assert exc.value.invariant == "payload-json-roundtrip"

    def test_nan_payload_caught(self):
        with pytest.raises(InvariantViolation):
            store_key({"scale": float("nan")})

    def test_disarmed_tuple_payload_passes(self):
        with check_config.override(False):
            assert len(store_key({"db_queries": (0.1, 0.2)})) == 64

    def test_verify_payload_roundtrip_direct(self):
        verify_payload_roundtrip({"a": 1}, '{"a": 1}')
        with pytest.raises(InvariantViolation):
            verify_payload_roundtrip({"a": 1}, '{"a": 2}')
        with pytest.raises(InvariantViolation):
            verify_payload_roundtrip({"a": 1}, "not json")
