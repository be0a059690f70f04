"""In-place dispatch and callback-driven single-stage servers.

The kernel may run an event's waiters at once instead of after a heap
round trip, but only when the event is provably the next one the loop would
pop (see "In-place dispatch" in :mod:`repro.sim.core`).  These tests pin
the orderings that rule must preserve, the ``run(until=)`` / ``step()``
contract around in-place events, the crash and refusal semantics of the
callback-driven MySQL and cache servers, and a ceiling on kernel events per
completed request.
"""

import pytest

from repro.errors import CapacityError, TopologyError
from repro.faults.policies import PolicyConfig, build_chain
from repro.ntier.balancer import Balancer
from repro.ntier.cache import CacheServer
from repro.ntier.connpool import ConnectionPool
from repro.ntier.mysql import MySQLServer
from repro.ntier.request import Request
from repro.ntier.threadpool import ThreadPool
from repro.sim import Environment, Interrupt


def make_request():
    return Request(servlet=None, created=0.0, demand=None)


# ---------------------------------------------------------------------------
# orderings the in-place rule must keep
# ---------------------------------------------------------------------------
class TestOrdering:
    def test_two_waiters_on_one_event_keep_their_order(self):
        # A and B both wait on `gate`.  A returns at once (C waits on A);
        # B spawns D.  Through the heap: A, B run as the gate's callbacks,
        # then D's URGENT start, then A's return wakes C.  Guarding on
        # "nothing queued now" alone would run C before B.
        env = Environment()
        log = []
        gate = env.timeout(1.0)

        def a(env):
            yield gate
            log.append("A")

        def c(env, proc_a):
            yield proc_a
            log.append("C")

        def d(env):
            log.append("D")
            yield env.timeout(0.0)

        def b(env):
            yield gate
            log.append("B")
            env.process(d(env))

        proc_a = env.process(a(env))
        env.process(b(env))
        env.process(c(env, proc_a))
        env.run()
        assert log == ["A", "B", "D", "C"]

    def test_checkout_with_room_waits_behind_a_queued_start(self):
        # The grant would not be the next event: Q's start is queued at the
        # same instant, so the checkout goes through the heap and Q runs
        # first, exactly as before in-place dispatch existed.
        env = Environment()
        pool = ThreadPool(env, 2, name="t")
        log = []

        def q(env):
            log.append("Q")
            yield env.timeout(0.0)

        def p(env):
            yield env.timeout(1.0)
            env.process(q(env))
            handle = yield from pool.checkout()
            log.append("P")
            pool.checkin(handle)

        env.process(p(env))
        env.run()
        assert log == ["Q", "P"]
        assert pool.busy == 0 and pool.acquisitions == 1

    @pytest.mark.parametrize("pool_cls", [ThreadPool, ConnectionPool])
    def test_checkout_with_room_is_granted_in_place(self, pool_cls):
        # Nothing queued at t=1 and the timeout's only waiter is running:
        # the grant takes no heap entry and the caller does not yield.
        env = Environment()
        pool = pool_cls(env, 1)
        seen = {}

        def p(env):
            yield env.timeout(1.0)
            seq = env._seq
            handle = yield from pool.checkout()
            seen["seq_moved"] = env._seq - seq
            seen["processed"] = handle.processed
            yield env.timeout(1.0)
            pool.checkin(handle)

        env.process(p(env))
        env.run()
        assert seen == {"seq_moved": 0, "processed": True}
        assert pool.occupancy_integral() == pytest.approx(1.0)

    def test_full_pool_still_queues_fifo(self):
        env = Environment()
        pool = ThreadPool(env, 1)
        order = []

        def worker(env, name):
            handle = yield from pool.checkout()
            order.append((name, env.now))
            yield env.timeout(1.0)
            pool.checkin(handle)

        for name in ("w1", "w2", "w3"):
            env.process(worker(env, name))
        env.run()
        assert order == [("w1", 0.0), ("w2", 1.0), ("w3", 2.0)]
        assert pool.wait_time_total == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# run(until=ev) and step() around events dispatched in place
# ---------------------------------------------------------------------------
def _chain(env, log):
    """Timeout -> P returns (in place) -> W resumes (in place)."""

    def p(env):
        yield env.timeout(2.0)
        log.append(("P", env.now))
        return "p-done"

    def w(env, proc):
        value = yield proc
        log.append(("W", value))

    proc = env.process(p(env))
    env.process(w(env, proc))
    later = env.timeout(3.0)
    later.callbacks.append(lambda _ev: log.append(("late", env.now)))
    return proc


class TestRunUntilAndStep:
    def test_run_until_an_event_dispatched_in_place(self):
        env = Environment()
        log = []
        proc = _chain(env, log)
        assert env.run(until=proc) == "p-done"
        assert env.now == 2.0
        assert proc.processed
        # The process's waiter ran, as it would have after a heap pop; the
        # later event did not.
        assert log == [("P", 2.0), ("W", "p-done")]
        env.run()
        assert log[-1] == ("late", 3.0)

    def test_step_runs_the_waiters_of_in_place_events(self):
        env = Environment()
        log = []
        proc = _chain(env, log)
        env.step()  # P's first resume
        env.step()  # W's first resume
        seq = env._seq
        env.step()  # the 2.0 timeout: P returns and W resumes in place
        assert proc.processed
        assert log == [("P", 2.0), ("W", "p-done")]
        assert env._seq == seq  # the return took no sequence number
        assert env.queue_size == 1  # only the later timeout is left

    def test_in_place_return_takes_no_heap_entry(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)

        def parent(env):
            yield env.process(child(env))

        env.process(parent(env))
        env.run()
        # Two process starts and one timeout; both returns ran in place.
        assert env._seq == 3


# ---------------------------------------------------------------------------
# single-stage servers: crash mid-query, refusals
# ---------------------------------------------------------------------------
def _crash_mid_interaction(env, server, crash_at, **kwargs):
    """A client waits on one interaction that `server` crashes under."""
    request = make_request()
    outcome = {}

    def client(env):
        try:
            yield server.handle(request, **kwargs)
            outcome["ok"] = env.now
        except Interrupt as err:
            outcome["interrupt"] = (err.cause, env.now)

    def killer(env):
        yield env.timeout(crash_at)
        outcome["killed"] = server.crash("vm_crash fault")

    env.process(client(env))
    env.process(killer(env))
    env.run()
    return request, outcome


class TestSingleStageCrash:
    def test_mysql_crash_mid_query(self):
        env = Environment()
        db = MySQLServer(env, "mysql-1")
        request, outcome = _crash_mid_interaction(env, db, 0.5, demand=1.0)
        assert outcome == {"killed": 1, "interrupt": ("vm_crash fault", 0.5)}
        assert (db.arrivals, db.completions, db.failures, db.inflight) == (1, 0, 1, 0)
        # The orphaned query kept the CPU until t=1 but did not commit.
        assert db.cpu.completions == 1 and env.now == 1.0
        assert request.db_started == 1 and request.db_commits == 0
        assert db.arrivals == db.completions + db.failures + db.outstanding

    def test_cache_crash_mid_operation(self):
        env = Environment()
        node = CacheServer(env, "cache-1", capacity=8, op_demand=1.0)
        _request, outcome = _crash_mid_interaction(env, node, 0.25, op="put", key=5)
        assert outcome == {"killed": 1, "interrupt": ("vm_crash fault", 0.25)}
        assert (node.arrivals, node.completions, node.failures, node.inflight) == (1, 0, 1, 0)
        assert node.cpu.completions == 1 and env.now == 1.0
        assert node.insertions == 0 and node.entries == 0

    def test_crash_during_the_ingress_delay(self):
        env = Environment()
        db = MySQLServer(env, "mysql-1")
        db.ingress_latency = 1.0
        request, outcome = _crash_mid_interaction(env, db, 0.5, demand=1.0)
        assert outcome["interrupt"] == ("vm_crash fault", 0.5)
        assert (db.failures, db.completions, db.inflight) == (1, 0, 0)
        # Never admitted: no query started, no CPU job ran.
        assert request.db_started == 0 and db.cpu.completions == 0

    def test_guarded_retry_refuses_a_replay_after_db_started_moved(self):
        env = Environment()
        balancer = Balancer("haproxy-db")
        first, second = MySQLServer(env, "mysql-1"), MySQLServer(env, "mysql-2")
        balancer.add(first)
        balancer.add(second)
        balancer.install_policy(build_chain(
            [PolicyConfig("retry", "db", {"attempts": 3, "base_delay": 0.0})]
        ))
        request = make_request()
        outcome = {}

        def client(env):
            try:
                yield from balancer.dispatch(env, request, demand=1.0)
            except Interrupt as err:
                outcome["interrupt"] = err.cause

        def killer(env):
            yield env.timeout(0.5)
            first.crash("vm_crash fault")

        env.process(client(env))
        env.process(killer(env))
        env.run()
        assert outcome == {"interrupt": "vm_crash fault"}
        assert second.arrivals == 0  # no replay of the started query
        assert request.db_started == 1 and request.db_commits == 0

    def test_max_connections_refusal_reaches_the_caller(self):
        env = Environment()
        db = MySQLServer(env, "mysql-1", max_connections=1)
        errors = []
        requests = [make_request(), make_request()]

        def client(env, request):
            try:
                yield db.handle(request, demand=1.0)
            except CapacityError as err:
                errors.append((request.request_id, env.now, str(err)))

        for request in requests:
            env.process(client(env, request))
        env.run()
        assert len(errors) == 1
        assert errors[0][0] == requests[1].request_id and errors[0][1] == 0.0
        assert "max_connections" in errors[0][2]
        assert (db.arrivals, db.completions, db.failures) == (2, 1, 1)
        assert [r.db_started for r in requests] == [1, 0]
        assert [r.db_commits for r in requests] == [1, 0]

    def test_crashed_server_refuses_new_work(self):
        env = Environment()
        db = MySQLServer(env, "mysql-1")
        assert db.crash() == 0
        with pytest.raises(TopologyError):
            db.handle(make_request(), demand=1.0)


# ---------------------------------------------------------------------------
# events per completed request
# ---------------------------------------------------------------------------
class TestEventsPerRequest:
    #: Measured 10.9 on this scenario when in-place dispatch landed (28.2
    #: before).  A checkout, query or return that took the heap round trip
    #: again would add one or more events per request.
    CEILING = 12.0

    def test_events_per_completed_request_ceiling(self):
        from repro.scenario import Deployment, ScenarioSpec

        spec = ScenarioSpec(hardware="1/1/1", soft="1000/100/80", seed=1,
                            demand_scale=4.0, monitoring=False,
                            workload="rubbos", users=20, think_time=1.0,
                            duration=20.0)
        with Deployment(spec) as dep:
            dep.run()
        completed = dep.system.completed_count()
        assert completed > 200
        assert dep.env._seq / completed <= self.CEILING
