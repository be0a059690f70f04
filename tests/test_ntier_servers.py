"""Tests for Apache/Tomcat/MySQL servers, balancer, and topology wiring."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.ntier import (
    Balancer,
    HardwareConfig,
    NTierSystem,
    SoftResourceConfig,
)
from repro.sim import Environment, RandomStreams
from repro.workload import browse_only_catalog


def make_system(
    hardware=HardwareConfig(1, 1, 1),
    soft=SoftResourceConfig.DEFAULT,
    seed=1,
    distribution="deterministic",
    imbalance=0.0,
):
    env = Environment()
    streams = RandomStreams(seed)
    system = NTierSystem(
        env,
        streams,
        hardware=hardware,
        soft=soft,
        catalog=browse_only_catalog(demand_distribution=distribution),
        imbalance=imbalance,
    )
    return env, system


class TestSingleRequestFlow:
    def test_request_completes_and_is_logged(self):
        env, system = make_system()
        request, done = system.submit()
        env.run(until=done)
        assert not request.failed
        assert request.completed is not None
        assert request.response_time > 0
        assert system.completed_count() == 1
        assert system.submitted == 1

    def test_every_tier_sees_the_request(self):
        env, system = make_system()
        request, done = system.submit()
        request.enable_tracing()
        env.run(until=done)
        tiers = [i.tier for i in request.interactions]
        assert tiers[0] == "web"
        assert tiers[1] == "app"
        assert tiers.count("db") == request.servlet.db_queries
        for interaction in request.interactions:
            assert interaction.completed >= interaction.started >= interaction.arrived

    def test_single_request_response_time_is_sum_of_demands_plus_queueing(self):
        env, system = make_system()
        request, done = system.submit()
        env.run(until=done)
        d = request.demand
        # Alone in the system: no queueing, concurrency 1 everywhere, but the
        # db sees one query at a time => phi == 1 at every tier.
        assert request.response_time == pytest.approx(
            d.apache + d.tomcat + d.db_total, rel=1e-6
        )

    def test_servlet_selection_honours_name(self):
        env, system = make_system()
        request, done = system.submit(servlet_name="ViewStory")
        env.run(until=done)
        assert request.servlet.name == "ViewStory"
        with pytest.raises(ConfigurationError):
            system.submit(servlet_name="NoSuchServlet")

    def test_counters_on_all_servers(self):
        env, system = make_system()
        _, done = system.submit()
        env.run(until=done)
        apache = system.tier_servers("web")[0]
        tomcat = system.tier_servers("app")[0]
        mysql = system.tier_servers("db")[0]
        assert apache.completions == 1
        assert tomcat.completions == 1
        assert mysql.completions >= 1  # one per query
        assert apache.outstanding == tomcat.outstanding == mysql.outstanding == 0


class TestConcurrencyBounds:
    def test_tomcat_thread_pool_bounds_cpu_concurrency(self):
        env, system = make_system(soft=SoftResourceConfig(1000, 4, 80))
        tomcat = system.tier_servers("app")[0]
        for _ in range(50):
            system.submit()
        env.run(until=0.02)
        assert tomcat.threads.busy <= 4
        assert tomcat.cpu.active_jobs <= 4
        assert tomcat.threads.queued > 0

    def test_db_connection_pool_bounds_mysql_concurrency(self):
        env, system = make_system(soft=SoftResourceConfig(1000, 200, 5))
        mysql = system.tier_servers("db")[0]
        seen = []

        def sampler(env):
            while True:
                seen.append(mysql.active_queries)
                yield env.timeout(0.0005)

        for _ in range(100):
            system.submit()
        env.process(sampler(env))
        env.run(until=0.5)
        assert max(seen) <= 5

    def test_two_tomcats_double_the_db_concurrency_cap(self):
        env, system = make_system(
            hardware=HardwareConfig(1, 2, 1), soft=SoftResourceConfig(1000, 100, 80)
        )
        assert system.max_db_concurrency() == 160

    def test_resize_thread_pool_on_the_fly(self):
        env, system = make_system(soft=SoftResourceConfig(1000, 2, 80))
        tomcat = system.tier_servers("app")[0]
        for _ in range(30):
            system.submit()
        env.run(until=0.05)
        assert tomcat.threads.busy == 2
        tomcat.threads.resize(10)
        env.run(until=0.0501)
        assert tomcat.threads.busy > 2

    def test_apply_soft_config_resizes_every_server(self):
        env, system = make_system(hardware=HardwareConfig(1, 2, 1))
        system.apply_soft_config(SoftResourceConfig(500, 20, 18))
        for tomcat in system.tier_servers("app"):
            assert tomcat.threads.size == 20
            assert tomcat.db_pool.size == 18
        assert system.tier_servers("web")[0].threads.size == 500
        assert system.max_db_concurrency() == 36


class TestBalancer:
    def _server_stub(self, name, outstanding=0, accepting=True):
        class Stub:
            pass

        s = Stub()
        s.name = name
        s.outstanding = outstanding
        s.accepting = accepting
        return s

    def test_round_robin_cycles(self):
        b = Balancer("b", policy="round_robin")
        servers = [self._server_stub(f"s{i}") for i in range(3)]
        for s in servers:
            b.add(s)
        picks = [b.pick().name for _ in range(6)]
        assert sorted(set(picks)) == ["s0", "s1", "s2"]
        assert picks[:3] == picks[3:]

    def test_round_robin_starts_at_backend_zero(self):
        b = Balancer("b", policy="round_robin")
        servers = [self._server_stub(f"s{i}") for i in range(3)]
        for s in servers:
            b.add(s)
        assert [b.pick().name for _ in range(4)] == ["s0", "s1", "s2", "s0"]

    @pytest.mark.parametrize("k,n", [(2, 7), (3, 4), (3, 8), (4, 10)])
    def test_round_robin_exact_fairness(self, k, n):
        # N picks over K static backends land exactly ceil(N/K) on the first
        # N % K backends (registration order) and floor(N/K) on the rest.
        b = Balancer("b", policy="round_robin")
        servers = [self._server_stub(f"s{i}") for i in range(k)]
        for s in servers:
            b.add(s)
        counts = {s.name: 0 for s in servers}
        for _ in range(n):
            counts[b.pick().name] += 1
        ceil_n, extras = -(-n // k), n % k
        expected = [ceil_n] * extras + [n // k] * (k - extras)
        assert [counts[f"s{i}"] for i in range(k)] == expected

    def test_round_robin_reanchors_on_membership_churn(self):
        b = Balancer("b", policy="round_robin")
        servers = [self._server_stub(f"s{i}") for i in range(3)]
        for s in servers:
            b.add(s)
        assert b.pick().name == "s0"
        # s0 drains right after being picked; the rotation must continue
        # with s0's successor instead of re-deriving a position from a
        # modulo over the now-shorter candidate list.
        servers[0].accepting = False
        assert [b.pick().name for _ in range(4)] == ["s1", "s2", "s1", "s2"]
        # s0 comes back: the rotation resumes from the last pick (s2), so
        # s0 is next and nobody is double-picked.
        servers[0].accepting = True
        assert [b.pick().name for _ in range(3)] == ["s0", "s1", "s2"]

    def test_least_conn_prefers_idle(self):
        b = Balancer("b", policy="least_conn")
        busy = self._server_stub("busy", outstanding=10)
        idle = self._server_stub("idle", outstanding=0)
        b.add(busy)
        b.add(idle)
        assert b.pick().name == "idle"

    def test_draining_backend_not_picked(self):
        b = Balancer("b", policy="round_robin")
        up = self._server_stub("up")
        down = self._server_stub("down", accepting=False)
        b.add(up)
        b.add(down)
        assert all(b.pick().name == "up" for _ in range(5))
        assert b.size == 1
        assert len(b.backends) == 2

    def test_no_backend_raises(self):
        b = Balancer("b")
        with pytest.raises(TopologyError):
            b.pick()

    def test_duplicate_add_and_bad_remove_raise(self):
        b = Balancer("b")
        s = self._server_stub("s")
        b.add(s)
        with pytest.raises(TopologyError):
            b.add(s)
        b.remove(s)
        with pytest.raises(TopologyError):
            b.remove(s)

    def test_invalid_policy_and_imbalance(self):
        with pytest.raises(ConfigurationError):
            Balancer("b", policy="magic")
        with pytest.raises(ConfigurationError):
            Balancer("b", imbalance=1.5)


class TestScalingOperations:
    def test_add_tomcat_uses_current_soft_defaults(self):
        env, system = make_system()
        new = system.add_tomcat()
        assert new.threads.size == system.soft.tomcat_threads
        assert new.db_pool.size == system.soft.db_connections
        assert len(system.tier_servers("app")) == 2

    def test_add_tomcat_with_overrides(self):
        env, system = make_system()
        new = system.add_tomcat(threads=20, db_connections=18)
        assert new.threads.size == 20
        assert new.db_pool.size == 18

    def test_drain_fires_after_outstanding_complete(self):
        env, system = make_system(soft=SoftResourceConfig(1000, 2, 80))
        tomcat = system.tier_servers("app")[0]
        system.add_tomcat()
        for _ in range(10):
            system.submit()
        env.run(until=0.01)
        assert tomcat.outstanding > 0
        drained = system.drain(tomcat)
        assert not tomcat.accepting
        env.run(until=drained)
        assert tomcat.outstanding == 0
        system.remove(tomcat)
        assert tomcat not in system.tier_servers("app")

    def test_drain_idle_server_fires_immediately(self):
        env, system = make_system()
        extra = system.add_tomcat()
        drained = system.drain(extra)
        env.run(until=1.0)
        assert drained.processed

    def test_requests_fail_when_no_tomcat_accepting(self):
        env, system = make_system()
        tomcat = system.tier_servers("app")[0]
        system.drain(tomcat)
        request, done = system.submit()
        env.run(until=done)
        assert request.failed
        assert "no backend" in request.failure_reason
        assert len(system.failure_log) == 1

    def test_hardware_property_reflects_scaling(self):
        env, system = make_system()
        assert str(system.hardware) == "1/1/1"
        system.add_tomcat()
        system.add_mysql()
        assert str(system.hardware) == "1/2/2"


class TestMultiServerBehaviour:
    def test_least_conn_spreads_load_between_tomcats(self):
        env, system = make_system(hardware=HardwareConfig(1, 2, 1))
        for _ in range(200):
            system.submit()
        env.run(until=20.0)
        t1, t2 = system.tier_servers("app")
        assert t1.completions > 50
        assert t2.completions > 50

    def test_two_mysql_servers_split_queries(self):
        env, system = make_system(hardware=HardwareConfig(1, 1, 2))
        for _ in range(200):
            system.submit()
        env.run(until=20.0)
        m1, m2 = system.tier_servers("db")
        assert m1.completions > 20
        assert m2.completions > 20


class TestCrashAtAdmission:
    def test_crash_at_the_admission_instant_books_one_failure(self):
        # Tomcat admits the interaction, then crashes in the same instant,
        # before the interaction's process first resumes: its body never
        # runs, so the crash itself must book the failure.
        env, system = make_system()
        request, _done = system.submit()
        tomcat = system.tier_servers("app")[0]
        while tomcat.arrivals < 1:
            env.step()
        assert tomcat.crash("probe") == 1
        env.run()
        assert request.failed
        assert request.failure_reason == "Interrupt: probe"
        assert (tomcat.arrivals, tomcat.completions, tomcat.failures) == (1, 0, 1)
        assert tomcat.outstanding == 0 and tomcat.inflight == 0
        assert tomcat.crash("again") == 0  # pruned: nothing left to kill
        tomcat.begin_drain()
        assert tomcat.drained_event().triggered
