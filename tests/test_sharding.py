"""The sharded db tier: ring, router, failover, faults, and spec plumbing.

The consistent-hash ring must be deterministic across processes (no
salted ``hash()``), the router must send writes to primaries and spread
reads over shard members, failover must keep every shard writable while
it has an accepting member, and the v4 scenario schema must round-trip
with older payloads still accepted.
"""

import json

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.faults import ShardPrimaryCrash, fault_from_json_obj
from repro.ntier import (
    CacheSpec,
    ConsistentHashRing,
    NTierSystem,
    ShardRouter,
    ShardingSpec,
)
from repro.ntier.request import DemandProfile, Request
from repro.scenario import Deployment, ScenarioSpec
from repro.sim import Environment, RandomStreams


def _request(key, is_write=False):
    return Request(
        servlet=None,
        created=0.0,
        demand=DemandProfile(apache=1e-5, tomcat=1e-5, db_queries=(1e-5,)),
        key=key,
        is_write=is_write,
    )


class _StubMySQL:
    """Minimal stand-in for a MySQLServer behind a ShardRouter."""

    def __init__(self, name, role="standalone", shard=None):
        self.name = name
        self.role = role
        self.shard = shard
        self.accepting = True
        self.outstanding = 0
        self.arrivals = 0
        self.completions = 0
        self.failures = 0


def _router(spec=None, **kwargs):
    spec = spec or ShardingSpec(shards=2, replicas=1)
    router = ShardRouter("lb-db", spec, **kwargs)
    servers = []
    n = 1
    for sid in range(spec.shards):
        for role in ["primary"] + ["replica"] * spec.replicas:
            server = _StubMySQL(f"mysql-{n}", role=role, shard=sid)
            router.add(server)
            servers.append(server)
            n += 1
    return router, servers


class TestConsistentHashRing:
    def test_lookup_is_deterministic_and_total(self):
        ring = ConsistentHashRing(virtual_nodes=32)
        for node in range(4):
            ring.add_node(node)
        owners = {key: ring.lookup(key) for key in range(2000)}
        assert owners == {key: ring.lookup(key) for key in range(2000)}
        assert set(owners.values()) == {0, 1, 2, 3}

    def test_virtual_nodes_flatten_the_split(self):
        ring = ConsistentHashRing(virtual_nodes=128)
        for node in range(4):
            ring.add_node(node)
        counts = {node: 0 for node in range(4)}
        for key in range(8000):
            counts[ring.lookup(key)] += 1
        # Uniform would be 2000 each; virtual nodes keep the spread sane.
        assert min(counts.values()) > 800
        assert max(counts.values()) < 3600

    def test_remove_node_folds_keys_into_survivors(self):
        ring = ConsistentHashRing(virtual_nodes=32)
        for node in range(3):
            ring.add_node(node)
        before = {key: ring.lookup(key) for key in range(1000)}
        ring.remove_node(2)
        after = {key: ring.lookup(key) for key in range(1000)}
        moved = [key for key in before if before[key] != after[key]]
        # Only keys owned by the removed node move (consistency property).
        assert all(before[key] == 2 for key in moved)
        assert set(after.values()) <= {0, 1}

    def test_membership_errors(self):
        ring = ConsistentHashRing()
        ring.add_node(0)
        with pytest.raises(ConfigurationError):
            ring.add_node(0)
        with pytest.raises(ConfigurationError):
            ring.remove_node(5)
        ring.remove_node(0)
        with pytest.raises(TopologyError):
            ring.lookup(1)


class TestShardRouter:
    def test_writes_go_to_the_owning_primary(self):
        router, _servers = _router()
        for key in range(100):
            chosen = router.pick_for(_request(key, is_write=True))
            shard = router.shard_for_key(key)
            assert chosen is shard.primary

    def test_reads_spread_over_shard_members(self):
        router, _servers = _router()
        picked = {}
        for key in range(400):
            chosen = router.pick_for(_request(key))
            chosen.outstanding += 1  # hold the query open: least_conn spreads
            sid = router.ring.lookup(key)
            picked.setdefault(sid, set()).add(chosen.name)
            assert chosen.shard == sid
        for sid, names in picked.items():
            assert len(names) == 2, f"shard {sid} reads stuck on {names}"

    def test_routed_counters_conserve_dispatches(self):
        router, _servers = _router()
        for key in range(300):
            router.pick_for(_request(key, is_write=bool(key % 5 == 0)))
        stats = router.shard_stats()
        assert sum(st["routed"] for st in stats.values()) == router.dispatches

    def test_write_to_primaryless_shard_fails(self):
        spec = ShardingSpec(shards=2, replicas=0)
        router, servers = _router(spec)
        victim = router.shard(0).primary
        victim.accepting = False
        key = next(k for k in range(100) if router.ring.lookup(k) == 0)
        with pytest.raises(TopologyError):
            router.pick_for(_request(key, is_write=True))

    def test_remove_primary_promotes_replica(self):
        router, _servers = _router()
        old = router.shard(0).primary
        replica = router.shard(0).replicas[0]
        router.remove(old)
        assert router.shard(0).primary is replica
        assert replica.role == "primary"
        assert old in router.shard(0).retired

    def test_promote_skips_non_accepting_replicas(self):
        spec = ShardingSpec(shards=1, replicas=2)
        router, servers = _router(spec)
        shard = router.shard(0)
        shard.replicas[0].accepting = False
        survivor = shard.replicas[1]
        router.remove(shard.primary)
        assert shard.primary is survivor

    def test_unassigned_server_joins_hottest_shard_as_replica(self):
        router, _servers = _router()
        hot = next(k for k in range(100) if router.ring.lookup(k) == 1)
        for _ in range(10):
            router.pick_for(_request(hot))
        joiner = _StubMySQL("mysql-99")
        router.add(joiner)
        assert joiner.shard == router.hottest_shard() == 1
        assert joiner.role == "replica"
        assert joiner in router.shard(1).replicas

    def test_duplicate_primary_rejected_and_rolled_back(self):
        router, _servers = _router()
        usurper = _StubMySQL("mysql-98", role="primary", shard=0)
        with pytest.raises(TopologyError):
            router.add(usurper)
        # The rollback keeps the router's backend list consistent.
        assert usurper not in router.eligible()

    def test_keyless_requests_fall_back_to_request_id(self):
        router, _servers = _router()
        request = _request(None)
        chosen = router.pick_for(request)
        assert chosen.shard == router.ring.lookup(request.request_id)
        assert router.dispatches == 1


class TestSystemTopology:
    def test_sharded_layout_supersedes_hardware_db_count(self):
        env = Environment()
        system = NTierSystem(
            env, RandomStreams(1), sharding=ShardingSpec(shards=3, replicas=2)
        )
        db = system.tier_servers("db")
        assert len(db) == 9
        assert [s.role for s in db].count("primary") == 3
        assert [s.role for s in db].count("replica") == 6
        assert system.hardware.db == 9

    def test_key_population_must_agree(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            NTierSystem(
                env,
                RandomStreams(1),
                cache=CacheSpec(keys=100),
                sharding=ShardingSpec(keys=200),
            )

    def test_end_to_end_conservation(self):
        # Two inputs, run with the sanitizer armed (tests/conftest.py): a
        # bare sharded system fed 200 open submissions, and a stateful
        # deployment whose closed-loop users read through a cache-aside
        # tier and write 15 % of the time.
        for system in (self._open_submissions(), self._stateful_deployment()):
            for sid, st in system.db_balancer.shard_stats().items():
                assert st["routed"] == st["arrivals"], (sid, st)
                assert st["routed"] == st["completed"] + st["failed"], (sid, st)

    @staticmethod
    def _open_submissions():
        env = Environment()
        system = NTierSystem(
            env, RandomStreams(5), sharding=ShardingSpec(shards=2, replicas=1)
        )
        for _ in range(200):
            system.submit()
        env.run(until=60.0)
        assert system.completed_count() == 200
        return system

    @staticmethod
    def _stateful_deployment():
        spec = ScenarioSpec(
            hardware="1/2/1",
            seed=0,
            demand_scale=0.5,
            monitoring=False,
            workload="rubbos",
            users=20,
            think_time=1.0,
            duration=10.0,
            cache=CacheSpec(),
            sharding=ShardingSpec(shards=2, replicas=1),
            write_fraction=0.15,
        )
        with Deployment(spec) as dep:
            dep.run()
        # Settle in-flight closed-loop requests so the books can balance.
        dep.env.run(until=dep.env.now + 30.0)
        system = dep.system
        assert system.completed_count() > 0
        assert system.cache.hit_rate() > 0.0
        assert sum(
            s.completions for s in system.tier_servers("db")
            if s.role == "primary"
        ) > 0, "no queries reached a shard primary"
        return system


class TestShardPrimaryCrashFault:
    def test_json_roundtrip(self):
        fault = ShardPrimaryCrash(at=5.0, shard=1)
        assert fault_from_json_obj(fault.to_json_obj()) == fault

    def test_crash_promotes_replica(self):
        spec = ScenarioSpec(
            hardware="1/1/1",
            seed=2,
            monitoring=False,
            workload="rubbos",
            users=20,
            think_time=1.0,
            duration=20.0,
            sharding=ShardingSpec(shards=2, replicas=1),
            faults=(ShardPrimaryCrash(at=4.0, shard=0),),
        )
        with Deployment(spec) as dep:
            dep.run()
        shard = dep.system.db_balancer.shard(0)
        assert shard.primary is not None
        assert shard.primary.name == "mysql-2"
        assert [e for e in dep.injector.log if "promoted mysql-2" in e.detail]

    def test_noop_on_unsharded_tier(self):
        spec = ScenarioSpec(
            monitoring=False,
            workload="rubbos",
            users=5,
            duration=6.0,
            faults=(ShardPrimaryCrash(at=1.0, shard=0),),
        )
        with Deployment(spec) as dep:
            dep.run()
        assert [e for e in dep.injector.log if "unsharded" in e.detail]


class TestSchemaV4:
    def test_roundtrip_with_stateful_tiers(self):
        spec = ScenarioSpec(
            cache=CacheSpec(capacity=512),
            sharding=ShardingSpec(shards=3),
            write_fraction=0.2,
            workload="rubbos",
            users=10,
            duration=5.0,
        )
        text = spec.to_json()
        assert json.loads(text)["schema"] == "repro-scenario/5"
        assert ScenarioSpec.from_json(text) == spec
        # The same payload as written under v4 (no warmup) still loads.
        obj = json.loads(text)
        obj["schema"] = "repro-scenario/4"
        del obj["warmup"]
        assert ScenarioSpec.from_json_obj(obj) == spec

    def test_v3_payloads_still_accepted(self):
        spec = ScenarioSpec(workload="rubbos", users=10, duration=5.0)
        obj = spec.to_json_obj()
        obj["schema"] = "repro-scenario/3"
        for field in ("cache", "sharding", "write_fraction"):
            obj.pop(field, None)
        decoded = ScenarioSpec.from_json_obj(obj)
        assert decoded == spec
        assert decoded.cache is None and decoded.sharding is None

    def test_key_population_mismatch_rejected_at_spec(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                cache=CacheSpec(zipf=0.8),
                sharding=ShardingSpec(zipf=1.2),
            )

    def test_write_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(write_fraction=1.5)

    def test_dict_payloads_coerced(self):
        spec = ScenarioSpec(
            cache={"servers": 1, "capacity": 64, "ttl": 0.0,
                   "op_demand": 5e-05, "keys": 10000, "zipf": 1.1},
            sharding={"shards": 2, "replicas": 1, "virtual_nodes": 64,
                      "keys": 10000, "zipf": 1.1},
        )
        assert isinstance(spec.cache, CacheSpec)
        assert isinstance(spec.sharding, ShardingSpec)


class TestRingMemo:
    def test_memoized_lookups_follow_membership_changes(self):
        ring = ConsistentHashRing(virtual_nodes=16)
        for node in range(3):
            ring.add_node(node)
        keys = range(600)
        assert [ring.lookup(k) for k in keys] == [ring.locate(k) for k in keys]
        ring.remove_node(1)
        assert [ring.lookup(k) for k in keys] == [ring.locate(k) for k in keys]
        assert 1 not in {ring.lookup(k) for k in keys}
        ring.add_node(7)
        assert [ring.lookup(k) for k in keys] == [ring.locate(k) for k in keys]
        assert 7 in {ring.lookup(k) for k in keys}

    def test_memo_is_bounded_by_the_keyspace(self):
        router, _servers = _router()
        for i in range(300):
            router.pick_for(_request(i % 40))
        assert len(router.ring._memo) == 40
        # Keyless requests hash their request id, which never repeats: the
        # memo must not grow with them.
        for _ in range(300):
            router.pick_for(_request(None))
        assert len(router.ring._memo) == 40
