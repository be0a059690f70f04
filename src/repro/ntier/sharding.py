"""Sharded + replicated MySQL tier: consistent hashing and read/write routing.

The paper's db tier is multi-master — every MySQL accepts every query, and
the balancer spreads load evenly.  Real deployments at scale shard: a
consistent-hash ring maps each request *key* to one shard, each shard being
a primary plus N read replicas.  Load is then only as balanced as the key
popularity is flat; a Zipf-skewed keyspace concentrates traffic on a hot
shard, which is exactly the regime where DCM's per-server concurrency caps
(S*(N) knees) and hardware-only scaling diverge (see
``benchmarks/bench_skewed_shards.py``).

Components:

* :class:`ShardingSpec` — frozen, JSON-round-tripping configuration carried
  by ``ScenarioSpec.sharding`` (schema v4).
* :class:`ConsistentHashRing` — hashlib-based ring with virtual nodes
  (salted ``hash()`` would break cross-process determinism).
* :class:`ShardRouter` — a drop-in :class:`~repro.ntier.balancer.Balancer`
  for the db tier.  ``pick_for(request)`` maps ``request.key`` to a shard,
  sends writes to the shard primary and reads through a per-shard balancer
  (own named random stream, so unsharded digests never move).  Per-shard
  ``routed`` counters plus member server counters give the
  ``shard_conservation`` audit its ledger.

Scale-out servers joining without a shard assignment (the VM-agent's
``add_mysql()``) become replicas of the *hottest* shard — the only
reinforcement that helps under skew.  Primary failover is explicit:
:meth:`ShardRouter.promote` elevates the first accepting replica (used by
the ``shard_primary_crash`` fault).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.ntier.balancer import Balancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.mysql import MySQLServer
    from repro.ntier.request import Request


@dataclass(frozen=True)
class ShardingSpec:
    """Configuration of the sharded db tier.

    ``keys`` / ``zipf`` describe the keyed workload driving the ring (shared
    with the cache tier when both are configured — the two must agree).
    When sharding is set, the db tier holds ``shards * (1 + replicas)``
    servers; the scenario's ``hardware`` db count is superseded.
    """

    shards: int = 2
    replicas: int = 1
    virtual_nodes: int = 64
    keys: int = 10000
    zipf: float = 1.1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 0:
            raise ConfigurationError(f"replicas must be >= 0, got {self.replicas}")
        if self.virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )
        if self.keys < 1:
            raise ConfigurationError(f"keys must be >= 1, got {self.keys}")
        if self.zipf < 0:
            raise ConfigurationError(f"zipf exponent must be >= 0, got {self.zipf}")

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "virtual_nodes": self.virtual_nodes,
            "keys": self.keys,
            "zipf": self.zipf,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ShardingSpec":
        return cls(**obj)


def _ring_hash(text: str) -> int:
    """Stable 64-bit ring position (Python's ``hash()`` is salted per run)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """A consistent-hash ring over integer shard ids with virtual nodes.

    Each shard contributes ``virtual_nodes`` points; a key lands on the
    first point clockwise from its own hash.  Virtual nodes keep the
    per-shard keyspace share close to uniform, so residual skew comes from
    key *popularity*, not from ring geometry.

    :meth:`lookup` memoizes key -> node until the membership changes, so
    the memo holds at most one entry per key of the (finite) keyspace;
    :meth:`locate` hashes every time, for unbounded ids such as request ids.
    """

    def __init__(self, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = virtual_nodes
        self._points: List[tuple] = []  # sorted (hash, shard_id)
        self._nodes: set = set()
        self._memo: Dict[int, int] = {}  # key -> node; cleared on add/remove

    def add_node(self, node: int) -> None:
        """Add a shard's virtual nodes to the ring."""
        if node in self._nodes:
            raise ConfigurationError(f"shard {node} already on the ring")
        self._nodes.add(node)
        self._memo.clear()
        for v in range(self.virtual_nodes):
            insort(self._points, (_ring_hash(f"shard-{node}#{v}"), node))

    def remove_node(self, node: int) -> None:
        """Remove a shard's virtual nodes (its keyspace folds into neighbours)."""
        if node not in self._nodes:
            raise ConfigurationError(f"shard {node} is not on the ring")
        self._nodes.discard(node)
        self._memo.clear()
        self._points = [(h, n) for h, n in self._points if n != node]

    def lookup(self, key: int) -> int:
        """The shard owning ``key`` (memoized: keys must come from a
        bounded keyspace)."""
        node = self._memo.get(key)
        if node is None:
            node = self._memo[key] = self.locate(key)
        return node

    def locate(self, key: int) -> int:
        """The shard owning ``key``, hashed afresh (nothing is memoized)."""
        if not self._points:
            raise TopologyError("consistent-hash ring has no nodes")
        h = _ring_hash(f"key:{key}")
        idx = bisect_right(self._points, (h, float("inf")))
        if idx == len(self._points):
            idx = 0  # wrap past the highest point
        return self._points[idx][1]

    def nodes(self) -> List[int]:
        """Shard ids currently on the ring, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class Shard:
    """One shard: a primary, its read replicas, and its routing ledger."""

    def __init__(self, index: int, balancer: Balancer) -> None:
        self.index = index
        #: Read-routing balancer over the shard's accepting members.
        self.balancer = balancer
        self.primary: Optional["MySQLServer"] = None
        self.replicas: List["MySQLServer"] = []
        #: Members deregistered at runtime (crash / scale-in); their counters
        #: still belong to this shard's conservation ledger.
        self.retired: List["MySQLServer"] = []
        #: Queries the router sent into this shard (each one arrives at a
        #: member server — the conservation audit checks exactly that).
        self.routed = 0

    def members(self) -> List["MySQLServer"]:
        """Live members, primary first."""
        out: List["MySQLServer"] = []
        if self.primary is not None:
            out.append(self.primary)
        out.extend(self.replicas)
        return out

    def stats(self) -> Dict[str, Any]:
        """Conservation ledger: routed vs member-server counters."""
        everyone = self.members() + self.retired
        completed = sum(s.completions for s in everyone)
        failed = sum(s.failures for s in everyone)
        arrivals = sum(s.arrivals for s in everyone)
        return {
            "routed": self.routed,
            "arrivals": arrivals,
            "completed": completed,
            "failed": failed,
            "inflight": arrivals - completed - failed,
            "servers": [s.name for s in everyone],
            "primary": None if self.primary is None else self.primary.name,
        }


class ShardRouter(Balancer):
    """Key-aware db-tier balancer: consistent hashing + per-shard routing.

    A drop-in replacement for the db :class:`Balancer` — membership
    (``add``/``remove``), draining, partitions and resilience chains all
    work unchanged, but ``pick_for(request)`` routes by ``request.key``:
    writes to the shard primary, reads through the shard's own balancer.
    Requests without a key (keyless workloads against a sharded tier) fall
    back to hashing the request id, which spreads them uniformly.

    ``shard_stream`` supplies each per-shard balancer's random generator
    (named streams like ``balancer.db.shard-0``), keeping draws independent
    of the unsharded ``balancer.db`` stream.
    """

    def __init__(
        self,
        name: str,
        spec: ShardingSpec,
        policy: str = "least_conn",
        imbalance: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        shard_stream: Optional[Callable[[int], np.random.Generator]] = None,
    ) -> None:
        super().__init__(name, policy=policy, imbalance=imbalance, rng=rng)
        self.spec = spec
        self.ring = ConsistentHashRing(spec.virtual_nodes)
        self._shards: Dict[int, Shard] = {}
        for sid in range(spec.shards):
            sub_rng = shard_stream(sid) if shard_stream is not None else rng
            sub = Balancer(
                f"{name}.shard-{sid}",
                policy=policy,
                imbalance=imbalance,
                rng=sub_rng,
            )
            self._shards[sid] = Shard(sid, sub)
            self.ring.add_node(sid)

    # -- shard access -----------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of shards (fixed for the lifetime of the router)."""
        return len(self._shards)

    def shard(self, sid: int) -> Shard:
        """The shard with index ``sid``."""
        try:
            return self._shards[sid]
        except KeyError:
            raise TopologyError(
                f"{self.name}: no shard {sid} (have 0..{len(self._shards) - 1})"
            ) from None

    def shard_for_key(self, key: int) -> Shard:
        """The shard owning ``key`` on the ring."""
        return self._shards[self.ring.lookup(key)]

    def hottest_shard(self) -> int:
        """The shard that has routed the most queries (ties: lowest id)."""
        return max(self._shards, key=lambda sid: (self._shards[sid].routed, -sid))

    def shard_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-shard conservation ledgers, by shard id."""
        return {sid: shard.stats() for sid, shard in sorted(self._shards.items())}

    # -- membership ---------------------------------------------------------------
    def add(self, server: "MySQLServer") -> None:
        """Register a db server, assigning it to its shard.

        Servers carrying an explicit ``shard`` join that shard with their
        declared ``role``; unassigned servers (the VM-agent's generic
        scale-out) become replicas of the hottest shard.
        """
        super().add(server)
        sid = getattr(server, "shard", None)
        role = getattr(server, "role", "standalone")
        if sid is None:
            sid = self.hottest_shard()
            server.shard = sid
            role = "replica"
            server.role = role
        shard = self.shard(sid)
        if role == "primary":
            if shard.primary is not None:
                super().remove(server)
                raise TopologyError(
                    f"{self.name}: shard {sid} already has primary "
                    f"{shard.primary.name}"
                )
            shard.primary = server
        else:
            if role != "replica":
                server.role = "replica"
            shard.replicas.append(server)
        shard.balancer.add(server)

    def remove(self, server: "MySQLServer") -> None:
        """Deregister a db server; its counters stay on the shard's ledger.

        Removing a primary immediately fails over to the first accepting
        replica — graceful scale-in must not leave a shard unable to take
        writes while it still has members.
        """
        super().remove(server)
        shard = self.shard(server.shard)
        if shard.primary is server:
            shard.primary = None
            self.promote(server.shard)
        elif server in shard.replicas:
            shard.replicas.remove(server)
        shard.balancer.remove(server)
        shard.retired.append(server)

    def promote(self, sid: int) -> Optional["MySQLServer"]:
        """Primary failover: elevate the first accepting replica of ``sid``.

        Returns the promoted server, or ``None`` when the shard has no
        accepting replica (writes to it keep failing until one joins).
        """
        shard = self.shard(sid)
        if shard.primary is not None:
            return shard.primary
        for replica in shard.replicas:
            if replica.accepting:
                shard.replicas.remove(replica)
                replica.role = "primary"
                shard.primary = replica
                return replica
        return None

    # -- routing --------------------------------------------------------------------
    def pick_for(self, request: "Request") -> "MySQLServer":
        """Route one query: ring lookup, then primary (write) or replica
        balancer (read).  Raises :class:`TopologyError` when the owning
        shard cannot serve the query — a *sharded* tier fails partially,
        unlike the all-or-nothing plain balancer."""
        if self._partitioned:
            raise TopologyError(f"{self.name}: no backend available")
        key = request.key
        # Keyless requests hash their (unbounded) request id: not memoized,
        # or the memo would gain one entry per request.
        sid = (self.ring.locate(request.request_id) if key is None
               else self.ring.lookup(key))
        shard = self._shards[sid]
        if request.is_write:
            primary = shard.primary
            if primary is None or not primary.accepting:
                raise TopologyError(
                    f"{self.name}: shard {sid} has no accepting primary"
                )
            chosen = primary
        else:
            try:
                chosen = shard.balancer.pick()
            except TopologyError:
                raise TopologyError(
                    f"{self.name}: shard {sid} has no accepting member"
                ) from None
        self._dispatches += 1
        shard.routed += 1
        return chosen
