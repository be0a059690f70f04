"""Distributed cache tier: cache-aside lookups that bypass the db hop.

A memcached-style tier between Tomcat and MySQL.  Each HTTP request with a
key consults the cache once, before opening a db connection: a **hit**
skips the request's entire db-query loop (so the db tier's arrival rate
becomes ``(1 - hit_rate) * λ_app``), a **miss** runs the queries and
inserts the key, and a **write** runs its queries then invalidates the key
(cache-aside).  Because the db connection pool is never touched on a hit,
a warm cache relieves *soft-resource* pressure — fewer Tomcat threads
block on connections — which is what shifts DCM's effective S*(N) (see
:meth:`repro.model.service_time.ConcurrencyModel.with_cache_hit_rate`).

:class:`CacheServer` is a real :class:`~repro.ntier.server.TierServer`:
every get/put/delete is an accounted interaction with CPU demand under a
nearly-linear contention law (caches scale well, they are not free), so
monitoring, conservation checks and crash semantics all apply unchanged.
Each operation is one CPU burst, so a node is a
:class:`~repro.ntier.server.SingleStageServer` (callbacks, not processes).
:class:`CacheTier` spreads keys over the nodes with the same
consistent-hash ring the db shards use.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List

from repro.errors import ConfigurationError
from repro.ntier.contention import ContentionModel
from repro.ntier.server import SingleStageServer
from repro.ntier.sharding import ConsistentHashRing
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.request import Request
    from repro.sim.core import Environment

#: Ground-truth contention for cache nodes: almost flat — a key/value store
#: has no lock convoys to speak of, so concurrency inflates service time
#: only mildly (no thrash term).  Scale-free, like the other tiers' laws.
CACHE_CONTENTION = ContentionModel(s0=1.0e-4, alpha=1.0e-7, beta=2.0e-9)


@dataclass(frozen=True)
class CacheSpec:
    """Configuration of the cache tier (``ScenarioSpec.cache``, schema v4).

    ``capacity`` and ``ttl`` are per node; ``ttl = 0`` disables expiry.
    ``op_demand`` is the single-threaded CPU seconds per cache operation.
    ``keys`` / ``zipf`` describe the keyed workload (shared with
    ``ShardingSpec`` when both tiers are configured — the two must agree).
    """

    servers: int = 1
    capacity: int = 4096
    ttl: float = 0.0
    op_demand: float = 5.0e-5
    keys: int = 10000
    zipf: float = 1.1

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ConfigurationError(f"cache needs >= 1 server, got {self.servers}")
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")
        if self.ttl < 0:
            raise ConfigurationError(f"ttl must be >= 0 (0 = no expiry), got {self.ttl}")
        if self.op_demand <= 0:
            raise ConfigurationError(f"op_demand must be > 0, got {self.op_demand}")
        if self.keys < 1:
            raise ConfigurationError(f"keys must be >= 1, got {self.keys}")
        if self.zipf < 0:
            raise ConfigurationError(f"zipf exponent must be >= 0, got {self.zipf}")

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "servers": self.servers,
            "capacity": self.capacity,
            "ttl": self.ttl,
            "op_demand": self.op_demand,
            "keys": self.keys,
            "zipf": self.zipf,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "CacheSpec":
        return cls(**obj)


#: Operations a cache node serves.
CACHE_OPS = ("get", "put", "delete")


class CacheServer(SingleStageServer):
    """One cache node: an LRU store with optional TTL expiry.

    Only *presence* is stored (the simulator models load, not data): an
    entry maps key -> expiry time.  Each operation is one accounted
    interaction whose CPU demand runs under :data:`CACHE_CONTENTION`.
    """

    tier = "cache"

    def __init__(
        self,
        env: "Environment",
        name: str,
        capacity: int,
        ttl: float = 0.0,
        op_demand: float = 5.0e-5,
        contention: ContentionModel = CACHE_CONTENTION,
    ) -> None:
        super().__init__(env, name, contention)
        self.capacity = int(capacity)
        self.ttl = float(ttl)
        self.op_demand = float(op_demand)
        self._store: "OrderedDict[int, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def _admit(self, request: "Request", kwargs: Dict[str, Any]) -> float:
        # No admission pool: a cache node serves every operation directly
        # (concurrency pressure shows up as CPU contention, not queueing).
        op = kwargs.get("op", "get")
        if op not in CACHE_OPS:
            raise ConfigurationError(f"unknown cache op {op!r}")
        return self.op_demand

    def _commit(self, request: "Request", kwargs: Dict[str, Any]) -> None:
        op = kwargs.get("op", "get")
        key = kwargs.get("key", 0)
        if op == "get":
            expiry = self._store.get(key)
            if expiry is not None and expiry < self.env._now:
                del self._store[key]
                self.expirations += 1
                expiry = None
            if expiry is None:
                self.misses += 1
            else:
                self._store.move_to_end(key)
                self.hits += 1
                out = kwargs.get("out")
                if out is not None:
                    out.append(key)
        elif op == "put":
            self._store[key] = (
                self.env._now + self.ttl if self.ttl > 0 else float("inf")
            )
            self._store.move_to_end(key)
            self.insertions += 1
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1
        elif self._store.pop(key, None) is not None:  # op == "delete"
            self.invalidations += 1

    @property
    def entries(self) -> int:
        """Entries currently stored (including not-yet-collected expired ones)."""
        return len(self._store)

    def hit_rate(self) -> float:
        """Lifetime hit rate of this node (0.0 before any lookup)."""
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def snapshot(self) -> dict:
        """Extend the base counters with cache statistics."""
        snap = super().snapshot()
        snap.update(
            {
                "cache_hits": float(self.hits),
                "cache_misses": float(self.misses),
                "cache_entries": float(self.entries),
                "cache_evictions": float(self.evictions),
                "cache_expirations": float(self.expirations),
            }
        )
        return snap


class CacheTier:
    """The cache nodes plus key->node placement (consistent hashing).

    Tomcat servers call the generator methods with ``yield from`` inside
    their own request flow, so cache time is part of the request's app-tier
    residence — exactly where a blocking memcached call sits.
    """

    def __init__(self, env: "Environment", spec: CacheSpec, nodes: List[CacheServer]) -> None:
        if len(nodes) != spec.servers:
            raise ConfigurationError(
                f"cache tier built with {len(nodes)} nodes, spec says {spec.servers}"
            )
        self.env = env
        self.spec = spec
        self.nodes = list(nodes)
        self._ring = ConsistentHashRing()
        for idx in range(len(self.nodes)):
            self._ring.add_node(idx)

    def node_for(self, key: int) -> CacheServer:
        """The node owning ``key``."""
        return self.nodes[self._ring.lookup(key)]

    # -- request-flow operations (generators; drive with ``yield from``) -----
    def lookup(self, request: "Request") -> Generator[Event, Any, bool]:
        """Consult the cache for ``request.key``; returns True on a hit."""
        out: list = []
        yield self.node_for(request.key).handle(
            request, op="get", key=request.key, out=out
        )
        return bool(out)

    def insert(self, request: "Request") -> Generator[Event, Any, None]:
        """Populate ``request.key`` after a miss served from the db."""
        yield self.node_for(request.key).handle(
            request, op="put", key=request.key
        )

    def invalidate(self, request: "Request") -> Generator[Event, Any, None]:
        """Drop ``request.key`` after a write (cache-aside invalidation)."""
        yield self.node_for(request.key).handle(
            request, op="delete", key=request.key
        )

    # -- statistics -----------------------------------------------------------
    def hit_rate(self) -> float:
        """Tier-wide lifetime hit rate (0.0 before any lookup)."""
        hits = sum(n.hits for n in self.nodes)
        looked = hits + sum(n.misses for n in self.nodes)
        return hits / looked if looked else 0.0

    def stats(self) -> Dict[str, float]:
        """Aggregate cache counters across the tier."""
        return {
            "hits": float(sum(n.hits for n in self.nodes)),
            "misses": float(sum(n.misses for n in self.nodes)),
            "hit_rate": self.hit_rate(),
            "entries": float(sum(n.entries for n in self.nodes)),
            "evictions": float(sum(n.evictions for n in self.nodes)),
            "expirations": float(sum(n.expirations for n in self.nodes)),
            "invalidations": float(sum(n.invalidations for n in self.nodes)),
        }
