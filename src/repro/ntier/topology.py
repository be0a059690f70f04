"""n-tier system assembly and runtime scaling operations.

:class:`NTierSystem` wires client traffic → Apache tier → (app balancer) →
Tomcat tier → (db balancer) → MySQL tier, following the paper's ``#W/#A/#D``
topologies (Fig 1(c)), and exposes the runtime operations the actuators
drive: add/drain/remove servers in the app and db tiers, and resize soft
resources on live servers.

The system object is deliberately ignorant of *policies* — controllers
(:mod:`repro.control`) decide when to scale; the workload generators
(:mod:`repro.workload`) decide what to submit.  It also keeps the request
log used by the analysis layer: ``(created, response_time)`` per completed
request plus failure timestamps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    RequestShed,
    TopologyError,
)
from repro.ntier.apache import ApacheServer
from repro.ntier.balancer import Balancer
from repro.ntier.cache import CacheServer, CacheSpec, CacheTier
from repro.ntier.contention import (
    APACHE_CONTENTION,
    MYSQL_CONTENTION,
    TOMCAT_CONTENTION,
    ContentionModel,
)
from repro.ntier.mysql import MySQLServer
from repro.ntier.request import Request
from repro.ntier.sharding import ShardingSpec, ShardRouter
from repro.ntier.softconfig import HardwareConfig, SoftResourceConfig
from repro.ntier.tomcat import TomcatServer
from repro.sim.events import Event, Process
from repro.sim.rng import BlockDraws, RandomStreams
from repro.workload.keys import ZipfKeySampler
from repro.workload.servlets import ServletCatalog, browse_only_catalog

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.actuators import ControlEvent
    from repro.sim.core import Environment

TIERS = ("web", "app", "db")


class NTierSystem:
    """A running n-tier deployment with runtime scaling hooks.

    Parameters
    ----------
    env:
        Simulation environment.
    streams:
        Named random streams (``workload.mix``, ``balancer.app`` ...).
    hardware:
        Initial ``#W/#A/#D`` server counts.
    soft:
        Initial soft-resource allocation applied to every server.
    catalog:
        Servlet catalogue; defaults to the calibrated browse-only mix.
    balancer_policy / imbalance:
        Passed to the app- and db-tier balancers; ``imbalance`` produces the
        sub-linear multi-server scaling behind the paper's γ.
    cache / sharding:
        Optional stateful-tier configurations.  ``cache`` inserts a
        cache-aside tier between Tomcat and MySQL; ``sharding`` replaces the
        multi-master db balancer with a :class:`ShardRouter` (the db tier
        then holds ``shards * (1 + replicas)`` servers and ``hardware.db``
        is superseded).  Either one makes the workload *keyed* (a seeded
        Zipf stream assigns ``request.key``).  Both ``None`` reproduces the
        historical construction sequence bit-for-bit.
    """

    def __init__(
        self,
        env: "Environment",
        streams: Optional[RandomStreams] = None,
        hardware: HardwareConfig = HardwareConfig(1, 1, 1),
        soft: SoftResourceConfig = SoftResourceConfig.DEFAULT,
        catalog: Optional[ServletCatalog] = None,
        balancer_policy: str = "least_conn",
        imbalance: float = 0.05,
        apache_contention: ContentionModel = APACHE_CONTENTION,
        tomcat_contention: ContentionModel = TOMCAT_CONTENTION,
        mysql_contention: ContentionModel = MYSQL_CONTENTION,
        cache: Optional[CacheSpec] = None,
        sharding: Optional[ShardingSpec] = None,
    ) -> None:
        for tier, count in (
            ("web", hardware.web), ("app", hardware.app), ("db", hardware.db)
        ):
            # HardwareConfig itself allows zero (the live `hardware` property
            # reports outages truthfully); an *initial* topology cannot.
            if count < 1:
                raise ConfigurationError(
                    f"initial {tier} tier needs >= 1 server, got {count}"
                )
        self.env = env
        self.streams = streams or RandomStreams(0)
        # submit() is the only consumer of these two streams, so it may read
        # them a block at a time (see BlockDraws).
        self._mix_draws = BlockDraws(self.streams.stream("workload.mix"), "uniform")
        self._demand_draws = BlockDraws(
            self.streams.stream("workload.demand"), "exponential"
        )
        self.soft = soft
        self.catalog = catalog or browse_only_catalog()
        self.cache_spec = cache
        self.sharding = sharding
        self._contention = {
            "web": apache_contention,
            "app": tomcat_contention,
            "db": mysql_contention,
        }

        self.web_balancer = Balancer(
            "lb-web", policy="round_robin", rng=self.streams.stream("balancer.web")
        )
        self.app_balancer = Balancer(
            "lb-app",
            policy=balancer_policy,
            imbalance=imbalance,
            rng=self.streams.stream("balancer.app"),
        )
        if sharding is None:
            self.db_balancer: Balancer = Balancer(
                "lb-db",
                policy=balancer_policy,
                imbalance=imbalance,
                rng=self.streams.stream("balancer.db"),
            )
        else:
            self.db_balancer = ShardRouter(
                "lb-db",
                sharding,
                policy=balancer_policy,
                imbalance=imbalance,
                rng=self.streams.stream("balancer.db"),
                shard_stream=lambda sid: self.streams.stream(
                    f"balancer.db.shard-{sid}"
                ),
            )

        # Keyed workloads: either stateful tier implies a key per request,
        # drawn from its own named stream so keyless digests never move.
        self._key_sampler: Optional[ZipfKeySampler] = None
        if cache is not None or sharding is not None:
            kspec = cache if cache is not None else sharding
            if (
                cache is not None
                and sharding is not None
                and (cache.keys, cache.zipf) != (sharding.keys, sharding.zipf)
            ):
                raise ConfigurationError(
                    "cache and sharding describe different keyed workloads: "
                    f"keys/zipf {cache.keys}/{cache.zipf} vs "
                    f"{sharding.keys}/{sharding.zipf}"
                )
            self._key_sampler = ZipfKeySampler(
                kspec.keys, kspec.zipf, self.streams.stream("workload.keys")
            )

        self._counters = {"web": 0, "app": 0, "db": 0, "cache": 0}
        # Request accounting for the analysis layer.
        self.request_log: List[Tuple[float, float]] = []
        self.failure_log: List[float] = []
        self.shed_log: List[float] = []
        # Every controller decision and agent action, in order (written by
        # repro.control.actuators.log_control).
        self.control_log: List["ControlEvent"] = []
        self.submitted = 0
        self._inflight = 0
        # Optional capture of every Request object, enabled by the audit's
        # conservation-under-failure checks (off by default: it pins memory).
        self.audit_requests: Optional[List[Request]] = None
        # Servers deregistered at runtime (crash or scale-in) — kept so
        # conservation audits can still sum their counters.
        self.removed_servers: List = []

        # Cache tier first: Tomcats hold a reference to it at construction.
        self.cache: Optional[CacheTier] = None
        if cache is not None:
            nodes = [
                CacheServer(
                    env,
                    self._next_name("cache"),
                    capacity=cache.capacity,
                    ttl=cache.ttl,
                    op_demand=cache.op_demand,
                )
                for _ in range(cache.servers)
            ]
            self.cache = CacheTier(env, cache, nodes)

        if sharding is None:
            for _ in range(hardware.db):
                self.add_mysql()
        else:
            # hardware.db is superseded: the sharded tier's size is fixed by
            # its own geometry, one primary plus N replicas per shard.
            for sid in range(sharding.shards):
                self.add_mysql(role="primary", shard=sid)
                for _ in range(sharding.replicas):
                    self.add_mysql(role="replica", shard=sid)
        for _ in range(hardware.app):
            self.add_tomcat()
        for _ in range(hardware.web):
            self.add_apache()

    # -- construction helpers -----------------------------------------------------
    def _next_name(self, tier: str) -> str:
        self._counters[tier] += 1
        prefix = {"web": "apache", "app": "tomcat", "db": "mysql", "cache": "cache"}[tier]
        return f"{prefix}-{self._counters[tier]}"

    def add_apache(self, threads: Optional[int] = None) -> ApacheServer:
        """Create and register a new Apache server (web tier)."""
        server = ApacheServer(
            self.env,
            self._next_name("web"),
            app_balancer=self.app_balancer,
            threads=threads if threads is not None else self.soft.apache_threads,
            contention=self._contention["web"],
        )
        self.web_balancer.add(server)
        return server

    def add_tomcat(
        self,
        threads: Optional[int] = None,
        db_connections: Optional[int] = None,
    ) -> TomcatServer:
        """Create and register a new Tomcat server (app tier).

        Defaults to the system's current soft configuration — exactly the
        paper's hardware-only failure mode, where a new Tomcat arrives with
        the default connection pool and doubles MySQL's concurrency cap.
        """
        server = TomcatServer(
            self.env,
            self._next_name("app"),
            db_balancer=self.db_balancer,
            threads=threads if threads is not None else self.soft.tomcat_threads,
            db_connections=(
                db_connections if db_connections is not None else self.soft.db_connections
            ),
            contention=self._contention["app"],
            cache=self.cache,
        )
        self.app_balancer.add(server)
        return server

    def add_mysql(
        self,
        max_connections: Optional[int] = None,
        role: str = "standalone",
        shard: Optional[int] = None,
    ) -> MySQLServer:
        """Create and register a new MySQL server (db tier).

        Defaults the connection cap to the system's current soft config (so
        resized caps carry over to scale-out servers).  ``role`` / ``shard``
        matter only behind a :class:`ShardRouter`; a server joining a
        sharded tier without them becomes a replica of the hottest shard.
        """
        server = MySQLServer(
            self.env,
            self._next_name("db"),
            max_connections=(
                max_connections
                if max_connections is not None
                else self.soft.max_connections
            ),
            contention=self._contention["db"],
            role=role,
            shard=shard,
        )
        self.db_balancer.add(server)
        return server

    # -- tier access -----------------------------------------------------------------
    def balancer(self, tier: str) -> Balancer:
        """The balancer in front of ``tier``."""
        try:
            return {"web": self.web_balancer, "app": self.app_balancer, "db": self.db_balancer}[tier]
        except KeyError:
            raise TopologyError(f"unknown tier {tier!r}; pick from {TIERS}") from None

    def tier_servers(self, tier: str) -> list:
        """All registered servers of ``tier`` (including draining ones)."""
        return list(self.balancer(tier).backends)

    def active_servers(self, tier: str) -> list:
        """Servers of ``tier`` currently accepting work."""
        return self.balancer(tier).eligible()

    def all_servers(self) -> list:
        """Every registered server across all tiers (cache nodes included)."""
        servers = [s for tier in TIERS for s in self.tier_servers(tier)]
        if self.cache is not None:
            servers.extend(self.cache.nodes)
        return servers

    @property
    def hardware(self) -> HardwareConfig:
        """Current accepting-server counts as a ``#W/#A/#D`` config.

        Counts are reported *truthfully*: a full-tier outage shows as 0, not
        a clamped 1 — controllers dividing load by a phantom server computed
        per-server demand with the wrong denominator (and the allocation
        planner now rejects zero-server topologies explicitly).
        """
        return HardwareConfig(
            len(self.active_servers("web")),
            len(self.active_servers("app")),
            len(self.active_servers("db")),
        )

    def visit_ratios(self) -> Dict[str, float]:
        """The paper's V_m per tier for this system's servlet mix — what the
        model estimator needs to convert HTTP throughput to per-tier visits.

        With a cache tier, db visits shrink to the *measured* miss fraction:
        ``V_db = (1 - hit_rate) * V_db_catalog`` (0 hits recorded means the
        catalogue ratio, so a cold system matches the cacheless one)."""
        ratios = self.catalog.visit_ratios()
        if self.cache is not None:
            ratios["db"] *= max(0.0, 1.0 - self.cache.hit_rate())
        return ratios

    # -- scaling operations (used by actuators) -----------------------------------------
    def drain(self, server) -> Event:
        """Begin draining ``server``; returns the drained event."""
        server.begin_drain()
        return server.drained_event()

    def remove(self, server) -> None:
        """Deregister a (drained or crashed) server from its tier balancer."""
        self.balancer(server.tier).remove(server)
        self.removed_servers.append(server)

    def apply_soft_config(self, soft: SoftResourceConfig) -> None:
        """Resize every live server's pools to ``soft`` (APP-agent bulk op).

        The db tier is resized too: leaving ``max_connections`` at its
        construction-time value silently capped any db-side allocation
        larger than the cap — the soft config now carries it end to end.
        """
        self.soft = soft
        for server in self.tier_servers("web"):
            server.threads.resize(soft.apache_threads)
        for server in self.tier_servers("app"):
            server.threads.resize(soft.tomcat_threads)
            server.db_pool.resize(soft.db_connections)
        for server in self.tier_servers("db"):
            server.set_max_connections(soft.max_connections)

    # -- request entry point ----------------------------------------------------------
    def submit(self, servlet_name: Optional[str] = None) -> Tuple[Request, Event]:
        """Create one HTTP request and drive it through the system.

        Returns the request object and an event that fires when the request
        completes (successfully or not — inspect ``request.failed``).
        """
        catalog = self.catalog
        if servlet_name is None:
            servlet = catalog.draw(self._mix_draws)
        else:
            servlet = catalog[servlet_name]
        demand = servlet.draw_demand(self._demand_draws, catalog.demand_distribution)
        if self._key_sampler is not None:
            key: Optional[int] = self._key_sampler.sample()
            is_write = servlet.category == "write"
        else:
            key, is_write = None, False
        env = self.env
        request = Request(
            servlet=servlet,
            created=env._now,
            demand=demand,
            key=key,
            is_write=is_write,
        )
        self.submitted += 1
        if self.audit_requests is not None:
            self.audit_requests.append(request)
        done = Process(env, self._drive(request))
        return request, done

    def _drive(self, request: Request):
        self._inflight += 1
        env = self.env
        balancer = self.web_balancer
        try:
            try:
                # Without a resilience chain, dispatch is pick + handle:
                # yield the backend's event directly (no generator layer).
                if balancer.chain is None:
                    yield balancer.pick_for(request).handle(request)
                else:
                    yield from balancer.dispatch(env, request)
            except RequestShed as err:  # admission control refused it: accounted
                request.failed = True
                request.failure_reason = f"{type(err).__name__}: {err}"
                self.shed_log.append(env._now)
                return request
            except InvariantViolation:
                # Sanitizer findings must surface, never be filed away as
                # "request failed" — a swallowed violation turns a broken
                # conservation ledger into a plausible-looking run.
                raise
            except Exception as err:  # failed request: record, do not crash the client
                request.failed = True
                request.failure_reason = f"{type(err).__name__}: {err}"
                self.failure_log.append(env._now)
                return request
            request.completed = env._now
            self.request_log.append(
                (request.created, request.completed - request.created)
            )
            return request
        finally:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Client requests currently inside the system (submitted, unresolved)."""
        return self._inflight

    # -- quick stats ---------------------------------------------------------------------
    def completed_count(self) -> int:
        """Number of successfully completed requests so far."""
        return len(self.request_log)

    def db_concurrency(self) -> int:
        """Total queries in service across the DB tier (paper's key metric)."""
        return sum(s.active_queries for s in self.tier_servers("db"))

    def max_db_concurrency(self) -> int:
        """Upper bound on DB concurrency from the live Tomcat conn pools."""
        return sum(s.db_pool.size for s in self.active_servers("app"))
