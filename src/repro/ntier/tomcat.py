"""Tomcat application server model.

The concurrency battleground of the paper.  Two soft resources live here:

* the **thread pool** (``maxThreads``, the paper's ``#A_T``) — bounds how
  many requests this Tomcat processes concurrently.  DCM controls Tomcat's
  request-processing concurrency by resizing this pool directly
  (Section IV-B, first mechanism);
* the **global DB connection pool** (``#A_C``) — bounds how many of this
  Tomcat's queries can be in flight at MySQL.  DCM controls *MySQL's*
  concurrency by resizing this upstream pool (second mechanism).

A request holds its Tomcat thread for its whole stay — including while it
blocks on the connection pool and on MySQL.  That coupling is what makes the
paper's pathology systemic: a slow MySQL captures Tomcat threads, the thread
pool exhausts, and queueing cascades back to Apache.  Only threads actually
executing servlet code occupy the CPU and contribute to its contention level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.ntier.balancer import Balancer
from repro.ntier.connpool import ConnectionPool
from repro.ntier.contention import TOMCAT_CONTENTION, ContentionModel
from repro.ntier.request import Request
from repro.ntier.server import TierServer
from repro.ntier.threadpool import ThreadPool
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.cache import CacheTier
    from repro.sim.core import Environment

#: Fraction of a servlet's Tomcat CPU demand executed before its DB queries
#: (business logic & query construction); the rest renders the response.
_PRE_QUERY_SPLIT = 0.6


class TomcatServer(TierServer):
    """One Tomcat instance with its two soft-resource pools."""

    tier = "app"

    def __init__(
        self,
        env: "Environment",
        name: str,
        db_balancer: Balancer,
        threads: int = 100,
        db_connections: int = 80,
        contention: ContentionModel = TOMCAT_CONTENTION,
        cache: "Optional[CacheTier]" = None,
    ) -> None:
        super().__init__(env, name, contention)
        self.threads = ThreadPool(env, threads, name=f"{name}.threads")
        self.db_pool = ConnectionPool(env, db_connections, name=f"{name}.dbconnp")
        self.db_balancer = db_balancer
        #: Cache-aside tier consulted before the db-query loop (``None`` in
        #: cacheless deployments — that path is event-identical to the
        #: pre-cache servers, which the golden digests pin).
        self.cache = cache

    def _process(
        self, request: Request, started_holder: list, **kwargs: Any
    ) -> Generator[Event, Any, None]:
        thread = yield from self.threads.checkout()
        try:
            # Inside the try so no statement can slip between obtaining the
            # thread and the finally that returns it.
            started_holder[0] = self.env._now
            demand = request.demand.tomcat
            yield self.cpu.execute(demand * _PRE_QUERY_SPLIT)
            use_cache = self.cache is not None and request.key is not None
            hit = False
            if use_cache and not request.is_write:
                hit = yield from self.cache.lookup(request)
            if not hit:
                # A hit bypasses the whole app→db hop: no connection is
                # checked out and no query dispatched, so the db tier sees
                # only the miss fraction of the HTTP arrival rate.
                balancer = self.db_balancer
                for query_demand in request.demand.db_queries:
                    conn = yield from self.db_pool.checkout()
                    try:
                        if balancer.chain is None:  # dispatch is pick + handle
                            yield balancer.pick_for(request).handle(
                                request, demand=query_demand
                            )
                        else:
                            yield from balancer.dispatch(
                                self.env, request, demand=query_demand
                            )
                    finally:
                        self.db_pool.checkin(conn)
                if use_cache:
                    if request.is_write:
                        yield from self.cache.invalidate(request)
                    else:
                        yield from self.cache.insert(request)
            yield self.cpu.execute(demand * (1.0 - _PRE_QUERY_SPLIT))
        finally:
            self.threads.checkin(thread)

    def snapshot(self) -> dict:
        """Extend the base counters with both pools' statistics."""
        snap = super().snapshot()
        snap.update(
            {
                "pool_size": float(self.threads.size),
                "pool_busy": float(self.threads.busy),
                "pool_queued": float(self.threads.queued),
                "pool_occupancy_integral": self.threads.occupancy_integral(),
                "pool_wait_total": self.threads.wait_time_total,
                "dbconnp_size": float(self.db_pool.size),
                "dbconnp_in_use": float(self.db_pool.in_use),
                "dbconnp_queued": float(self.db_pool.queued),
                "dbconnp_occupancy_integral": self.db_pool.occupancy_integral(),
                "dbconnp_wait_total": self.db_pool.wait_time_total,
            }
        )
        return snap
