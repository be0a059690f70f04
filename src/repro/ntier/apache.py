"""Apache web server model.

The entry tier: terminates client HTTP connections on a worker-thread pool
(the paper's ``#W_T``, default 1000), does lightweight request/response
shuffling on its CPU, and forwards each request to the application tier
through the app balancer (mod_jk/AJP in the paper).  In the paper's
browse-only experiments the single Apache at 1000 threads is never the
bottleneck — but the pool still matters: when downstream tiers melt down,
outstanding requests pile up here and response times explode, which is the
visible symptom in Fig 5(b).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.ntier.balancer import Balancer
from repro.ntier.contention import APACHE_CONTENTION, ContentionModel
from repro.ntier.request import Request
from repro.ntier.server import TierServer
from repro.ntier.threadpool import ThreadPool
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Fraction of an Apache request's CPU demand spent before forwarding
#: downstream (parsing, routing); the rest is response assembly.
_FORWARD_SPLIT = 0.7


class ApacheServer(TierServer):
    """One Apache httpd instance."""

    tier = "web"

    def __init__(
        self,
        env: "Environment",
        name: str,
        app_balancer: Balancer,
        threads: int = 1000,
        contention: ContentionModel = APACHE_CONTENTION,
    ) -> None:
        super().__init__(env, name, contention)
        self.threads = ThreadPool(env, threads, name=f"{name}.threads")
        self.app_balancer = app_balancer

    def _process(
        self, request: Request, started_holder: list, **kwargs: Any
    ) -> Generator[Event, Any, None]:
        thread = yield from self.threads.checkout()
        try:
            # Inside the try so no statement can slip between obtaining the
            # thread and the finally that returns it.
            started_holder[0] = self.env._now
            demand = request.demand.apache
            yield self.cpu.execute(demand * _FORWARD_SPLIT)
            balancer = self.app_balancer
            if balancer.chain is None:  # dispatch is pick + handle
                yield balancer.pick_for(request).handle(request)
            else:
                yield from balancer.dispatch(self.env, request)
            yield self.cpu.execute(demand * (1.0 - _FORWARD_SPLIT))
        finally:
            self.threads.checkin(thread)

    def snapshot(self) -> dict:
        """Extend the base counters with worker-pool statistics."""
        snap = super().snapshot()
        snap.update(
            {
                "pool_size": float(self.threads.size),
                "pool_busy": float(self.threads.busy),
                "pool_queued": float(self.threads.queued),
                "pool_occupancy_integral": self.threads.occupancy_integral(),
                "pool_wait_total": self.threads.wait_time_total,
            }
        )
        return snap
