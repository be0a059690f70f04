"""Per-Tomcat global database connection pool (DBConnP) — a soft resource.

The paper modified RUBBoS so that *all servlets in one Tomcat share a single
global DB connection pool*, because that pool is what bounds the concurrency
of requests flowing into MySQL: with ``K`` Tomcats at ``C`` connections each,
at most ``K*C`` queries can be in service at the DB tier.  DCM's APP-agent
controls MySQL's request-processing concurrency *indirectly* by resizing
these upstream pools (Section IV-B, second mechanism).

Semantics mirror :class:`~repro.ntier.threadpool.ThreadPool` (FIFO admission,
runtime resize, lazy shrink) but the two are kept distinct types because
controllers reason about them differently and metrics label them separately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event
from repro.sim.resources import Acquire, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class ConnectionPool:
    """A Tomcat server's shared pool of connections to the DB tier."""

    def __init__(self, env: "Environment", size: int, name: str = "dbconnp") -> None:
        self.env = env
        self.name = name
        self._resource = Resource(env, size, name=name)
        self._checkouts = 0
        self._wait_time_total = 0.0

    # -- soft-resource control ---------------------------------------------------
    @property
    def size(self) -> int:
        """Current configured pool size."""
        return self._resource.capacity

    def resize(self, size: int) -> None:
        """Reconfigure the pool size on the fly (the APP-agent's knob)."""
        self._resource.resize(size)

    # -- usage ---------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Connections currently checked out (queries in flight downstream)."""
        return self._resource.in_use

    @property
    def queued(self) -> int:
        """Threads waiting for a free connection."""
        return self._resource.queue_length

    @property
    def checkouts(self) -> int:
        """Total connections ever granted."""
        return self._checkouts

    @property
    def wait_time_total(self) -> float:
        """Cumulative time threads spent waiting for a connection."""
        return self._wait_time_total

    def occupancy_integral(self) -> float:
        """Time integral of ``in_use``."""
        return self._resource.occupancy_integral()

    def checkout(self) -> Generator[Event, object, Acquire]:
        """Generator helper: ``conn = yield from pool.checkout()``.

        Like :meth:`ThreadPool.checkout`: a free connection may be granted
        in place, without yielding (see :meth:`Resource.claim`).
        """
        asked = self.env._now
        req = self._resource.claim()
        if req.callbacks is not None:  # not granted in place: wait for it
            try:
                yield req
            except BaseException:
                # Mirror ThreadPool.checkout: a crash interrupt landing
                # between the grant and our resume must not leak the
                # connection.
                if not req.cancel() and req.granted:
                    self._resource.release(req)
                raise
        self._checkouts += 1
        self._wait_time_total += self.env._now - asked
        return req

    def checkin(self, handle: Acquire) -> None:
        """Return a connection to the pool."""
        self._resource.release(handle)
