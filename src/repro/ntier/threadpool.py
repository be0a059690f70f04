"""Resizable server thread pool (STP) — a soft resource.

A thin domain wrapper over :class:`repro.sim.resources.Resource` adding the
wait-time accounting that the monitoring agent reports.  The APP-agent
resizes these pools at runtime ("adjusting the STP size", Section IV-B);
growth admits queued requests immediately, shrinkage drains lazily, matching
live reconfiguration of Tomcat's ``maxThreads``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event
from repro.sim.resources import Acquire, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class ThreadPool:
    """A server's worker-thread pool.

    Parameters
    ----------
    env:
        Owning environment.
    size:
        Initial ``maxThreads``.
    name:
        Label used in metrics and logs.
    """

    def __init__(self, env: "Environment", size: int, name: str = "threads") -> None:
        self.env = env
        self.name = name
        self._resource = Resource(env, size, name=name)
        self._acquisitions = 0
        self._wait_time_total = 0.0

    # -- soft-resource control -------------------------------------------------
    @property
    def size(self) -> int:
        """Current configured pool size."""
        return self._resource.capacity

    def resize(self, size: int) -> None:
        """Reconfigure the pool size on the fly (the APP-agent's knob)."""
        self._resource.resize(size)

    # -- usage -------------------------------------------------------------------
    @property
    def busy(self) -> int:
        """Threads currently checked out."""
        return self._resource.in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a thread."""
        return self._resource.queue_length

    @property
    def acquisitions(self) -> int:
        """Total threads ever granted (for rate metrics)."""
        return self._acquisitions

    @property
    def wait_time_total(self) -> float:
        """Cumulative time requests spent queued for a thread."""
        return self._wait_time_total

    def occupancy_integral(self) -> float:
        """Time integral of ``busy`` (for time-averaged occupancy)."""
        return self._resource.occupancy_integral()

    def checkout(self) -> Generator[Event, object, Acquire]:
        """Generator helper: ``thread = yield from pool.checkout()``.

        Accounts queueing delay; the caller must later call
        :meth:`checkin` with the returned handle.  A free thread whose grant
        would be the next event dispatched is granted in place and the
        helper returns without yielding (see :meth:`Resource.claim`).
        """
        asked = self.env._now
        req = self._resource.claim()
        if req.callbacks is not None:  # not granted in place: wait for it
            try:
                yield req
            except BaseException:
                # The waiting process died at the yield (crash interrupt,
                # kernel shutdown): withdraw a still-queued request, or give
                # back a slot that was granted in the same timestep but never
                # resumed us — cancel() returns False exactly when the grant
                # already happened.
                if not req.cancel() and req.granted:
                    self._resource.release(req)
                raise
        self._acquisitions += 1
        self._wait_time_total += self.env._now - asked
        return req

    def acquire(self) -> Acquire:
        """Low-level acquire (no wait accounting); see :meth:`checkout`."""
        return self._resource.acquire()

    def checkin(self, handle: Acquire) -> None:
        """Return a thread to the pool."""
        self._resource.release(handle)
