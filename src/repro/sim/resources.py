"""Shared-resource primitive: the counted semaphore.

:class:`Resource` is the building block for thread pools and connection
pools: a counted semaphore with a FIFO wait queue whose capacity can be
changed *at runtime* (the key requirement for the paper's APP-agent, which
resizes pools on the fly).  Growing the capacity immediately admits queued
waiters; shrinking takes effect lazily as in-flight holders release — exactly
how Tomcat's ``maxThreads`` behaves when lowered on a live server.

:meth:`Resource.claim` is the pool-checkout fast path: a caller that yields
the acquisition at once gets a free slot granted *in place* — no grant
event goes through the heap and the caller continues without yielding —
whenever the grant would have been the next event dispatched anyway (the
in-place dispatch rule of :mod:`repro.sim.core`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.check import config as _checks
from repro.errors import ConfigurationError, InvariantViolation, SimulationError
from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Cached :func:`repro.check.config.enabled`; re-resolved whenever the
#: sanitizer switch changes, so acquire/release pay one global load, not a
#: function call, when the checks are disarmed.
_POOL_CHECK = False


def _refresh_check_flags() -> None:
    global _POOL_CHECK
    _POOL_CHECK = _checks.enabled()


_checks.subscribe(_refresh_check_flags)


class Acquire(Event):
    """Pending acquisition of one resource slot.

    Yielded by processes; fires when the slot is granted.  Queued (not yet
    granted) acquisitions may be cancelled with :meth:`cancel`, which is how
    admission timeouts are implemented.
    """

    __slots__ = ("resource", "granted")

    def __init__(self, env: "Environment", resource: "Resource") -> None:
        # Inline Event.__init__: one of these is allocated per pool
        # admission, i.e. per simulated request per tier.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = 0  # PENDING
        self.resource = resource
        self.granted = False

    def cancel(self) -> bool:
        """Withdraw a *queued* acquisition.  Idempotent.

        Returns ``True`` if the acquisition was still queued and has been
        removed; ``False`` if there was nothing to withdraw — it had already
        been granted (in which case the caller still owns a slot and must
        release it), already been cancelled, or already been released.
        """
        if self.granted or self._state != PENDING:
            # Granted (currently holding a slot), or no longer pending:
            # a granted-then-released or failed acquisition.
            return False
        return self.resource._withdraw(self)


class Resource:
    """A counted semaphore with FIFO queueing and runtime resizing.

    Parameters
    ----------
    env:
        The owning simulation environment.
    capacity:
        Initial number of concurrently grantable slots (>= 1).
    name:
        Optional label used in reprs and error messages.
    """

    def __init__(self, env: "Environment", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ConfigurationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = int(capacity)
        self._in_use = 0
        self._queue: Deque[Acquire] = deque()
        # Lifetime grant/release ledger; the sanitizer cross-checks it
        # against ``in_use`` (see repro.check.sanitizer.audit_resource).
        self._grants_total = 0
        self._releases_total = 0
        # Time-weighted occupancy accounting for monitoring.
        self._occupancy_integral = 0.0
        self._last_change = env.now

    def __repr__(self) -> str:
        return (
            f"<Resource {self._label()} {self._in_use}/{self._capacity}"
            f" queued={len(self._queue)}>"
        )

    def _label(self) -> str:
        return self.name or f"{id(self):#x}"

    # -- introspection ------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Current slot capacity."""
        return self._capacity

    @property
    def in_use(self) -> int:
        """Number of currently granted slots (may exceed capacity briefly
        after a shrink, until holders release)."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of immediately grantable slots."""
        return max(0, self._capacity - self._in_use)

    @property
    def queue_length(self) -> int:
        """Number of acquisitions waiting in the FIFO queue."""
        return len(self._queue)

    @property
    def grants_total(self) -> int:
        """Slots ever granted over the resource's lifetime."""
        return self._grants_total

    @property
    def releases_total(self) -> int:
        """Slots ever released over the resource's lifetime."""
        return self._releases_total

    def occupancy_integral(self) -> float:
        """Integral of ``in_use`` over time (for time-averaged occupancy)."""
        return self._occupancy_integral + self._in_use * (self.env.now - self._last_change)

    # -- operations ---------------------------------------------------------
    def acquire(self) -> Acquire:
        """Request one slot; returns an event that fires when granted."""
        req = Acquire(self.env, self)
        if self._in_use < self._capacity:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def claim(self) -> Acquire:
        """Request one slot for a caller that yields the result at once.

        When a slot is free, nothing is queued at the current instant and
        the loop is running a lone callback, the grant would be the next
        event dispatched and its only waiter the caller: the slot is granted
        in place and the returned acquisition is already processed
        (``callbacks is None``), so the caller continues without yielding.
        Otherwise this is :meth:`acquire`.
        """
        env = self.env
        heap = env._heap
        if (self._in_use < self._capacity and env._lone
                and (not heap or heap[0][0] > env._now)):
            req = Acquire(env, self)
            self._take(req)
            req._value = req
            req._state = PROCESSED
            req.callbacks = None
            return req
        return self.acquire()

    def release(self, req: Acquire) -> None:
        """Return the slot held by ``req`` and admit the next waiter."""
        if not req.granted:
            raise SimulationError("release() of an acquisition that was never granted")
        if _POOL_CHECK and req.resource is not self:
            raise InvariantViolation(
                f"resource:{self._label()}",
                "foreign-handle-release", self.env.now,
                f"handle was issued by {req.resource.name or 'another resource'!r}",
            )
        req.granted = False
        now = self.env._now
        self._occupancy_integral += self._in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use = self._in_use - 1
        self._releases_total += 1
        if _POOL_CHECK and (
            in_use < 0 or self._grants_total - self._releases_total != in_use
        ):
            raise InvariantViolation(
                f"resource:{self._label()}",
                "acquire-release-pairing", self.env.now,
                f"grants={self._grants_total} releases={self._releases_total} "
                f"but in_use={in_use}",
            )
        if self._queue and in_use < self._capacity:
            self._admit()

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime.

        Growth admits queued waiters immediately; shrinkage never revokes
        granted slots — the resource drains down to the new capacity as
        holders release.
        """
        if capacity < 1:
            raise ConfigurationError(f"resource capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._admit()

    # -- internals ----------------------------------------------------------
    def _grant(self, req: Acquire) -> None:
        self._take(req)
        req.succeed(req)

    def _take(self, req: Acquire) -> None:
        """Book one slot for ``req`` (the accounting half of a grant)."""
        now = self.env._now
        self._occupancy_integral += self._in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use = self._in_use + 1
        self._grants_total += 1
        if _POOL_CHECK and in_use > self._capacity:
            raise InvariantViolation(
                f"resource:{self._label()}",
                "occupancy-within-capacity", self.env.now,
                f"granted slot #{in_use} with capacity {self._capacity}",
            )
        req.granted = True

    def _admit(self) -> None:
        while self._queue and self._in_use < self._capacity:
            self._grant(self._queue.popleft())

    def _withdraw(self, req: Acquire) -> bool:
        try:
            self._queue.remove(req)
        except ValueError:
            # Already withdrawn by an earlier cancel(); nothing to do.
            return False
        return True
