"""The discrete-event simulation environment.

:class:`Environment` owns the simulation clock and the event heap.  All other
components (servers, workload generators, controllers, agents) are processes
or callbacks scheduled on a single environment, which makes every experiment
fully deterministic given its random seed.

Example
-------
>>> from repro.sim.core import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0

The event heap
--------------
Pending events live in one binary heap of ``(when, priority, seq, event)``
tuples: earliest time first, then ``URGENT`` before ``NORMAL``, then
scheduling order (``seq``, a counter that every queued entry advances).
:meth:`Environment.run` is the kernel's innermost loop — every simulated
event in every experiment passes through it — so it inlines the work of
:meth:`step` (heap pop, clock advance, callback dispatch) with
function-local bindings instead of calling ``self.step()`` per event.  An
unbounded run is the bounded loop with an infinite stop time.
:meth:`step` keeps the identical one-event semantics for callers that
single-step.  The monotonic-clock sanitizer guard reads a module-level
boolean (``_CLOCK_CHECK``) kept current by a :func:`repro.check.config.subscribe`
callback rather than calling ``config.enabled()`` per event; ``run``
binds it to a loop-local once on entry, so (dis)arming the sanitizer takes
effect at the next ``run``/``step`` call.

A still-``PENDING`` entry popped off the heap is a *first resume*: a
:class:`Process` placeholder for its own first resume (see
``Process.__init__``) or a bare kernel entry such as a processor's
completion timer (:mod:`repro.sim.processor`).  The dispatch loops call its
``_start()`` directly.  Consequently only *triggered* events may be passed
to :meth:`schedule`.

Defused first-resume placeholders (see :meth:`Process.interrupt`) stay in
the heap until their timestamp is reached (*lazy deletion*); the
environment counts them in ``_dead`` so :attr:`queue_size` and :meth:`peek`
report only live events.

In-place dispatch
-----------------
An event triggered at the current instant normally goes onto the heap, and
its waiters run when the loop pops it.  When the event is provably the next
one the loop would pop, its waiters run immediately instead, saving the
heap round trip.  Two conditions must both hold:

* nothing is queued at the current instant (the heap is empty or its head
  lies in the future); and
* the trigger is the last action of the only callback the loop is running.

The loop tracks the second condition with one flag, ``_lone``.  It is true
while the loop runs a lone callback or a first resume, and false while it
runs one of several callbacks of one event.  The first condition alone is
not enough: with two waiters on one event, the first waiter's trigger would
run its own waiters before the second waiter runs.  An event dispatched in
place takes no sequence number, so the relative order of queued entries —
and every same-seed outcome — is unchanged.  The trigger sites decide
whether they are the last action; four places qualify:

* the single completion of a processor timer
  (``ContentionProcessor._on_timer``);
* a process return (``Process._resume``);
* a pool checkout that finds room (``ThreadPool.checkout`` /
  ``ConnectionPool.checkout`` via :meth:`Resource.claim`), which then
  returns without yielding;
* the result of a single-stage interaction (MySQL query, cache operation;
  see :class:`repro.ntier.server.SingleStageServer`).

Everywhere else an event goes through the heap.  One consequence for
callers: :meth:`step` pops one entry, but the waiters of events dispatched
in place from it run within the same call.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.check import config as _checks
from repro.errors import InvariantViolation, SimulationError
from repro.sim.events import (
    NORMAL,
    PENDING,
    PROCESSED,
    Condition,
    Event,
    Process,
    Timeout,
    all_of,
    any_of,
)

_INF = float("inf")

#: Cached :func:`repro.check.config.enabled`; re-resolved whenever the
#: sanitizer switch changes.
_CLOCK_CHECK = False


def _refresh_check_flags() -> None:
    global _CLOCK_CHECK
    _CLOCK_CHECK = _checks.enabled()


_checks.subscribe(_refresh_check_flags)


def _clock_violation(now: float, when: float) -> InvariantViolation:
    return InvariantViolation(
        "sim.core", "monotonic-clock", now,
        f"event scheduled at t={when!r} popped after the clock "
        f"reached {now!r}",
    )


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Simulated time at which the clock starts (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._seq = 0
        #: Defused-but-still-queued entries awaiting lazy deletion.
        self._dead = 0
        #: False only while the loop runs one of several callbacks of one
        #: event (see "In-place dispatch" in the module notes).
        self._lone = True
        #: The process being resumed, if any (read by ``Process.interrupt``
        #: and by ``TierServer`` to find its own interaction process).
        self._active_proc: Optional[Process] = None
        self._heap: list[tuple[float, int, int, Any]] = []

    # -- clock & introspection ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_size(self) -> int:
        """Number of *live* events currently scheduled.

        Defused first-resume placeholders awaiting lazy deletion are
        excluded — callers see only events that can still fire.
        """
        return len(self._heap) - self._dead

    # -- event construction ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when *all* of ``events`` have fired successfully."""
        return all_of(self, events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when *any* of ``events`` fires successfully."""
        return any_of(self, events)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a *triggered* ``event`` on the queue ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a negative delay would
        schedule into the past, and NaN/inf delays (which sail past a plain
        ``delay < 0`` guard because every NaN comparison is false) would
        silently corrupt the ordering invariant of the heap.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule into the past or with a non-finite delay "
                f"(delay={delay!r})"
            )
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none remain.

        Dead entries (defused first-resume placeholders) at the front of the
        queue are purged rather than reported, so the returned time is one at
        which simulation state can actually change.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event._state == PENDING and getattr(event, "_defused", False):
                heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        return _INF

    def step(self) -> None:
        """Process exactly one heap entry, advancing the clock to its time.

        Waiters of events dispatched in place from that entry's callbacks
        (see "In-place dispatch") run within the same call.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event heap")
        when, _prio, _seq, event = heappop(heap)
        if when < self._now and _CLOCK_CHECK:
            raise _clock_violation(self._now, when)
        self._now = when
        self._lone = True
        if event._state == PENDING:
            # A first resume (process placeholder or bare kernel entry).
            event._start()
            return
        event._state = PROCESSED
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                self._lone = False
                for callback in callbacks:
                    callback(event)
                self._lone = True
        elif not event._ok and isinstance(event, Process):
            # A failed process nobody is waiting on: surface the error rather
            # than dropping it silently.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number (run
        until that simulated time), or an :class:`Event` (run until it has
        been processed; its value is returned, and a failed event re-raises
        its exception).  An ``until`` event dispatched in place is noticed
        as soon as the entry whose callbacks dispatched it returns.

        The time bound is **inclusive**: events scheduled exactly at
        ``until`` execute before the call returns, and the clock lands on
        ``until`` afterwards.  ``until=inf`` is equivalent to unbounded;
        NaN is rejected.
        """
        stop_event: Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time != stop_time:  # NaN: every comparison below would lie
                raise SimulationError("run(until=nan) is not a simulated time")
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})"
                )

        # Hot loop: inlined step() with local bindings, semantically identical
        # to step(); event states are the literal PENDING=0 / PROCESSED=2.
        heap = self._heap
        pop = heappop
        clock_check = _CLOCK_CHECK  # resolved once per run() entry
        now = self._now
        # A multi-callback dispatch that raised may have left the flag down.
        self._lone = True
        # The clock lives in the loop-local ``now``; ``self._now`` is only
        # written at points where user code can observe it (process resume,
        # callback dispatch, an escaping exception) and once when the loop
        # ends.  Events with no observers never pay the attribute store.
        while heap:
            if stop_event is not None and stop_event._state == 2:
                break
            if heap[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _seq, event = pop(heap)
            if clock_check and when < now:
                self._now = now
                raise _clock_violation(now, when)
            now = when
            if event._state == 0:
                self._now = now
                event._start()
                continue
            event._state = 2
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                self._now = now
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    self._lone = False
                    for callback in callbacks:
                        callback(event)
                    self._lone = True
            elif not event._ok and isinstance(event, Process):
                self._now = now
                raise event._value
        self._now = now

        if stop_event is not None:
            if stop_event._state != PROCESSED:
                raise SimulationError("run() ended before its `until` event fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != _INF and self._now < stop_time:
            self._now = stop_time
        return None
