"""Event primitives for the discrete-event kernel.

The kernel follows the classic generator-based design: simulation *processes*
are Python generators that ``yield`` :class:`Event` objects and are resumed
when those events fire.  Three event states exist:

``PENDING``
    created, not yet scheduled to fire;
``TRIGGERED``
    scheduled on the environment's event heap with a value or an exception;
``PROCESSED``
    callbacks have run.

Only :class:`Process`, :class:`Timeout`, :class:`Condition` and the resource
request events from :mod:`repro.sim.resources` are usually instantiated
directly by user code; everything else goes through the convenience methods
on :class:`repro.sim.core.Environment`.

Performance notes
-----------------
Everything in this module sits on the simulation hot path — every request,
timeout, and pool grant in an experiment flows through it millions of
times — so the implementations deliberately trade a little repetition for
speed: triggering pushes onto the environment heap directly instead of
going through :meth:`Environment.schedule`, :class:`Timeout` initialises
its slots inline rather than chaining ``super().__init__``, and
:meth:`Process._resume` reads the private ``_ok``/``_value`` slots instead
of the public properties.  A new :class:`Process` consumes one heap entry
(its own first resume, scheduled directly) and allocates **no**
initialisation event.

A process return goes through :meth:`Event._succeed_in_place`: when the
returning process is provably the next event the loop would pop, its
waiters run at once instead of after a heap round trip (the in-place
dispatch rule of :mod:`repro.sim.core`).  ``step()`` may therefore run the
waiters of such events within the call that resumed the process.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.core import Environment

PENDING = 0
TRIGGERED = 1
PROCESSED = 2

#: Default scheduling priority; lower fires first at equal times.
NORMAL = 1
#: Priority used for "immediate" wakeups that must precede normal events.
URGENT = 0


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The interrupt ``cause`` (an arbitrary object supplied by the caller of
    :meth:`Process.interrupt`) is available as ``exc.cause``.
    """

    @property
    def cause(self) -> Any:
        """Arbitrary object describing why the process was interrupted."""
        return self.args[0]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event carries either a *value* (on success) or an *exception* (on
    failure).  Waiting processes are stored in :attr:`callbacks` and invoked,
    in registration order, when the environment pops the event off its heap
    (or dispatches it in place, see :meth:`_succeed_in_place`).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING

    def __repr__(self) -> str:
        status = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {status[self._state]} at {id(self):#x}>"

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception on failure)."""
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire by raising ``exception`` in waiters."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, priority, seq, self))
        return self

    # -- internal -----------------------------------------------------------
    def _succeed_in_place(self, value: Any = None) -> None:
        """Succeed as the last action of the running callback (kernel use).

        When nothing is queued at the current instant and the loop is running
        a lone callback (``env._lone``), this event is provably the next one
        the loop would pop, so its waiters run here and now, and it takes no
        sequence number.  Otherwise it is queued exactly like
        :meth:`succeed`.  Callers guarantee the "last action" part: nothing
        may happen in the running callback after this call.
        """
        env = self.env
        heap = env._heap
        if env._lone and (not heap or heap[0][0] > env._now):
            self._value = value
            self._state = PROCESSED
            callbacks = self.callbacks
            self.callbacks = None
            if callbacks:
                if len(callbacks) == 1:
                    callbacks[0](self)
                else:
                    env._lone = False
                    for callback in callbacks:
                        callback(self)
                    env._lone = True
            return
        self._value = value
        self._state = TRIGGERED
        env._seq = seq = env._seq + 1
        heappush(heap, (env._now, NORMAL, seq, self))


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Single chained comparison rejects negative, NaN *and* inf delays:
        # a bare ``delay < 0`` lets NaN through (every NaN comparison is
        # false) and a NaN timestamp silently corrupts queue ordering.
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"negative or non-finite timeout delay: {delay!r}"
            )
        # Inline Event.__init__ plus direct heap insertion: timeouts are the
        # single most allocated event type, so they skip two method calls.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, NORMAL, seq, self))


class _InitSentinel:
    """Stand-in "event" a process's very first resume is driven with.

    It only needs the two slots :meth:`Process._resume` reads; using one
    shared immutable instance lets a new process go straight onto the heap
    without allocating a per-process initialisation :class:`Event`.
    """

    __slots__ = ()
    _ok = True
    _value = None


_INIT = _InitSentinel()


class Process(Event):
    """A running simulation process wrapping a generator.

    The process *is itself an event* that fires when the generator returns
    (with its return value) or raises (failing with the exception).  That
    allows processes to wait on each other simply by yielding a process.

    A process's body must yield :class:`Event` instances only.  Yielding
    anything else deterministically *fails the process* with a
    :class:`SimulationError` (after throwing that error into the generator
    so ``finally`` blocks run); the error then propagates to whoever waits
    on the process, or out of :meth:`Environment.run` if nobody does.
    """

    __slots__ = ("_generator", "_target", "_defused")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._defused = False
        # Schedule the first resume directly: the still-PENDING process on
        # the heap *is* the placeholder (Environment.step recognises it and
        # calls _start).  No initialisation Event is allocated, and the
        # sequence-number consumption matches the old init-event scheme
        # exactly, so same-seed event ordering is unchanged.
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, URGENT, seq, self))

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event is
        *not* cancelled; its eventual value is simply ignored by this
        process) and resumes with ``Interrupt(cause)`` raised at the yield
        statement.  Interrupting a finished process is an error.

        Interrupting a process that has **not started yet** (spawned in the
        same step) defuses its queued first resume: the body never runs and
        the process fails with the :class:`Interrupt` — it is *not* started
        and interrupted at the same timestamp.
        """
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already terminated")
        env = self.env
        if env._active_proc is self:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if target is not None:
            # Defuse the old target: drop our callback so we do not resume
            # twice.
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
        else:
            # Not yet started: defuse the queued first resume so the
            # generator is not started *and* interrupted in one step.  The
            # placeholder entry stays queued for lazy deletion; the
            # environment's dead count keeps peek()/queue_size truthful.
            self._defused = True
            env._dead += 1
        wakeup = Event(env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._state = TRIGGERED
        wakeup.callbacks.append(self._resume)
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, URGENT, seq, wakeup))

    # -- internal -----------------------------------------------------------
    def _start(self) -> None:
        """First resume, invoked by the kernel's dispatch loop."""
        if self._defused:
            # The dead placeholder just left the queue: settle the lazy-
            # deletion ledger.
            self.env._dead -= 1
        else:
            self._resume(_INIT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired ``event`` (kernel use only)."""
        if self._state != PENDING:
            # Stale wakeup for a process that already finished (e.g. a second
            # interrupt delivered after the first one killed it): ignore.
            return
        env = self.env
        env._active_proc = self
        gen = self._generator
        ok = event._ok
        value = event._value
        while True:
            try:
                if ok:
                    next_event = gen.send(value)
                else:
                    next_event = gen.throw(value)
            except StopIteration as stop:
                value = stop.value
                break
            except BaseException as err:
                self._target = None
                env._active_proc = None
                if self._state == PENDING:
                    self.fail(err)
                    return
                raise

            if isinstance(next_event, Event):
                callbacks = next_event.callbacks
                if callbacks is None:
                    # Already processed: resume immediately with its value.
                    ok = next_event._ok
                    value = next_event._value
                    continue
                callbacks.append(self._resume)
                self._target = next_event
                env._active_proc = None
                return

            # Yielded a non-event: fail the process deterministically.  The
            # error is thrown into the generator first so cleanup runs; the
            # process fails with the SimulationError no matter whether the
            # generator catches it, re-raises, or raises something else.
            error = SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
            self._target = None
            env._active_proc = None
            try:
                gen.throw(error)
                # The generator swallowed the error and yielded again —
                # shut it down for good.
                gen.close()
            except BaseException:  # repro: noqa[DCM010] -- the process fails
                # with the original SimulationError below; whatever the dying
                # generator raised during cleanup is intentionally subordinate.
                pass
            if self._state == PENDING:
                self.fail(error)
            return

        # The generator returned.  Outside the ``except`` block, so waiters
        # dispatched in place do not run with the StopIteration as context.
        self._target = None
        env._active_proc = None
        if self._state == PENDING:
            # The return is this callback's last action.
            self._succeed_in_place(value)


class Condition(Event):
    """Composite event over several child events.

    ``Condition(env, events, wait_all=True)`` fires once *all* children have
    fired (``AllOf``); with ``wait_all=False`` it fires as soon as *any*
    child fires (``AnyOf``).  The value is a dict mapping each fired child to
    its value.  A failing child fails the condition with the same exception.

    An empty ``AllOf`` is vacuously true and fires immediately with ``{}``.
    An empty ``AnyOf`` could never fire and raises :class:`SimulationError`
    at construction instead of deadlocking.
    """

    __slots__ = ("_events", "_wait_all", "_unfired")

    def __init__(self, env: "Environment", events: Iterable[Event], wait_all: bool) -> None:
        super().__init__(env)
        self._events = list(events)
        self._wait_all = wait_all
        for ev in self._events:
            if not isinstance(ev, Event):
                raise TypeError(f"condition over non-event: {ev!r}")
            if ev.env is not env:
                raise SimulationError("condition events belong to different environments")
        if not self._events and not wait_all:
            raise SimulationError(
                "any_of() over an empty event list can never fire"
            )
        # Count-down instead of re-scanning every child on each firing:
        # _check decrements once per fired child, so an AllOf completes when
        # the counter hits zero and an AnyOf on the first decrement.
        self._unfired = len(self._events)
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if self._state == PENDING and self._unfired == 0:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        return {
            ev: ev._value
            for ev in self._events
            if ev._state == PROCESSED and ev._ok
        }

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._unfired -= 1
        if not self._wait_all or self._unfired == 0:
            self.succeed(self._collect())


def all_of(env: "Environment", events: Iterable[Event]) -> Condition:
    """Return an event that fires when every event in ``events`` has fired.

    ``all_of([])`` is vacuously satisfied and fires immediately with ``{}``.
    """
    return Condition(env, events, wait_all=True)


def any_of(env: "Environment", events: Iterable[Event]) -> Condition:
    """Return an event that fires when the first event in ``events`` fires.

    ``any_of([])`` raises :class:`SimulationError`: with no children, the
    condition could never fire and would deadlock the waiting process.
    """
    return Condition(env, events, wait_all=False)
