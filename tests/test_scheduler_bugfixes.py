"""Regression tests for the event-heap correctness bugfix pass.

Three latent kernel bugs, each pinned here:

1. ``float("nan")`` sailed past the ``delay < 0`` guard (every NaN
   comparison is false) in ``schedule()`` / ``timeout()``, silently
   corrupting the heap's ordering invariant; ``run(until=nan)`` made
   every stop-time comparison false and ran to queue exhaustion.  All
   three now raise :class:`SimulationError`, as do infinite delays.
2. ``peek()`` and ``queue_size`` counted defused first-resume
   placeholders (dead entries kept by lazy deletion), so an idle-looking
   environment reported phantom pending work and a wrong next-event time.
3. The ``run(until=t)`` boundary is *inclusive* — events at exactly ``t``
   execute and the clock lands on ``t`` — pinned for both dispatch loops
   (unbounded fast loop and bounded loop).

The ``[heap]`` ids name the kernel's one pending-event structure; they
are kept from when a second structure was tested alongside it.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


@pytest.fixture(params=["heap"])
def env():
    """A fresh environment on the binary event heap."""
    return Environment()


class TestNonFiniteDelays:
    def test_nan_timeout_rejected(self, env):
        with pytest.raises(SimulationError, match="non-finite"):
            env.timeout(float("nan"))

    def test_infinite_timeout_rejected(self, env):
        with pytest.raises(SimulationError, match="non-finite"):
            env.timeout(math.inf)

    def test_negative_timeout_still_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_schedule_rejects_nan_inf_negative(self, env):
        for delay in (float("nan"), math.inf, -math.inf, -0.5):
            with pytest.raises(SimulationError):
                env.schedule(env.event(), delay=delay)
        assert env.queue_size == 0  # nothing leaked onto the queue

    def test_run_until_nan_rejected(self, env):
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0  # nothing dispatched


def _defused_placeholder(env):
    """Spawn-and-interrupt a process in one step, leaving its queued
    first-resume entry dead in the heap (lazy deletion)."""
    def body(env):
        yield env.timeout(100.0)

    proc = env.process(body(env))
    proc.callbacks.append(lambda ev: None)  # observe the Interrupt failure
    proc.interrupt("die")
    return proc


class TestDeadEntryAccounting:
    def test_queue_size_excludes_defused_placeholders(self, env):
        # Defusing leaves the dead placeholder queued (lazy deletion) next
        # to two live entries: the interrupt delivery and the timeout.
        _defused_placeholder(env)
        env.timeout(5.0)
        assert len(env._heap) == 3
        assert env.queue_size == 2  # pre-fix: reported 3

    def test_peek_purges_dead_head(self, env):
        _defused_placeholder(env)  # dead placeholder heads the queue at t=0
        env.timeout(5.0)
        assert env.peek() == 0.0  # the live interrupt delivery, not the corpse
        assert env._dead == 0     # the purge decremented the dead count
        assert len(env._heap) == env.queue_size == 2

    def test_accounting_settles_after_run(self, env):
        for _ in range(3):
            _defused_placeholder(env)
        env.timeout(1.0)
        env.run()
        assert env.queue_size == 0
        assert env._dead == 0  # every dead entry decremented exactly once


class TestInclusiveUntilBoundary:
    def test_event_exactly_at_until_executes(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(env.now))
        env.timeout(5.5).callbacks.append(lambda ev: fired.append("late"))
        env.run(until=5.0)
        assert fired == [5.0]
        assert env.now == 5.0

    def test_clock_lands_on_until_when_queue_is_quiet(self, env):
        env.timeout(1.0).callbacks.append(lambda ev: None)
        env.run(until=7.0)
        assert env.now == 7.0

    def test_until_inf_is_unbounded(self, env):
        fired = []
        env.timeout(3.0).callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=math.inf)
        assert fired == [3.0]
        assert env.now == 3.0

    def test_heap_bounded_loop_with_stop_event(self):
        # The stop-event variant of the bounded loop: events at the stop
        # event's own timestamp but queued after it do not run.
        env = Environment()
        fired = []
        stop = env.timeout(5.0)
        env.timeout(5.0).callbacks.append(lambda ev: fired.append("same-time"))
        env.run(until=stop)
        assert env.now == 5.0
        # The same-time event queued *after* the stop event stays pending.
        assert fired == []
        assert env.queue_size == 1
