"""Ordering and lazy-deletion contract of the kernel's pending-event queue.

The binary event heap of :class:`repro.sim.Environment` must dispatch
entries in global ``(when, priority, seq)`` order — earliest time first,
then ``URGENT`` before ``NORMAL``, then scheduling order — and must purge
defused first-resume placeholders (lazy deletion) without reporting them
as pending work.  Everything here goes through the kernel's own API
(``timeout``/``schedule``/``process``/``interrupt``, ``peek``/``step``/
``run``), so in-place dispatch is exercised alongside the heap.

The module and class names are kept from the tests that pinned this same
contract on the calendar-queue scheduler, which has since been removed;
its resizing and sparse-year cases went with it.
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, Interrupt
from repro.sim.events import NORMAL, TRIGGERED, URGENT


def _scheduled(env, log, tag, delay, priority=NORMAL):
    """Queue a triggered event that logs ``(now, tag)`` when dispatched."""
    event = Event(env)
    event._state = TRIGGERED
    event.callbacks.append(lambda _ev: log.append((env.now, tag)))
    env.schedule(event, delay=delay, priority=priority)


class TestOrdering:
    def test_pops_in_global_tuple_order(self):
        # Delays on a 0.5 s grid force many time ties, so the priority and
        # seq components of the key decide a large share of the order.
        rng = random.Random(42)
        env = Environment()
        fired, expected = [], []
        for seq in range(500):
            delay = rng.randint(0, 20) * 0.5
            priority = rng.choice((URGENT, NORMAL))
            _scheduled(env, fired, seq, delay, priority)
            expected.append((delay, priority, seq))
        env.run()
        assert fired == [(when, seq) for when, _prio, seq in sorted(expected)]

    def test_ties_break_on_priority_then_seq(self):
        env = Environment()
        fired = []
        _scheduled(env, fired, "first", 1.0)
        _scheduled(env, fired, "urgent", 1.0, URGENT)
        _scheduled(env, fired, "second", 1.0)
        _scheduled(env, fired, "earlier", 0.5)
        env.run()
        assert [tag for _when, tag in fired] == ["earlier", "urgent",
                                                 "first", "second"]

    def test_peek_matches_pop_and_is_non_destructive(self):
        env = Environment()
        fired = []
        for tag, delay in enumerate((4.0, 1.0, 9.0)):
            env.timeout(delay).callbacks.append(
                lambda _ev, tag=tag: fired.append(tag))
        head = env.peek()
        assert head == env.peek() == 1.0
        assert env.queue_size == 3
        assert env.now == 0.0  # peeking never advances the clock
        env.step()
        assert env.now == head
        assert fired == [1]
        assert env.queue_size == 2
        assert env.peek() == 4.0

    def test_empty_queue(self):
        env = Environment()
        assert env.queue_size == 0
        assert env.peek() == math.inf
        with pytest.raises(SimulationError):
            env.step()
        assert env.run() is None
        assert env.now == 0.0

    def test_interleaved_push_pop_stays_sorted(self):
        rng = random.Random(7)
        env = Environment()
        fired = []
        for _ in range(2000):
            if env.queue_size and rng.random() < 0.45:
                before = env.now
                env.step()
                assert env.now >= before
            else:
                # Timeouts are relative to now: never into the past.
                env.timeout(rng.uniform(0.0, 10.0)).callbacks.append(
                    lambda _ev: fired.append(env.now))
        stepped = len(fired)
        assert stepped > 0
        last = fired[-1]
        env.run()
        assert fired == sorted(fired)
        assert all(when >= last for when in fired[stepped:])
        assert env.queue_size == 0


def _spawn(env, started):
    """A process whose body logs its start time; its failure is observed."""
    def body(env):
        started.append(env.now)
        yield env.timeout(100.0)

    proc = env.process(body(env))
    proc.callbacks.append(lambda _ev: None)  # observe an Interrupt failure
    return proc


class TestLazyDeletion:
    def test_dead_heads_are_purged_and_reported(self):
        env = Environment()
        started = []
        procs = [_spawn(env, started) for _ in range(2)]
        for proc in procs:
            proc.interrupt("die")  # defuses both queued first resumes
        env.timeout(3.0)
        # Two dead placeholders head the heap, ahead of the two interrupt
        # deliveries and the timeout.
        assert len(env._heap) == 5
        assert env._dead == 2
        assert env.queue_size == 3
        assert env.peek() == 0.0  # the first interrupt delivery
        assert env._dead == 0     # each purge settled the dead count
        assert len(env._heap) == env.queue_size == 3
        env.run()
        assert started == []
        for proc in procs:
            assert not proc.ok
            assert isinstance(proc.value, Interrupt)
            assert proc.value.cause == "die"

    def test_pending_but_not_defused_is_live(self):
        # A PENDING placeholder whose process was *not* interrupted must
        # still be dispatched, even next to a defused sibling.
        env = Environment()
        started = []
        live = _spawn(env, started)
        dead = _spawn(env, started)
        dead.interrupt("die")
        assert env._dead == 1
        assert env.queue_size == 2  # the live placeholder + the delivery
        assert env.peek() == 0.0
        assert len(env._heap) == 3  # the head is live: nothing purged
        env.step()
        assert started == [0.0]
        assert live.is_alive

    def test_all_dead_drains_to_empty(self):
        env = Environment()
        started = []
        procs = [_spawn(env, started) for _ in range(5)]
        for proc in procs:
            proc.interrupt("die")
        assert env._dead == 5
        while env.peek() < math.inf:
            env.step()
        assert len(env._heap) == 0  # no dead entry outlives the drain
        assert env._dead == 0
        assert env.queue_size == 0
        assert started == []
        assert all(not proc.is_alive for proc in procs)
