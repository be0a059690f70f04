"""Unit tests for Resource (resizable FIFO semaphore)."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Environment, Resource


def hold(env, res, duration, log, tag):
    req = res.acquire()
    yield req
    log.append(("acquired", tag, env.now))
    yield env.timeout(duration)
    res.release(req)
    log.append(("released", tag, env.now))


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ConfigurationError):
        Resource(env, 0)
    res = Resource(env, 2)
    with pytest.raises(ConfigurationError):
        res.resize(0)


def test_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, 2)
    log = []
    for tag in "abc":
        env.process(hold(env, res, 5.0, log, tag))
    env.run(until=0.1)
    acquired = [e for e in log if e[0] == "acquired"]
    assert [t for _, t, _ in acquired] == ["a", "b"]
    assert res.in_use == 2
    assert res.queue_length == 1


def test_fifo_admission_order():
    env = Environment()
    res = Resource(env, 1)
    log = []
    for tag in "abcd":
        env.process(hold(env, res, 1.0, log, tag))
    env.run()
    acquired = [t for kind, t, _ in log if kind == "acquired"]
    assert acquired == ["a", "b", "c", "d"]
    times = [at for kind, _, at in log if kind == "acquired"]
    assert times == [0.0, 1.0, 2.0, 3.0]


def test_release_admits_waiter_at_same_time():
    env = Environment()
    res = Resource(env, 1)
    log = []
    env.process(hold(env, res, 2.0, log, "first"))
    env.process(hold(env, res, 2.0, log, "second"))
    env.run()
    assert ("acquired", "second", 2.0) in log


def test_resize_grow_admits_queued_waiters():
    env = Environment()
    res = Resource(env, 1)
    log = []
    for tag in "abc":
        env.process(hold(env, res, 10.0, log, tag))

    def grower(env):
        yield env.timeout(1.0)
        res.resize(3)

    env.process(grower(env))
    env.run(until=1.5)
    acquired = [(t, at) for kind, t, at in log if kind == "acquired"]
    assert acquired == [("a", 0.0), ("b", 1.0), ("c", 1.0)]


def test_resize_shrink_is_lazy():
    env = Environment()
    res = Resource(env, 3)
    log = []
    env.process(hold(env, res, 1.0, log, "a"))
    env.process(hold(env, res, 2.0, log, "b"))
    env.process(hold(env, res, 3.0, log, "c"))
    env.process(hold(env, res, 1.0, log, "d"))

    def shrinker(env):
        yield env.timeout(0.5)
        res.resize(1)

    env.process(shrinker(env))
    env.run(until=0.6)
    # Shrink never revokes: all three initial holders still own slots.
    assert res.in_use == 3
    assert res.capacity == 1
    env.run()
    # "d" only gets in once in_use drains below the new capacity (after "c"
    # releases at t=3, since a and b releasing still leaves in_use >= 1).
    assert ("acquired", "d", 3.0) in log


def test_available_never_negative_after_shrink():
    env = Environment()
    res = Resource(env, 4)
    reqs = []

    def holder(env):
        req = res.acquire()
        yield req
        reqs.append(req)
        yield env.timeout(100.0)

    for _ in range(4):
        env.process(holder(env))
    env.run(until=1.0)
    res.resize(2)
    assert res.available == 0


def test_cancel_queued_acquire():
    env = Environment()
    res = Resource(env, 1)
    outcome = {}

    def holder(env):
        req = res.acquire()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def impatient(env):
        req = res.acquire()
        result = yield env.any_of([req, env.timeout(1.0)])
        if req in result:
            outcome["got_it"] = True
            res.release(req)
        else:
            outcome["cancelled"] = req.cancel()

    env.process(holder(env))
    env.process(impatient(env))
    env.run(until=20.0)
    assert outcome == {"cancelled": True}
    # The queue no longer contains the withdrawn request.
    assert res.queue_length == 0


def test_cancel_granted_acquire_returns_false():
    env = Environment()
    res = Resource(env, 1)
    req = res.acquire()
    env.run(until=0.1)
    assert req.granted
    assert req.cancel() is False
    res.release(req)


def test_double_cancel_returns_false():
    env = Environment()
    res = Resource(env, 1)
    res.acquire()  # takes the only slot
    queued = res.acquire()
    assert queued.cancel() is True
    # Idempotent per the documented contract: a second cancel is a no-op.
    assert queued.cancel() is False
    assert res.queue_length == 0


def test_cancel_after_grant_and_release_returns_false():
    env = Environment()
    res = Resource(env, 1)
    req = res.acquire()
    env.run(until=0.1)
    assert req.granted
    res.release(req)
    # Granted-then-released: nothing to withdraw, and the slot accounting
    # must not change.
    assert req.cancel() is False
    assert res.in_use == 0
    assert res.available == 1


def test_release_ungranted_raises():
    env = Environment()
    res = Resource(env, 1)
    res.acquire()
    queued = res.acquire()
    with pytest.raises(SimulationError):
        res.release(queued)


def test_occupancy_integral_tracks_time_weighted_usage():
    env = Environment()
    res = Resource(env, 2)
    log = []
    env.process(hold(env, res, 4.0, log, "a"))
    env.process(hold(env, res, 2.0, log, "b"))
    env.run()
    # a holds [0,4], b holds [0,2] -> integral = 4 + 2 = 6
    assert res.occupancy_integral() == pytest.approx(6.0)
