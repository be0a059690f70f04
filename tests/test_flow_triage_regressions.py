"""Regression tests for the bugs surfaced by ``repro lint --deep``.

Each test here pins a real defect found (and fixed) by the interprocedural
dataflow analyses in :mod:`repro.check.flow`:

* DCM101 on ``ThreadPool.checkout`` / ``ConnectionPool.checkout``: a crash
  interrupt landing in the window between the slot grant and the waiter's
  resume leaked the slot forever (the caller's try/finally never ran
  because the handle was never returned).
* DCM010 on ``NTierSystem._drive``: the catch-all failure handler swallowed
  :class:`repro.errors.InvariantViolation`, booking sanitizer findings as
  ordinary request failures.

Reverting either fix makes the corresponding test fail.
"""

import pytest

from repro.errors import InvariantViolation
from repro.ntier.connpool import ConnectionPool
from repro.ntier.threadpool import ThreadPool
from repro.ntier.topology import NTierSystem
from repro.sim import Environment


def _crash_window_scenario(env, pool):
    """Holder owns the single slot; a waiter is interrupted at the exact
    timestep its grant fires, before its generator resumes."""

    def holder(env):
        handle = yield from pool.checkout()
        yield env.timeout(1.0)
        pool.checkin(handle)

    def waiter(env):
        handle = yield from pool.checkout()
        yield env.timeout(5.0)
        pool.checkin(handle)

    env.process(holder(env))
    victim = env.process(waiter(env))
    # Absorb the waiter's Interrupt failure so it does not escape env.run().
    victim.callbacks.append(lambda event: None)

    def killer(env):
        yield env.timeout(1.0)
        victim.interrupt("vm crash")

    env.process(killer(env))
    return victim


class TestCrashWindowSlotLeak:
    """Interrupt between grant and resume must return the slot (DCM101)."""

    def test_threadpool_checkout_survives_grant_window_interrupt(self):
        env = Environment()
        pool = ThreadPool(env, 1, name="t")
        _crash_window_scenario(env, pool)
        env.run()
        # The holder checked in at t=1; the waiter's grant fired at t=1 but
        # the URGENT interrupt wakeup beat the NORMAL-priority grant resume.
        # Pre-fix the granted slot was never released: busy stuck at 1.
        assert pool.busy == 0
        assert pool.queued == 0

    def test_connpool_checkout_survives_grant_window_interrupt(self):
        env = Environment()
        pool = ConnectionPool(env, 1, name="c")
        _crash_window_scenario(env, pool)
        env.run()
        assert pool.in_use == 0
        assert pool.queued == 0

    def test_slot_is_reusable_after_the_crash(self):
        env = Environment()
        pool = ThreadPool(env, 1, name="t")
        _crash_window_scenario(env, pool)
        granted_at = []

        def late_comer(env):
            yield env.timeout(2.0)
            handle = yield from pool.checkout()
            granted_at.append(env.now)
            pool.checkin(handle)

        env.process(late_comer(env))
        env.run()
        assert granted_at == [2.0]

    def test_interrupt_while_still_queued_withdraws_request(self):
        env = Environment()
        pool = ThreadPool(env, 1, name="t")

        def holder(env):
            handle = yield from pool.checkout()
            yield env.timeout(10.0)
            pool.checkin(handle)

        def waiter(env):
            handle = yield from pool.checkout()
            pool.checkin(handle)

        env.process(holder(env))
        victim = env.process(waiter(env))
        victim.callbacks.append(lambda event: None)

        def killer(env):
            yield env.timeout(1.0)
            victim.interrupt("admission timeout")

        env.process(killer(env))
        env.run(until=2.0)
        # The waiter never reached the grant: its queued request must be
        # withdrawn, not abandoned in the FIFO.
        assert pool.queued == 0
        assert pool.busy == 1  # the holder, undisturbed


class TestInvariantViolationPassthrough:
    """Sanitizer findings must escape _drive, not become failures (DCM010)."""

    @staticmethod
    def _system():
        env = Environment()
        return env, NTierSystem(env)

    def test_violation_escapes_env_run(self, monkeypatch):
        env, system = self._system()

        def poisoned_pick(request):
            raise InvariantViolation("test", "synthetic", detail="boom")

        monkeypatch.setattr(system.web_balancer, "pick_for", poisoned_pick)
        system.submit()
        with pytest.raises(InvariantViolation):
            env.run()
        # Not booked as an ordinary request failure.
        assert system.failure_log == []

    def test_ordinary_failure_is_still_recorded(self, monkeypatch):
        env, system = self._system()

        def broken_pick(request):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(system.web_balancer, "pick_for", broken_pick)
        request, _done = system.submit()
        env.run()
        assert request.failed
        assert "RuntimeError" in request.failure_reason
        assert len(system.failure_log) == 1
