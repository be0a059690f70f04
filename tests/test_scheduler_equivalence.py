"""In-place dispatch must be observationally identical to queueing.

An event dispatched in place skips the heap round trip and takes no
sequence number, but it must run its waiters exactly when the loop would
have popped it.  Any same-seed run therefore reproduces, bit for bit, the
trace of the kernel that sent every event through the heap.  The digests
below were recorded on that kernel, where the binary heap and the former
calendar-queue scheduler also agreed on them, and are pinned two ways:

* a randomized kernel stress mixing timeouts across six orders of
  magnitude of time scale, zero-delay ties, same-step interrupts (the
  lazy-deletion path) and processes joining earlier ones, several on one
  process (returns dispatched in place, or queued behind a tie);
* a batched-population scenario deployment, digest of its request log.

The Fig-5 golden digest of ``tests/test_kernel_digest.py`` pins the same
property on the autoscale scenario.  The module and class names are kept
from the heap-vs-calendar comparison these checks grew out of.
"""

import hashlib
import json
import random

from repro.scenario import Deployment, ScenarioSpec
from repro.sim import Environment

#: sha256 of ``json.dumps(_stress_trace(seed))`` per seed.
STRESS_GOLDEN = {
    0: "38345b20611717226d70cdd2d35bfc8db9165efffdc0e2d65f7c5b726b1fdf11",
    1: "4acf7f275e49e815651dd6474bf53e763c0927cc8f939c27721dd50a59952d0c",
    2: "1786e4d466a805cecb340b6a037a1b06317c3277e5507ec4ec6bae600dd99b59",
}

#: sha256 of the batched scenario's canonical request-log JSON.
BATCHED_GOLDEN = (
    "3daeefe495ce52b63342515204f19e6f3330a4b36c9fefdfb729b6bc5bc4b70d"
)


def _stress_trace(seed: int) -> list:
    """A workload built to shake out ordering bugs.  One RNG feeds every
    process, so any reordering also changes the draws that follow it.

    Workers sleep on timeouts spanning 1e-3..1e3 seconds, three in ten of
    them zero-delay (same-instant ties).  Most join an earlier worker of
    their round first, several often the same one, and some return right
    after joining: the two-waiters case the in-place rule must not reorder.
    The sequence counter is not part of the trace: events dispatched in
    place take none, so it differs from the queueing kernel by design.
    """
    rng = random.Random(seed)
    env = Environment()
    trace = []

    def worker(env, wid, joined):
        try:
            if joined is not None:
                value = yield joined
                trace.append((round(env.now, 9), wid, "joined", value))
            for i in range(rng.randint(0, 5)):
                scale = 10.0 ** rng.randint(-3, 3)
                delay = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, scale)
                yield env.timeout(delay)
                trace.append((round(env.now, 9), wid, i))
        except BaseException as exc:  # Interrupt, or a joined worker's
            trace.append((round(env.now, 9), wid, repr(exc)))
            raise
        return wid

    def chaos(env):
        for round_no in range(40):
            procs = []
            for k in range(5):
                joined = (rng.choice(procs)
                          if procs and rng.random() < 0.6 else None)
                proc = env.process(worker(env, (round_no, k), joined))
                # Observe failures so interrupted workers don't surface
                # their Interrupt out of run().
                proc.callbacks.append(lambda ev: None)
                procs.append(proc)
            for proc in procs:
                if rng.random() < 0.2 and proc.is_alive:
                    proc.interrupt("die")  # same-step: defuses first resume
            yield env.timeout(rng.uniform(0.0, 50.0))

    env.process(chaos(env))
    env.run()
    trace.append(("end", env.now))
    return trace


class TestKernelStressEquivalence:
    def test_traces_bit_identical(self):
        for seed, golden in STRESS_GOLDEN.items():
            trace = json.dumps(_stress_trace(seed))
            assert hashlib.sha256(trace.encode("utf-8")).hexdigest() == golden


def _scenario_digest() -> str:
    spec = ScenarioSpec(seed=5, users=25, duration=8.0, workload="batched",
                        batches=3)
    with Deployment(spec) as dep:
        dep.run()
    log = json.dumps(dep.system.request_log, sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(log.encode("utf-8")).hexdigest()


class TestScenarioEquivalence:
    def test_batched_scenario_digests_match(self):
        assert _scenario_digest() == BATCHED_GOLDEN
