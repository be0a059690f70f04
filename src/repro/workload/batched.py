"""Batched closed-loop user populations for million-user scale.

:class:`~repro.workload.rubbos.RubbosGenerator` keeps one live generator
process per emulated user, so a "Large Variation" trace at 10⁶ users would
hold a million suspended generators (and their queue placeholders) at once —
the blocker named by ROADMAP item 1.  :class:`BatchedPopulation` collapses N
statistically-identical users into a handful of *batches*, each driven by a
single aggregate arrival clock and plain integer counters.  No per-user
process exists at all; the only generators are the in-flight requests the
n-tier system itself creates.

Why the aggregation is exact (in distribution)
----------------------------------------------
Each emulated user cycles think → request → wait (see
:class:`~repro.workload.session.UserSession`) with Exp(Z) think times.  For a
batch with ``m`` users currently thinking, the time to the *next* request is
the minimum of ``m`` i.i.d. Exp(Z) clocks — itself Exp(Z/m) — so one draw
from Exp(Z/m) reproduces the aggregate arrival process.  When ``m`` changes
(an arrival fires, a request completes, the trace retargets the population),
memorylessness says the residual think times are again i.i.d. Exp(Z), so the
clock is simply *redrawn* at the new rate; the superseded draw is invalidated
by an epoch counter rather than cancelled.  Both steps are distribution-
preserving, so per-batch request streams are exactly those of ``m`` discrete
thinkers — only user *identity* within a batch is erased.  Each batch owns a
named RNG stream, making runs reproducible and batches independent.

The optional materialisation ``window`` caps how many requests per batch are
*live* inside the system at once; arrivals beyond it wait in an O(1) backlog
counter and materialise as slots free.  With the tiers saturated (the only
regime where the backlog grows), throughput is capacity-bound and admission
is FIFO, so this changes queue *bookkeeping*, not served traffic — it exists
to bound live-process memory at extreme populations.  ``window=None``
(default) materialises every arrival immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workload.rubbos import DEFAULT_THINK_TIME

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment

#: Default number of independent aggregate arrival processes.  A few batches
#: keep the arrival stream statistically rich (independent clocks) while the
#: per-event cost stays O(1) in the population size.
DEFAULT_BATCHES = 8


class _Batch:
    """Counters for one aggregate arrival process (no per-user state)."""

    __slots__ = ("rng", "thinking", "inflight", "backlog", "retiring", "epoch")

    def __init__(self, rng) -> None:
        self.rng = rng
        self.thinking = 0   # users between requests (the aggregate clock's m)
        self.inflight = 0   # users with a materialised request in the system
        self.backlog = 0    # users whose arrival awaits a window slot
        self.retiring = 0   # users leaving once their current request resolves
        self.epoch = 0      # invalidates superseded think-clock draws

    @property
    def population(self) -> int:
        return self.thinking + self.inflight + self.backlog - self.retiring


class BatchedPopulation:
    """N statistically-identical closed-loop users as batched arrival clocks.

    Drop-in for :class:`~repro.workload.rubbos.RubbosGenerator` wherever only
    the population API (``users`` / ``set_users`` / ``stop`` /
    ``user_history``) is consumed — in particular under
    :class:`~repro.workload.traced.TraceDrivenGenerator`.

    Parameters
    ----------
    env, system:
        Environment and target system.
    users:
        Initial population (may be 0; grown later via :meth:`set_users`).
    think_time:
        Mean exponential think time; must be positive (a zero-think closed
        loop has no aggregate clock to batch — use
        :class:`~repro.workload.jmeter.JMeterGenerator` for that regime).
    streams:
        Random streams; batch ``i`` draws from ``workload.batch.{i}.think``.
    batches:
        Number of independent aggregate arrival processes.
    window:
        Per-batch cap on simultaneously materialised requests (see module
        docstring); ``None`` disables the cap.
    """

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        users: int = 0,
        think_time: float = DEFAULT_THINK_TIME,
        streams: Optional[RandomStreams] = None,
        batches: int = DEFAULT_BATCHES,
        window: Optional[int] = None,
    ) -> None:
        if users < 0:
            raise ConfigurationError(f"users must be >= 0, got {users}")
        if think_time <= 0:
            raise ConfigurationError(
                "BatchedPopulation requires positive think time"
            )
        if batches < 1:
            raise ConfigurationError(f"batches must be >= 1, got {batches}")
        if window is not None and window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.env = env
        self.system = system
        self.think_time = float(think_time)
        self.window = window
        self.streams = streams or system.streams
        self._batches: List[_Batch] = [
            _Batch(self.streams.stream(f"workload.batch.{i}.think"))
            for i in range(batches)
        ]
        self._user_history: List[Tuple[float, int]] = []
        self.requests_issued = 0
        if users:
            self.set_users(users)

    # -- population control ---------------------------------------------------------
    @property
    def users(self) -> int:
        """Current population size across all batches."""
        return sum(b.population for b in self._batches)

    @property
    def user_history(self) -> List[Tuple[float, int]]:
        """``(time, users)`` samples recorded at every population change."""
        return list(self._user_history)

    @property
    def outstanding(self) -> int:
        """Requests issued-but-unresolved (materialised + backlogged)."""
        return sum(b.inflight + b.backlog for b in self._batches)

    def set_users(self, target: int) -> None:
        """Grow or shrink the population to ``target`` users.

        Growth adds thinkers (their first request follows a fresh think
        draw, the batched analogue of staggered session start-up); shrinkage
        removes thinkers first and marks the remainder to retire when their
        in-flight request resolves — users never abandon a request, matching
        :meth:`UserSession.stop`.
        """
        if target < 0:
            raise ConfigurationError(f"target users must be >= 0, got {target}")
        nbatches = len(self._batches)
        base, extra = divmod(target, nbatches)
        for i, batch in enumerate(self._batches):
            delta = (base + (1 if i < extra else 0)) - batch.population
            if delta > 0:
                # Re-hire retirees before admitting new thinkers so the
                # population counter stays exact under rapid retargeting.
                rehired = min(delta, batch.retiring)
                batch.retiring -= rehired
                batch.thinking += delta - rehired
            elif delta < 0:
                drop = min(-delta, batch.thinking)
                batch.thinking -= drop
                batch.retiring += (-delta) - drop
            if delta:
                self._rearm(batch)
        self._user_history.append((self.env.now, target))

    def stop(self) -> None:
        """Gracefully stop the whole population."""
        self.set_users(0)

    # -- the aggregate clock ----------------------------------------------------------
    def _rearm(self, batch: _Batch) -> None:
        """(Re)draw the batch's single think clock at the current rate."""
        batch.epoch += 1
        m = batch.thinking
        if m <= 0:
            return
        delay = float(batch.rng.exponential(self.think_time / m))
        timer = self.env.timeout(delay)
        timer.callbacks.append(
            lambda _event, b=batch, e=batch.epoch: self._fire(b, e)
        )

    def _fire(self, batch: _Batch, epoch: int) -> None:
        if epoch != batch.epoch or batch.thinking <= 0:
            return  # superseded draw: the state it was armed for is gone
        batch.thinking -= 1
        if self.window is None or batch.inflight < self.window:
            self._dispatch(batch)
        else:
            batch.backlog += 1
        self._rearm(batch)

    def _dispatch(self, batch: _Batch) -> None:
        batch.inflight += 1
        self.requests_issued += 1
        _request, done = self.system.submit()
        done.callbacks.append(lambda event, b=batch: self._complete(b, event))

    def _complete(self, batch: _Batch, done) -> None:
        if not done.ok:
            # The request's process books every ordinary error as a failed
            # request; it fails only on a sanitizer finding (or a
            # BaseException), which must escape env.run() as it does for a
            # UserSession waiting on the request.
            raise done.value
        batch.inflight -= 1
        if batch.backlog > 0 and (
            self.window is None or batch.inflight < self.window
        ):
            batch.backlog -= 1
            self._dispatch(batch)
        if batch.retiring > 0:
            batch.retiring -= 1
        else:
            batch.thinking += 1
            self._rearm(batch)
