"""The revised RUBBoS client emulator: trace-driven user populations.

Section II-A: "the revised RUBBoS client emulator ... simulates realistic
workload under a dynamically changing number of concurrent users based on a
workload trace file."  :class:`TraceDrivenGenerator` replays a
:class:`~repro.workload.traces.WorkloadTrace` by retargeting a
:class:`~repro.workload.rubbos.RubbosGenerator` population at a fixed update
interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workload.rubbos import DEFAULT_THINK_TIME, RubbosGenerator
from repro.workload.traces import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment
    from repro.sim.events import Process


class TraceDrivenGenerator:
    """Replays a workload trace as a dynamically-sized user population.

    Parameters
    ----------
    env, system:
        Environment and target system.
    trace:
        The trace to replay.  Levels are multiplied by ``max_users``.
    max_users:
        Population corresponding to trace level 1.0.
    update_interval:
        How often the population is retargeted (seconds).
    think_time / streams:
        Forwarded to the underlying :class:`RubbosGenerator`.
    population:
        A pre-built population to retarget instead of the default
        :class:`RubbosGenerator` — anything exposing ``users`` /
        ``set_users`` / ``stop``, e.g. a
        :class:`~repro.workload.batched.BatchedPopulation` for
        million-user traces.  When given, ``think_time``/``streams``
        are ignored (the population was already configured).
    """

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        trace: WorkloadTrace,
        max_users: int,
        update_interval: float = 1.0,
        think_time: float = DEFAULT_THINK_TIME,
        streams: Optional[RandomStreams] = None,
        population=None,
    ) -> None:
        if max_users < 1:
            raise ConfigurationError(f"max_users must be >= 1, got {max_users}")
        if update_interval <= 0:
            raise ConfigurationError("update_interval must be positive")
        self.env = env
        self.trace = trace
        self.max_users = int(max_users)
        self.update_interval = update_interval
        self.population = population if population is not None else RubbosGenerator(
            env, system, users=0, think_time=think_time, streams=streams
        )
        self._applied: List[Tuple[float, int]] = []
        self._process: Optional["Process"] = None
        self._stopping = False

    # -- control -------------------------------------------------------------------
    def start(self) -> "Process":
        """Begin replaying the trace; returns the replay process (which
        finishes when the trace ends, stopping all users)."""
        if self._process is not None:
            raise ConfigurationError("trace replay already started")
        self._process = self.env.process(self._replay())
        return self._process

    def stop(self) -> None:
        """Stop replaying and gracefully wind the population down; the
        replay process exits at its next update tick."""
        self._stopping = True
        self.population.stop()

    def target_at(self, t: float) -> int:
        """User target at trace time ``t`` (level × max_users, rounded)."""
        return int(round(self.trace.level_at(t) * self.max_users))

    # -- internals ------------------------------------------------------------------
    def _replay(self):
        start = self.env.now
        while not self._stopping:
            elapsed = self.env.now - start
            if elapsed > self.trace.duration:
                break
            target = self.target_at(elapsed)
            if target != self.population.users:
                self.population.set_users(target)
                self._applied.append((self.env.now, target))
            yield self.env.timeout(self.update_interval)
        self.population.stop()
        return len(self._applied)
