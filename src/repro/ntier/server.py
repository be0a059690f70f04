"""Base class shared by all component servers (Apache, Tomcat, MySQL).

A :class:`TierServer` owns a :class:`~repro.sim.processor.ContentionProcessor`
(its CPU, governed by the tier's ground-truth contention law) and exposes the
cumulative counters the monitoring agent samples every second:
arrivals/completions/failures, residence-time sums, CPU-utilization and
concurrency integrals, and pool statistics.  Two ways to serve an
interaction:

* :class:`TierServer` runs each interaction as a :class:`Process` over the
  subclass's :meth:`~TierServer._process` generator (Apache, Tomcat: they
  hold a thread across several stages, and their crash semantics — an
  orphaned downstream child keeps running — rest on the process);
* :class:`SingleStageServer` serves each interaction as one CPU burst run
  as callbacks, with no process at all (MySQL, cache nodes).

Life-cycle: a server starts ``accepting``; :meth:`begin_drain` stops new
admissions (HAProxy keeps it registered but stops picking it) and
:meth:`drained_event` fires when the last in-flight interaction completes —
the hand-off point at which the VM-agent may terminate the underlying VM.
"""

from __future__ import annotations

from inspect import GEN_CREATED, getgeneratorstate
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.check import config as _checks
from repro.errors import InvariantViolation, TopologyError
from repro.ntier.contention import ContentionModel
from repro.ntier.request import Request
from repro.sim.events import URGENT, Event, Interrupt, Process
from repro.sim.processor import ContentionProcessor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Cached :func:`repro.check.config.enabled`; re-resolved whenever the
#: sanitizer switch changes (the ``_POOL_CHECK`` pattern of
#: :mod:`repro.sim.resources`), so a disarmed booking pays one global load.
_CONSERVATION_CHECK = False


def _refresh_check_flags() -> None:
    global _CONSERVATION_CHECK
    _CONSERVATION_CHECK = _checks.enabled()


_checks.subscribe(_refresh_check_flags)


class TierServer:
    """One component server instance within a tier."""

    #: Subclasses set this ("web", "app", "db").
    tier: str = "generic"

    def __init__(
        self,
        env: "Environment",
        name: str,
        contention: ContentionModel,
        peak_search_limit: int = 2048,
    ) -> None:
        self.env = env
        self.name = name
        self.contention = contention
        self.cpu = ContentionProcessor(
            env, contention.inflation, peak_search_limit=peak_search_limit, name=name
        )
        self._accepting = True
        self._draining = False
        self._drained_event: Optional[Event] = None

        # Cumulative counters (the monitor computes windowed deltas).
        self.arrivals = 0
        self.completions = 0
        self.failures = 0
        self.residence_time_total = 0.0
        self.queue_time_total = 0.0
        # Independent in-flight ledger: incremented on admission, decremented
        # on completion/failure.  ``outstanding`` is *derived* from the
        # cumulative counters, so the sanitizer can cross-check the two and
        # catch double-counted or lost requests (request conservation).
        self._inflight = 0
        # Live interactions (process -> its generator, or result event of a
        # single-stage server -> None), insertion-ordered so a crash kills
        # them deterministically.  Populated by ``handle``; pruned when the
        # interaction resolves.
        self._live: Dict[Event, Optional[Generator]] = {}
        # Extra per-interaction network delay on admission (LatencySpike
        # fault).  Exactly 0.0 yields no event — zero-cost when unused.
        self.ingress_latency = 0.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} outstanding={self.outstanding}>"

    # -- admission state ---------------------------------------------------------
    @property
    def accepting(self) -> bool:
        """Whether the balancer may send new work here."""
        return self._accepting and not self._draining

    @property
    def draining(self) -> bool:
        """Whether the server is finishing in-flight work before shutdown."""
        return self._draining

    @property
    def outstanding(self) -> int:
        """Interactions currently in flight (queued or in service)."""
        return self.arrivals - self.completions - self.failures

    @property
    def inflight(self) -> int:
        """Independently tracked in-flight count (sanitizer cross-check)."""
        return self._inflight

    def begin_drain(self) -> None:
        """Stop accepting new work; in-flight interactions run to completion."""
        self._draining = True
        self._maybe_finish_drain()

    def cancel_drain(self) -> None:
        """Abort a drain (e.g. the controller changed its mind)."""
        self._draining = False
        self._drained_event = None

    def drained_event(self) -> Event:
        """Event firing once draining and ``outstanding == 0``."""
        if self._drained_event is None:
            self._drained_event = Event(self.env)
            self._maybe_finish_drain()
        return self._drained_event

    def _maybe_finish_drain(self) -> None:
        if (
            self._draining
            and self.outstanding == 0
            and self._drained_event is not None
            and not self._drained_event.triggered
        ):
            self._drained_event.succeed(self)

    def crash(self, reason: str = "crash") -> int:
        """Kill the server: stop admissions, abort every in-flight interaction.

        Models an abrupt VM/process death (no drain, no goodbye).  Each live
        interaction process is interrupted; the interrupt surfaces inside
        :meth:`_handle`, which records a failure — so conservation holds
        (``arrivals == completions + failures``) even across a crash.  An
        interaction admitted at the crash instant has not started yet: the
        interrupt defuses its first resume, so its body never runs, and the
        failure is booked here instead.  Returns the number of interactions
        killed.
        """
        self._accepting = False
        killed = 0
        for proc, body in list(self._live.items()):
            unstarted = getgeneratorstate(body) == GEN_CREATED
            target = proc.target
            proc.interrupt(reason)
            killed += 1
            if unstarted:
                # Nothing inside ``_handle`` will book or prune it.
                del self._live[proc]
                self._book_failure()
                continue
            if target is None:
                continue  # already interrupted by a crash at this instant
            cancel = getattr(target, "cancel", None)
            if cancel is not None:
                # Queued pool acquisition (thread / db connection): withdraw
                # it, or the pool would later grant a slot to a dead event
                # and leak capacity permanently.
                cancel()
            elif isinstance(target, Process):
                # The interaction was waiting on a downstream interaction.
                # That child keeps running; absorb its eventual outcome so a
                # failure with no remaining observer cannot crash env.run()
                # (the child's own server still accounts it).
                target.callbacks.append(lambda _evt: None)
        return killed

    # -- request handling ------------------------------------------------------
    def handle(self, request: Request, **kwargs: Any) -> Event:
        """Process one interaction of ``request``; returns its completion event.

        Wraps the subclass :meth:`_process` generator with arrival/completion
        accounting and optional fine-grained tracing.  Extra keyword
        arguments are forwarded to :meth:`_process` (MySQL receives the
        per-query ``demand`` this way).
        """
        if not self._accepting or self._draining:
            raise TopologyError(f"{self.name} is not accepting requests")
        self.arrivals += 1
        self._inflight += 1
        env = self.env
        arrived = env._now
        interaction = (
            None if request.interactions is None
            else request.trace(self.name, self.tier, arrived)
        )
        body = self._handle(request, arrived, interaction, kwargs)
        proc = Process(env, body)
        self._live[proc] = body
        return proc

    def _handle(self, request, arrived, interaction, kwargs) -> Generator[Event, Any, None]:
        # Pruned here rather than by a callback on the process, so the
        # caller stays the lone waiter on the interaction's return.
        proc = self.env._active_proc
        try:
            started_holder = [arrived]
            if self.ingress_latency > 0.0:
                yield self.env.timeout(self.ingress_latency)
            yield from self._process(request, started_holder, **kwargs)
        except Exception:
            self._live.pop(proc, None)
            self._book_failure()
            raise
        self._live.pop(proc, None)
        self._book_completion(arrived, started_holder[0], interaction)

    def _book_completion(self, arrived: float, started: float, interaction) -> None:
        now = self.env._now
        self.completions += 1
        self._inflight -= 1
        self.residence_time_total += now - arrived
        self.queue_time_total += started - arrived
        if interaction is not None:
            interaction.started = started
            interaction.completed = now
        if _CONSERVATION_CHECK:
            self._check_conservation()
        if self._draining:
            self._maybe_finish_drain()

    def _book_failure(self) -> None:
        self.failures += 1
        self._inflight -= 1
        if _CONSERVATION_CHECK:
            self._check_conservation()
        if self._draining:
            self._maybe_finish_drain()

    def _check_conservation(self) -> None:
        """Sanitizer check (armed: ``_CONSERVATION_CHECK``): arrived ==
        completed + dropped + in-flight."""
        if (self._inflight != self.outstanding or self._inflight < 0
                or self.completions < 0 or self.failures < 0):
            raise InvariantViolation(
                self.name, "request-conservation", self.env.now,
                f"arrived={self.arrivals} != completed={self.completions} "
                f"+ dropped={self.failures} + in_flight={self._inflight}",
            )

    def _process(
        self, request: Request, started_holder: list, **kwargs: Any
    ) -> Generator[Event, Any, None]:
        """Subclass hook: the server-specific flow for one interaction.

        ``started_holder`` is a single-element list; implementations store
        the time at which the interaction obtained its thread/slot (i.e.
        left the admission queue) in ``started_holder[0]``.
        """
        raise NotImplementedError

    # -- monitoring --------------------------------------------------------------
    @property
    def concurrency(self) -> int:
        """Instantaneous request-processing concurrency on the CPU."""
        return self.cpu.active_jobs

    def snapshot(self) -> Dict[str, float]:
        """Cumulative counters for the monitoring agent (delta-friendly)."""
        return {
            "arrivals": float(self.arrivals),
            "completions": float(self.completions),
            "failures": float(self.failures),
            "residence_time_total": self.residence_time_total,
            "queue_time_total": self.queue_time_total,
            "cpu_util_integral": self.cpu.utilization_integral(),
            "cpu_eff_integral": self.cpu.efficiency_integral(),
            "cpu_busy_integral": self.cpu.busy_integral(),
            "cpu_nonidle_integral": self.cpu.nonidle_integral(),
            "outstanding": float(self.outstanding),
        }


class SingleStageServer(TierServer):
    """A server that serves each interaction as one CPU burst, as callbacks.

    MySQL servers and cache nodes do one thing per interaction: admit it,
    run one CPU job, book the outcome.  They get no :class:`Process`, no
    ``_handle`` generator and no reaping callback.  :meth:`handle` books the
    arrival, runs the subclass's :meth:`_admit` hook (which may refuse, and
    returns the CPU demand) and submits the CPU job; a callback on the job
    books the completion through :meth:`_commit` and fires the event
    :meth:`handle` returned — dispatched in place when it is provably the
    next event (see :mod:`repro.sim.core`).  A ``LatencySpike`` ingress
    delay is a timeout before admission on this same path.

    :meth:`crash` fails every pending result with ``Interrupt(reason)`` and
    books exactly one failure for it, through an ``URGENT`` wake-up at the
    crash instant — where an interrupted process would have booked it.  An
    orphaned CPU job keeps running (the CPU cannot take work back) but
    neither commits nor counts.
    """

    def handle(self, request: Request, **kwargs: Any) -> Event:
        """Serve one interaction of ``request``; returns its result event.

        The event succeeds with ``None`` when the interaction completes and
        fails with the admission error (e.g. ``CapacityError``) or the
        crash ``Interrupt`` otherwise.
        """
        if not self._accepting or self._draining:
            raise TopologyError(f"{self.name} is not accepting requests")
        self.arrivals += 1
        self._inflight += 1
        env = self.env
        arrived = env._now
        interaction = (
            None if request.interactions is None
            else request.trace(self.name, self.tier, arrived)
        )
        result = Event(env)
        self._live[result] = None
        if self.ingress_latency > 0.0:
            env.timeout(self.ingress_latency).callbacks.append(
                lambda _ev: self._serve(result, request, arrived, interaction, kwargs)
            )
        else:
            self._serve(result, request, arrived, interaction, kwargs)
        return result

    def _serve(self, result: Event, request: Request, arrived: float,
               interaction, kwargs: Dict[str, Any]) -> None:
        if result not in self._live:
            return  # crashed during the ingress delay
        try:
            demand = self._admit(request, kwargs)
        except InvariantViolation:
            raise
        except Exception as err:  # refused: the caller gets the error
            del self._live[result]
            self._book_failure()
            result.fail(err)
            return
        started = self.env._now
        self.cpu.execute(demand).callbacks.append(
            lambda _ev: self._finish(result, request, arrived, started,
                                     interaction, kwargs)
        )

    def _finish(self, result: Event, request: Request, arrived: float,
                started: float, interaction, kwargs: Dict[str, Any]) -> None:
        live = self._live
        if result not in live:
            return  # orphan of a crash: neither commits nor counts
        del live[result]
        self._commit(request, kwargs)
        self._book_completion(arrived, started, interaction)
        # The result is this callback's last action.
        result._succeed_in_place()

    def crash(self, reason: str = "crash") -> int:
        """Kill the server: fail every pending interaction (see class doc)."""
        self._accepting = False
        pending = list(self._live)
        self._live.clear()
        for result in pending:
            wakeup = Event(self.env)
            wakeup.callbacks.append(
                lambda _ev, result=result: self._abort(result, reason)
            )
            wakeup.succeed(priority=URGENT)
        return len(pending)

    def _abort(self, result: Event, reason: str) -> None:
        self._book_failure()
        result.fail(Interrupt(reason))

    def _admit(self, request: Request, kwargs: Dict[str, Any]) -> float:
        """Subclass hook: admit one interaction; returns its CPU demand.

        Raising refuses the interaction: the server books a failure and the
        caller's result event fails with the exception.
        """
        raise NotImplementedError

    def _commit(self, request: Request, kwargs: Dict[str, Any]) -> None:
        """Subclass hook: book the effect of one completed interaction."""
        raise NotImplementedError
