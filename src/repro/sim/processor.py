"""State-dependent processor-sharing CPU with multi-threading contention.

This is the physical heart of the substrate.  The paper's service-time model
(Section III-B) says that with ``N`` concurrently executing threads, each
request's service time inflates from the single-threaded ``S0`` to

    S*(N) = S0 + alpha*(N-1) + beta*N*(N-1)

i.e. by an *inflation factor* ``phi(N) = S*(N)/S0``.  We simulate exactly that
physics: when ``n`` jobs are in service, every job progresses through its
remaining work at rate ``1/phi(n)`` (work is measured in single-threaded
seconds).  Aggregate completion rate is therefore ``n / (S0*phi(n)) = n/S*(n)``
for homogeneous jobs — the paper's Eq (6)/(7) emerges from the simulation
rather than being baked into measurement code.

The implementation uses the classic *virtual time* trick for egalitarian
processor sharing: all active jobs accrue virtual work at the same rate, so a
job submitted when the accrued virtual work was ``V0`` completes when the
accrued work reaches ``V0 + work``.  Completion order is then a priority
queue on that threshold, and every arrival/departure costs ``O(log n)``.

Performance notes
-----------------
Every arrival and departure re-arms the completion timer, so the timer and
the per-membership-change arithmetic are on the simulation's hot path:

* The timer is a slotted :class:`_Timer` heap entry with the usual
  ``(when, NORMAL, seq)`` key.  The loop dispatches it through the
  first-resume path (it is ``PENDING``), so no :class:`Event`, callback
  list or closure is allocated per timer.  A timer that is no longer the
  processor's current one has been superseded and does nothing.
* When a timer completes exactly one job, the job's event is dispatched in
  place (see "In-place dispatch" in :mod:`repro.sim.core`): the timer
  callback ends with that trigger.
* The coefficients that depend only on the job count — ``phi(n)``, the
  degraded ``phi(n)*slowdown``, the rate, the utilisation gauge and the
  efficiency — are cached per job count and cleared by
  :meth:`ContentionProcessor.set_slowdown`.  Each is evaluated by the same
  expression, in the same operand order, as the uncached arithmetic, so
  caching changes no float.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

_EPS = 1e-12


class _Timer:
    """A processor's completion timer on the event heap.

    ``PENDING`` so the loop dispatches it through the first-resume path
    (``_start``); it fires only while it is still the processor's current
    timer — a later arrival or departure supersedes it.
    """

    __slots__ = ("cpu",)
    _state = PENDING
    _defused = False

    def __init__(self, cpu: "ContentionProcessor") -> None:
        self.cpu = cpu

    def _start(self) -> None:
        cpu = self.cpu
        if cpu._timer is self:
            cpu._on_timer()


class ContentionProcessor:
    """A CPU shared by concurrent jobs under a contention-inflation law.

    Parameters
    ----------
    env:
        Owning environment.
    inflation:
        ``phi(n) -> float``; must satisfy ``phi(1) == 1`` and ``phi(n) >= 1``.
        ``phi`` is sampled lazily and cached, so it must be pure.
    peak_search_limit:
        Upper bound of the concurrency range scanned to find the peak
        processing rate used for the utilization metric.
    name:
        Label for diagnostics.
    """

    def __init__(
        self,
        env: "Environment",
        inflation: Callable[[int], float],
        peak_search_limit: int = 2048,
        name: str = "",
    ) -> None:
        self.env = env
        self.name = name
        self._inflation_fn = inflation
        self._phi_cache: dict[int, float] = {}
        self._peak_rate, self._peak_concurrency = self._find_peak(peak_search_limit)

        # Virtual-time machinery.
        self._virtual = 0.0          # accrued per-job virtual work
        self._last_update = env.now  # last wall-clock at which _virtual advanced
        self._jobs: list[tuple[float, int, Event]] = []  # (threshold, seq, done)
        self._seq = 0
        #: The armed completion timer (``None`` while idle).
        self._timer: Optional[_Timer] = None
        # Degradation multiplier on the effective inflation (SlowNode fault).
        # Exactly 1.0 multiplies through without changing any float (IEEE
        # guarantees x*1.0 == x), so the healthy path stays bit-identical.
        self._slowdown = 1.0
        #: job count -> (phi, phi*slowdown, rate, util gauge, efficiency)
        self._coef: dict[int, tuple[float, float, float, float, float]] = {}

        # Monitoring accumulators.
        self._util_integral = 0.0    # integral of min(1, n/n_peak) dt
        self._eff_integral = 0.0     # integral of (rate ratio) dt
        self._busy_integral = 0.0    # integral of active job count dt
        self._nonidle_integral = 0.0  # time with >= 1 job in service
        self._completions = 0
        self._work_done = 0.0

    # -- inflation helpers ----------------------------------------------------
    def phi(self, n: int) -> float:
        """Cached inflation factor for ``n`` concurrent jobs."""
        val = self._phi_cache.get(n)
        if val is None:
            val = float(self._inflation_fn(n))
            if n == 1 and abs(val - 1.0) > 1e-9:
                raise SimulationError(f"inflation(1) must be 1.0, got {val}")
            if val < 1.0 - 1e-9:
                raise SimulationError(f"inflation({n}) = {val} < 1 is unphysical")
            self._phi_cache[n] = val
        return val

    def rate(self, n: int) -> float:
        """Aggregate work-completion rate with ``n`` jobs (work-sec / sec)."""
        return 0.0 if n <= 0 else n / self.phi(n)

    @property
    def peak_rate(self) -> float:
        """Maximum achievable aggregate rate over all concurrency levels."""
        return self._peak_rate

    @property
    def peak_concurrency(self) -> int:
        """Concurrency level at which the aggregate rate peaks."""
        return self._peak_concurrency

    def _coefficients(self, n: int) -> tuple[float, float, float, float, float]:
        """Per-job-count coefficients of :meth:`_advance` / :meth:`_reschedule`."""
        phi = self.phi(n)
        phi_s = phi * self._slowdown
        rate = n / phi_s
        util = min(1.0, max(rate / self._peak_rate, n / self._peak_concurrency))
        coef = (phi, phi_s, rate, util, rate / self._peak_rate)
        self._coef[n] = coef
        return coef

    def _find_peak(self, limit: int) -> tuple[float, int]:
        best, best_n = 0.0, 1
        for n in range(1, limit + 1):
            rate = n / float(self._inflation_fn(n))
            if rate > best:
                best, best_n = rate, n
        return best, best_n

    # -- introspection ----------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    @property
    def completions(self) -> int:
        """Total jobs completed since creation."""
        return self._completions

    @property
    def work_done(self) -> float:
        """Total single-threaded work-seconds completed since creation."""
        return self._work_done

    def utilization_integral(self) -> float:
        """Integral over time of the CPU-busy gauge.

        This is what a ``top``-style CPU gauge reports: how loaded the CPU
        looks.  Defined as ``max(rate(n)/peak_rate, n/n_peak)`` capped at 1:
        a CPU delivering 80 % of its peak useful throughput reads at least
        80 % busy, and an over-threaded CPU reads 100 % busy even though it
        delivers *less* useful work (thrash burns cycles).  Threshold
        controllers (EC2-AutoScale, DCM's VM level) consume this metric.
        """
        self._advance()
        return self._util_integral

    def efficiency_integral(self) -> float:
        """Integral over time of the *rate ratio* ``rate(n)/peak_rate``.

        Dividing a window's delta by the window length gives the fraction of
        the CPU's peak useful throughput actually delivered.  Unlike
        :meth:`utilization_integral` it reaches 1.0 only at the optimal
        concurrency and *drops* under over-threading — the waste DCM's
        concurrency management eliminates (visible in the ablation benches).
        """
        self._advance()
        return self._eff_integral

    def busy_integral(self) -> float:
        """Integral over time of the in-service job count (for mean conc.)."""
        self._advance()
        return self._busy_integral

    def nonidle_integral(self) -> float:
        """Total time with at least one job in service.

        Conditioning window averages on non-idle time puts measured
        (concurrency, throughput) pairs *on* the contention curve even at
        low load, where naive window averages fall below it (the server
        idles between requests).
        """
        self._advance()
        return self._nonidle_integral

    # -- degradation (SlowNode fault) -------------------------------------------
    @property
    def slowdown(self) -> float:
        """Current degradation multiplier (1.0 = healthy)."""
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the CPU: effective inflation is
        ``phi(n) * factor``.  Settles accrued work at the old speed first,
        then re-arms the completion timer at the new speed."""
        if factor < 1.0:
            raise SimulationError(f"slowdown factor must be >= 1.0, got {factor}")
        self._advance()
        self._slowdown = float(factor)
        self._coef.clear()
        self._reschedule()

    # -- job submission ---------------------------------------------------------
    def execute(self, work: float) -> Event:
        """Submit a job needing ``work`` single-threaded seconds.

        Returns an event that fires when the job completes.  Zero-work jobs
        complete immediately (still via the event queue, preserving FIFO
        causality).
        """
        if work < 0:
            raise SimulationError(f"negative work: {work!r}")
        done = Event(self.env)
        if work == 0.0:
            done.succeed()
            return done
        self._advance()
        self._seq += 1
        heapq.heappush(self._jobs, (self._virtual + work, self._seq, done))
        self._reschedule()
        return done

    # -- internals ----------------------------------------------------------------
    def _advance(self) -> None:
        """Accrue virtual work and monitoring integrals up to ``env.now``."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0.0:
            return
        n = len(self._jobs)
        if n:
            coef = self._coef.get(n) or self._coefficients(n)
            self._virtual += dt / coef[1]
            self._util_integral += dt * coef[3]
            self._eff_integral += dt * coef[4]
            self._busy_integral += dt * n
            self._nonidle_integral += dt
            self._work_done += dt * coef[2]

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest-finishing job."""
        jobs = self._jobs
        if not jobs:
            self._timer = None
            return
        n = len(jobs)
        coef = self._coef.get(n) or self._coefficients(n)
        delay = (jobs[0][0] - self._virtual) * coef[0] * self._slowdown
        if not delay > 0.0:  # max(0.0, delay), without the call
            delay = 0.0
        self._timer = timer = _Timer(self)
        env = self.env
        env._seq = seq = env._seq + 1
        heapq.heappush(env._heap, (env._now + delay, NORMAL, seq, timer))

    def _on_timer(self) -> None:
        self._advance()
        virtual = self._virtual
        tolerance = _EPS * (virtual if virtual > 1.0 else 1.0) * 1e3
        limit = virtual + tolerance
        jobs = self._jobs
        completed: list[Event] = []
        while jobs and jobs[0][0] <= limit:
            completed.append(heapq.heappop(jobs)[2])
        self._completions += len(completed)
        self._reschedule()
        if len(completed) == 1:
            # The lone completion is this timer's last action.
            completed[0]._succeed_in_place()
        else:
            for done in completed:
                done.succeed()
