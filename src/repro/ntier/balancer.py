"""HAProxy-style load balancer with runtime membership changes.

The paper fronts every scalable tier (Tomcat, and MySQL when replicated)
with HAProxy.  The balancer's behaviour matters to DCM in two ways:

* **Membership churn** — the VM-agent adds freshly-booted servers and drains
  servers marked for removal, without dropping in-flight requests.
* **Imperfect balance** — the paper's correction factor γ in Eq (4) exists
  because "the load imbalancing problem among servers" keeps K servers from
  delivering K× one server's throughput.  We model this with a configurable
  ``imbalance`` probability: that fraction of picks bypasses the policy and
  goes to the *first* eligible backend — a persistent skew of the
  sticky-session / hash-affinity kind.  Its throughput cost interacts with
  the concurrency curve: skew is nearly free while both servers sit on the
  flat part of Fig 2(a), and expensive once the favourite crosses the
  thrash knee (see ``bench_ablation_balance.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.server import TierServer

#: Valid balancing policies.
POLICIES = ("round_robin", "least_conn", "random")


class Balancer:
    """Distributes work over a dynamic set of backend servers.

    Parameters
    ----------
    name:
        Label (e.g. ``"haproxy-app"``).
    policy:
        One of :data:`POLICIES`.
    imbalance:
        Probability in ``[0, 1]`` that a pick ignores the policy and goes to
        the first eligible backend — the knob behind the paper's γ < linear
        scaling.
    rng:
        numpy Generator used for the imbalance/random draws.  Required for
        stochastic configurations (``policy="random"`` or ``imbalance > 0``)
        and must come from the experiment's
        :class:`~repro.sim.rng.RandomStreams` so draws are reproducible
        from the root seed; deterministic policies may omit it.
    """

    def __init__(
        self,
        name: str,
        policy: str = "least_conn",
        imbalance: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}; pick from {POLICIES}")
        if not 0.0 <= imbalance <= 1.0:
            raise ConfigurationError(f"imbalance must be in [0, 1], got {imbalance}")
        if rng is None and (policy == "random" or imbalance > 0.0):
            raise ConfigurationError(
                f"{name}: policy={policy!r} with imbalance={imbalance} draws "
                "random numbers; pass a generator from RandomStreams"
            )
        self.name = name
        self.policy = policy
        self.imbalance = imbalance
        self._rng = rng
        self._backends: List["TierServer"] = []
        # Monotonic registration order, used as the least_conn tie-break.
        # Breaking ties on the *name* sorts lexicographically ("tomcat-10"
        # before "tomcat-2"), silently reordering ties once a tier reaches
        # ten servers; the numeric join index never does.
        self._reg_index: dict = {}
        self._reg_seq = 0
        # Round-robin cursor: the *last picked* backend plus a numeric
        # fallback position, so the rotation survives membership churn
        # (see ``pick``) instead of taking a modulo over a shifting list.
        self._rr_last: Optional["TierServer"] = None
        self._rr_index = 0
        self._dispatches = 0
        #: Resilience-policy chain wrapped around ``dispatch`` (see
        #: repro.faults.policies), set by :meth:`install_policy`.  ``None``
        #: keeps the historical pick+handle path, which golden-digest tests
        #: pin bit-for-bit; the request path reads this plain attribute and,
        #: when it is ``None``, yields ``pick_for(request).handle(...)``
        #: itself instead of going through :meth:`dispatch`.
        self.chain: Optional[Callable] = None
        self._partitioned = False

    # -- membership -------------------------------------------------------------
    @property
    def backends(self) -> Sequence["TierServer"]:
        """All registered backends (including draining ones)."""
        return tuple(self._backends)

    def eligible(self) -> List["TierServer"]:
        """Backends currently accepting new work (none while partitioned)."""
        if self._partitioned:
            return []
        return [b for b in self._backends if b.accepting]

    @property
    def size(self) -> int:
        """Number of backends accepting new work."""
        return len(self.eligible())

    def add(self, server: "TierServer") -> None:
        """Register a backend (idempotent additions are an error)."""
        if server in self._backends:
            raise TopologyError(f"{server.name} already behind {self.name}")
        self._backends.append(server)
        self._reg_index[server] = self._reg_seq
        self._reg_seq += 1

    def remove(self, server: "TierServer") -> None:
        """Deregister a backend entirely (it should be drained first)."""
        try:
            self._backends.remove(server)
        except ValueError:
            raise TopologyError(f"{server.name} is not behind {self.name}") from None
        self._reg_index.pop(server, None)

    # -- picking ------------------------------------------------------------------
    def pick(self) -> "TierServer":
        """Choose a backend for one new request/query.

        Raises :class:`TopologyError` when no backend is accepting — callers
        turn that into a failed request.
        """
        candidates = self.eligible()
        if not candidates:
            raise TopologyError(f"{self.name}: no backend available")
        self._dispatches += 1
        if len(candidates) == 1:
            if self.policy == "round_robin":
                self._rr_last = candidates[0]
                self._rr_index = 1
            return candidates[0]
        if self.imbalance > 0.0 and self._rng.random() < self.imbalance:
            return candidates[0]
        if self.policy == "round_robin":
            # Anchor the rotation to the last picked backend: the next pick
            # is its successor in the *current* eligible list, so the first
            # ever pick goes to backend 0 and membership churn (drains,
            # additions) never double-picks or starves a survivor.  When the
            # last pick left the pool, fall back to the numeric position it
            # occupied, clamped into the new list.
            idx = self._rr_index
            if self._rr_last is not None:
                try:
                    idx = candidates.index(self._rr_last) + 1
                except ValueError:
                    # The last pick left the pool; its successor now sits at
                    # the position the departed backend occupied.
                    idx = max(0, idx - 1)
            if idx >= len(candidates):
                idx = 0
            chosen = candidates[idx]
            self._rr_last = chosen
            self._rr_index = idx + 1
            return chosen
        if self.policy == "least_conn":
            reg = self._reg_index
            return min(candidates, key=lambda b: (b.outstanding, reg.get(b, 0)))
        return candidates[int(self._rng.integers(len(candidates)))]

    def pick_for(self, request) -> "TierServer":
        """Choose a backend for ``request``.

        The plain balancer ignores the request (all backends are
        interchangeable); key-aware subclasses (the shard router) route on
        ``request.key``.  Dispatch and the resilience chains go through this
        hook so retries re-route each attempt.
        """
        return self.pick()

    @property
    def dispatches(self) -> int:
        """Total picks made."""
        return self._dispatches

    # -- faults & resilience ------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        """Whether a TierPartition fault currently severs this edge."""
        return self._partitioned

    def set_partitioned(self, partitioned: bool) -> None:
        """Sever (or heal) the link to every backend.

        While partitioned, :meth:`eligible` is empty, so :meth:`pick` raises
        :class:`TopologyError` — upstream servers fail the request fast
        (connection refused) rather than queueing into a black hole.
        """
        self._partitioned = bool(partitioned)

    def install_policy(self, chain: Optional[Callable]) -> None:
        """Wrap :meth:`dispatch` in a resilience-policy chain.

        ``chain(env, balancer, request, kwargs)`` must be a generator
        function; ``None`` restores the bare pick+handle path.
        """
        self.chain = chain

    def dispatch(self, env, request, **kwargs):
        """Route one request through the (optional) resilience chain.

        Generator — call sites drive it with ``yield from``.  With no chain
        installed this emits exactly the event sequence of the historical
        ``pick()`` + ``yield handle()`` pair, keeping digests bit-identical.
        """
        if self.chain is None:
            server = self.pick_for(request)
            result = yield server.handle(request, **kwargs)
            return result
        return (yield from self.chain(env, self, request, kwargs))
