"""The concurrency-aware model (Sections III-B, III-C) as a fitted artifact.

:class:`ConcurrencyModel` is what DCM *believes* about a tier: the quadratic
Eq (5) service-time law with parameters estimated from measurements.  It is
deliberately separate from :class:`repro.ntier.contention.ContentionModel`
(the simulator's ground truth, which additionally has the thrash term the
model does not know about) — keeping the learner and the world apart is the
point of the reproduction.

Closed forms implemented:

* Eq (5)  ``S*(N) = S0 + alpha(N-1) + beta N(N-1)``
* Eq (6)  ``S(N)  = S*(N) / N``
* Eq (7)  ``X(N)  = gamma K N / S*(N)``
* III-C   ``N_b   = sqrt((S0 - alpha)/beta)``
* Eq (8)  ``max X = gamma K / (V (2 sqrt((S0-alpha) beta) + alpha - beta))``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class ConcurrencyModel:
    """Fitted Eq (5)/(7) parameters for one tier.

    Parameters follow the paper's symbols.  ``gamma`` is the correction /
    normalisation factor of Eq (4); see DESIGN.md §2 for the identifiability
    discussion (the paper's (S0, alpha, beta, gamma) are only meaningful
    jointly; ``N_b``, ``X_max`` and R² are scale-free).
    """

    s0: float
    alpha: float
    beta: float
    gamma: float = 1.0
    tier: str = ""

    def __post_init__(self) -> None:
        if self.s0 <= 0:
            raise ModelError(f"fitted S0 must be positive, got {self.s0}")
        if self.alpha < 0 or self.beta < 0:
            raise ModelError("fitted alpha/beta must be non-negative")
        if self.gamma <= 0:
            raise ModelError(f"gamma must be positive, got {self.gamma}")

    # -- Eq (5)-(7) -----------------------------------------------------------
    def service_time(self, n: float) -> float:
        """Eq (5): per-request service time at concurrency ``n``."""
        if n < 1:
            raise ModelError(f"concurrency must be >= 1, got {n}")
        return self.s0 + self.alpha * (n - 1) + self.beta * n * (n - 1)

    def effective_service_time(self, n: float) -> float:
        """Eq (6): average service time ``S*(N)/N`` in steady pipeline."""
        return self.service_time(n) / n

    def throughput(self, n: float, servers: int = 1) -> float:
        """Eq (7): predicted throughput at per-server concurrency ``n``."""
        return self.gamma * servers * n / self.service_time(n)

    # -- Section III-C optimisation ------------------------------------------------
    def optimal_concurrency(self) -> float:
        """``N_b = sqrt((S0 - alpha)/beta)`` — the model's knee.

        Raises :class:`ModelError` when the fitted curve has no interior
        optimum (``beta == 0`` or ``alpha >= S0``): the controller then has
        no basis for capping concurrency.
        """
        if self.beta <= 0:
            raise ModelError(f"{self.tier or 'tier'}: beta == 0, no interior optimum")
        if self.alpha >= self.s0:
            raise ModelError(f"{self.tier or 'tier'}: alpha >= S0, no interior optimum")
        return math.sqrt((self.s0 - self.alpha) / self.beta)

    def optimal_concurrency_int(self) -> int:
        """The integer knee (better of floor/ceil under Eq (7))."""
        n_star = self.optimal_concurrency()
        lo, hi = max(1, math.floor(n_star)), max(1, math.ceil(n_star))
        return lo if self.throughput(lo) >= self.throughput(hi) else hi

    def max_throughput(self, servers: int = 1, visit_ratio: float = 1.0) -> float:
        """Eq (8): throughput at the optimal concurrency.

        With ``visit_ratio`` left at 1 this is the tier-local ceiling in the
        same units as the fitted samples (HTTP requests/s when the samples
        were HTTP-normalised, as ours are).
        """
        root = 2.0 * math.sqrt((self.s0 - self.alpha) * self.beta)
        denom = visit_ratio * (root + self.alpha - self.beta)
        if denom <= 0:
            raise ModelError("Eq (8) denominator non-positive; fit is degenerate")
        return self.gamma * servers / denom

    # -- stateful-tier adjustments ----------------------------------------------
    def with_cache_hit_rate(self, hit_rate: float) -> "ConcurrencyModel":
        """Effective db-tier curve when a cache absorbs ``hit_rate`` of visits.

        Our fitted samples are HTTP-normalised: S*(N) aggregates the db work
        *per HTTP request*.  A cache hit skips all of a request's queries,
        so the expected per-request db service time scales by the miss
        fraction ``(1 - h)`` uniformly — ``s0``, ``alpha`` and ``beta`` all
        shrink by it, while ``gamma`` (load-balancing efficiency) and the
        tier label are untouched.  Consequences the DCM estimator consumes
        unchanged: the knee ``N_b = sqrt((s0 - alpha)/beta)`` is invariant
        (both numerator terms scale by the same factor), and ``X_max``
        grows by ``1/(1 - h)`` — a warm cache raises HTTP capacity without
        moving the per-server concurrency optimum.
        """
        if not 0.0 <= hit_rate < 1.0:
            raise ModelError(f"hit_rate must be in [0, 1), got {hit_rate}")
        miss = 1.0 - hit_rate
        return ConcurrencyModel(
            s0=self.s0 * miss,
            alpha=self.alpha * miss,
            beta=self.beta * miss,
            gamma=self.gamma,
            tier=self.tier,
        )

    # -- presentation ---------------------------------------------------------------
    def rescaled(self, gamma: float) -> "ConcurrencyModel":
        """Re-express the same curve under a different gamma convention.

        ``X(N)`` is invariant: (S0, alpha, beta) are multiplied by
        ``gamma / self.gamma``.  Used to print Table-I-comparable numbers.
        """
        factor = gamma / self.gamma
        return ConcurrencyModel(
            s0=self.s0 * factor,
            alpha=self.alpha * factor,
            beta=self.beta * factor,
            gamma=gamma,
            tier=self.tier,
        )


def ground_truth_models(demand_scale: float = 1.0) -> dict[str, ConcurrencyModel]:
    """The paper's Table-I app and db models, rescaled to ``demand_scale``.

    Each tier's (S0, alpha, beta) is divided by its Table-I gamma and
    multiplied by ``demand_scale``, so runs that are not about model
    training can seed DCM without a training sweep.  Demands scale with
    ``demand_scale``; the knees are invariant.
    """
    return {
        "app": ConcurrencyModel(
            s0=2.84e-2 / 11.03 * demand_scale,
            alpha=9.87e-3 / 11.03 * demand_scale,
            beta=4.54e-5 / 11.03 * demand_scale,
            tier="app",
        ),
        "db": ConcurrencyModel(
            s0=7.19e-3 / 4.45 * demand_scale,
            alpha=5.04e-3 / 4.45 * demand_scale,
            beta=1.65e-6 / 4.45 * demand_scale,
            tier="db",
        ),
    }
