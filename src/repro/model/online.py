"""Online model estimation from the live metric stream (Section III-C).

"We can determine these parameters via online monitoring of the whole
system, then regress based on the measured system throughput and the thread
allocation of each server in the bottleneck tier."

:class:`OnlineModelEstimator` keeps per-tier (concurrency, throughput)
sample pools fed from the :class:`~repro.monitor.collector.MetricCollector`
and refits Eq (7) when enough fresh data accumulates.  Estimates can be
*seeded* with offline-trained models (the paper trains first with JMeter,
then lets DCM run) — a seed is used until an online fit of acceptable
quality replaces it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ModelError
from repro.model.fitting import FitResult, bin_samples, fit_concurrency_model
from repro.model.service_time import ConcurrencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.collector import MetricCollector


class OnlineModelEstimator:
    """Maintains the freshest credible concurrency model per tier.

    Parameters
    ----------
    collector:
        The metric stream aggregator.
    visit_ratios:
        Per-tier mean visits per HTTP request (normalises DB query
        throughput to request throughput).
    min_samples:
        Minimum binned points before attempting a fit.
    min_r_squared:
        Fits below this quality never replace the current model.
    min_range_ratio:
        The binned samples' max/min concurrency must span at least this
        ratio — a fit from a narrow operating band (e.g. a system sitting
        at one load level) would extrapolate wildly and must not displace
        a good seed.
    max_knee:
        Fits whose optimal concurrency exceeds this are rejected as
        degenerate (a near-zero fitted beta puts the knee at infinity and
        would tell the planner to open the pools wide).
    window:
        Only samples newer than ``now - window`` are used (stale operating
        points from a different configuration would bias the curve).
    """

    def __init__(
        self,
        collector: "MetricCollector",
        visit_ratios: Optional[Dict[str, float]] = None,
        min_samples: int = 10,
        min_r_squared: float = 0.85,
        min_range_ratio: float = 3.0,
        max_knee: float = 256.0,
        window: float = 300.0,
    ) -> None:
        self.collector = collector
        self.visit_ratios = visit_ratios or {"web": 1.0, "app": 1.0, "db": 2.0}
        self.min_samples = min_samples
        self.min_r_squared = min_r_squared
        self.min_range_ratio = min_range_ratio
        self.max_knee = max_knee
        self.window = window
        self._models: Dict[str, ConcurrencyModel] = {}
        self._seeded: Dict[str, bool] = {}

    # -- seeding ------------------------------------------------------------------
    def seed(self, tier: str, model: ConcurrencyModel) -> None:
        """Install an offline-trained model for ``tier``."""
        self._models[tier] = model
        self._seeded[tier] = True

    def is_seeded(self, tier: str) -> bool:
        """Whether the tier's current model is still the offline seed."""
        return self._seeded.get(tier, False)

    # -- access --------------------------------------------------------------------
    def model(self, tier: str) -> ConcurrencyModel:
        """The current best model for ``tier`` (raises if none)."""
        try:
            return self._models[tier]
        except KeyError:
            raise ModelError(f"no model available for tier {tier!r}") from None

    # -- refitting -----------------------------------------------------------------
    def samples(self, tier: str, now: float) -> List[Tuple[float, float]]:
        """Binned HTTP-normalised samples for ``tier`` within the window."""
        raw = self.collector.training_samples(
            tier,
            since=max(0.0, now - self.window),
            visit_ratio=self.visit_ratios.get(tier, 1.0),
        )
        return bin_samples(raw, bin_width=1.0)

    def refit(self, tier: str, now: float) -> Optional[FitResult]:
        """Attempt an online refit for ``tier``.

        Returns the accepted :class:`FitResult`, or ``None`` when data was
        insufficient or the fit did not clear ``min_r_squared`` (the
        previous model, possibly the seed, stays in force).
        """
        binned = self.samples(tier, now)
        if len(binned) < self.min_samples:
            return None
        lo = min(n for n, _ in binned)
        hi = max(n for n, _ in binned)
        if lo <= 0 or hi / lo < self.min_range_ratio:
            return None
        try:
            result = fit_concurrency_model(binned, tier=tier)
            knee = result.model.optimal_concurrency()
        except ModelError:
            return None
        if knee > self.max_knee:
            return None  # degenerate: near-zero beta, knee at infinity
        if result.r_squared < self.min_r_squared:
            return None
        self._models[tier] = result.model
        self._seeded[tier] = False
        return result
