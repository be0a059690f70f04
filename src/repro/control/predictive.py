"""Predictive extension: trend-based proactive VM scaling.

The paper's related-work section notes that "predictive approaches could
avoid the long setup time and achieve good performance when the workload
has intrinsic patterns", while reactive approaches handle unpredictable
bursts; "our work complements both approaches".  This module implements
that complement: a DCM variant whose VM level acts on a *forecast* of each
tier's utilization one boot-time ahead, so capacity arrives when the ramp
needs it rather than 15–30 s late.  The second level (concurrency
management) is inherited unchanged — soft resources are re-planned no
matter which signal triggered the hardware.

The forecaster is deliberately simple and classical: ordinary least-squares
linear trend over a sliding window of per-period utilization samples,
extrapolated ``lead_time`` seconds ahead and clamped to [0, 1.5].  When the
trend is flat the controller degrades gracefully to the reactive behaviour.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.control.actuators import log_control
from repro.control.dcm import DCMController
from repro.control.policy import SCALE_OUT, TierScalingState
from repro.errors import ConfigurationError
from repro.monitor.collector import TierStats


class TrendForecaster:
    """Per-tier linear-trend utilization forecaster.

    Parameters
    ----------
    window:
        Number of most recent (time, utilization) samples kept per tier.
    lead_time:
        Forecast horizon in seconds (typically control period + VM boot).
    """

    def __init__(self, window: int = 6, lead_time: float = 30.0) -> None:
        if window < 2:
            raise ConfigurationError("forecaster window must be >= 2")
        if lead_time <= 0:
            raise ConfigurationError("lead_time must be positive")
        self.window = window
        self.lead_time = lead_time
        self._samples: Dict[str, Deque[Tuple[float, float]]] = defaultdict(
            lambda: deque(maxlen=self.window)
        )

    def observe(self, tier: str, time: float, utilization: float) -> None:
        """Record one per-period utilization sample."""
        self._samples[tier].append((time, utilization))

    def forecast(self, tier: str, at_time: float) -> Optional[float]:
        """Predicted utilization ``lead_time`` seconds after ``at_time``.

        ``None`` until at least two samples exist (no basis for a trend).
        """
        samples = self._samples.get(tier)
        if not samples or len(samples) < 2:
            return None
        times = np.array([t for t, _u in samples])
        utils = np.array([u for _t, u in samples])
        slope, intercept = np.polyfit(times, utils, 1)
        predicted = slope * (at_time + self.lead_time) + intercept
        return float(np.clip(predicted, 0.0, 1.5))


class PredictiveDCMController(DCMController):
    """DCM with a look-ahead VM level.

    The reactive policy still runs (it is the safety net for pattern-free
    bursts); additionally, when the *forecast* utilization crosses the
    upper threshold the scale-out fires early.  Scale-in stays purely
    reactive — shrinking on a forecast would undercut the paper's
    "slow turn off" lesson.
    """

    name = "predictive-dcm"

    def __init__(self, *args, forecaster: Optional[TrendForecaster] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.forecaster = forecaster or TrendForecaster(
            window=6,
            lead_time=self.policy.control_period
            + max(self.vm_agent.preparation_periods.values()),
        )
        self.predictive_scaleouts = 0
        self._started_at = self.env.now

    def decide(
        self,
        tier: str,
        stats: Optional[TierStats],
        servers: int,
        state: TierScalingState,
        now: float,
    ) -> Optional[str]:
        """The reactive verdict, else a forecast-driven scale-out."""
        if stats is not None and self._past_warmup(now):
            # The very first period carries the population ramp-up
            # transient; feeding it to the forecaster would fake a
            # rising trend on perfectly flat workloads.
            self.forecaster.observe(tier, now, stats.mean_cpu_utilization)
        decision = super().decide(tier, stats, servers, state, now)
        if decision is None and stats is not None:
            decision = self._predictive_decision(tier, stats, servers, state, now)
        return decision

    def _past_warmup(self, now: float) -> bool:
        """Whether ``now`` is beyond the first (ramp-up) control period."""
        return now - self._started_at > self.policy.control_period + 1e-9

    def _predictive_decision(
        self,
        tier: str,
        stats: TierStats,
        servers: int,
        state: TierScalingState,
        now: float,
    ) -> Optional[str]:
        """Fire a proactive scale-out when the trend says we will saturate."""
        if state.pending_action or servers >= self.policy.max_servers:
            return None
        predicted = self.forecaster.forecast(tier, now)
        if predicted is None or predicted <= self.policy.upper_threshold:
            return None
        # Require a genuinely rising trend, not just a high plateau the
        # reactive rule already declined to act on.
        if predicted <= stats.mean_cpu_utilization + 0.05:
            return None
        self.predictive_scaleouts += 1
        log_control(
            self.system, "controller", tier, "predictive_trigger",
            f"util={stats.mean_cpu_utilization:.2f} forecast={predicted:.2f}",
        )
        return SCALE_OUT
