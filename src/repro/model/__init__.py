"""The paper's core contribution: the concurrency-aware model.

Operational laws (Eq 1–4), the multi-threading service-time model and its
closed-form optimum (Eq 5–8), weighted least-squares fitting with R²
(Section V-A), the allocation planner that turns knees into pool sizes, and
the online estimator that refits from the live metric stream.
"""

from repro.model.fitting import (
    FitResult,
    bin_samples,
    estimate_scaling_correction,
    fit_concurrency_model,
)
from repro.model.laws import (
    MMCMetrics,
    TierDemand,
    bottleneck,
    demand_table,
    erlang_c,
    forced_flow,
    mmc_metrics,
    interactive_response_time,
    littles_law_population,
    max_system_throughput,
    system_throughput_from_tier,
    utilization,
)
from repro.model.online import OnlineModelEstimator
from repro.model.optimizer import DEFAULT_HEADROOM, AllocationPlan, AllocationPlanner
from repro.model.predictor import (
    OperatingPoint,
    TierSpec,
    predict_curve,
    predict_operating_point,
    specs_from_system,
)
from repro.model.service_time import ConcurrencyModel, ground_truth_models

__all__ = [
    "AllocationPlan",
    "AllocationPlanner",
    "ConcurrencyModel",
    "DEFAULT_HEADROOM",
    "FitResult",
    "MMCMetrics",
    "OperatingPoint",
    "OnlineModelEstimator",
    "TierDemand",
    "TierSpec",
    "bin_samples",
    "bottleneck",
    "demand_table",
    "erlang_c",
    "estimate_scaling_correction",
    "fit_concurrency_model",
    "forced_flow",
    "ground_truth_models",
    "mmc_metrics",
    "interactive_response_time",
    "littles_law_population",
    "max_system_throughput",
    "predict_curve",
    "predict_operating_point",
    "specs_from_system",
    "system_throughput_from_tier",
    "utilization",
]
