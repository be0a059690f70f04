"""Post-processing of run results.

Time-series binning, SLA/stability reports, ASCII tables, latency
breakdowns, and JSON/CSV persistence of runs and curves.
"""

from repro.analysis import persistence, tracing
from repro.analysis.persistence import (
    load_curve,
    load_run,
    run_to_dict,
    save_curve,
    save_run,
)
from repro.analysis.tracing import LatencyBreakdown, TierLatency, breakdown
from repro.analysis.sla import (
    DEFAULT_SPIKE_THRESHOLD,
    SpikeEpisode,
    StabilityReport,
    find_spikes,
    sla_violation_fraction,
    stability_report,
)
from repro.analysis.tables import render_series, render_sparkline, render_table
from repro.analysis.timeseries import (
    BinnedSeries,
    metric_series,
    percentile,
    response_time_series,
    step_series,
    throughput_series,
)

__all__ = [
    "BinnedSeries",
    "LatencyBreakdown",
    "TierLatency",
    "breakdown",
    "DEFAULT_SPIKE_THRESHOLD",
    "SpikeEpisode",
    "StabilityReport",
    "persistence",
    "load_curve",
    "load_run",
    "run_to_dict",
    "save_curve",
    "save_run",
    "tracing",
    "find_spikes",
    "metric_series",
    "percentile",
    "render_series",
    "render_sparkline",
    "render_table",
    "response_time_series",
    "sla_violation_fraction",
    "stability_report",
    "step_series",
    "throughput_series",
]
